package proof

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
)

// CheckTrace verifies that t is a valid DRAT-style refutation of f: the
// trace must derive the empty clause, and every learnt clause consulted on
// the path to it must have the RUP property — asserting its negation and
// unit-propagating over the clauses active at that point yields a
// conflict. Verification is backward (drat-trim style): a forward pass
// indexes additions and deletions up to the first empty clause, then a
// reverse sweep checks only the lemmas marked as antecedents of later
// conflicts, unwinding additions and deletions as it goes. As in drat-trim,
// the unit clauses' propagation fixpoint is derived once and kept across
// lemma checks, until the sweep retires a clause it rests on.
//
// A trace that carries hints (Trace.Hints) is first verified forward
// through them, one unit propagation over each record's hints and no
// search (checkHinted). When the hints do not verify it, the backward check
// decides, so hints change what a check costs and never its verdict.
//
// The propagation engine here runs over its own literal arena and shares
// nothing with internal/sat — this function is the independent half of the
// proof pipeline. Only OpLearn and OpDelete records are admitted;
// any other op rejects the trace.
func CheckTrace(f *cnf.Formula, t *Trace) error {
	if t.Hints != nil && checkHinted(f, t) == nil {
		return nil
	}
	_, err := newChecker(f).run(t)
	return err
}

// Trim verifies t against f and returns the trimmed trace: only the lemmas
// the backward sweep marked as antecedents of some later conflict survive,
// in their original order, ending with the empty clause; deletions are
// dropped entirely. The trim is sound because RUP is monotone in the clause
// set — each kept lemma's check used only formula clauses and earlier
// marked (hence kept) records, and dropping deletions only enlarges the
// active set. The result verifies again (asserted by the trimming tests,
// and cheap enough to re-check at the call site).
//
// The result carries hints: for each kept record, the clauses of the cone
// its check marked (the conflict and the reasons it rests on), in
// propagation order with the conflict last, numbered in the trimmed trace.
// They are the antecedents LRAT records (Cruz-Filipe et al., CADE 2017);
// with them CheckTrace re-proves the result without propagation search.
//
// Trimming a trace that fails verification returns the error.
func Trim(f *cnf.Formula, t *Trace) (*Trace, error) {
	c := newChecker(f)
	c.record = true
	emptyAt, err := c.run(t)
	if err != nil {
		return nil, err
	}
	// renum maps a checker id to its id in the trimmed trace.
	m := int32(len(f.Clauses))
	renum := make([]int32, len(c.status))
	for id := range m {
		renum[id] = id
	}
	out := &Trace{}
	var kept []int32 // checker ids of the kept records, in order
	for i, rec := range t.Records[:emptyAt+1] {
		if id := c.byRecord[i]; rec.Op != OpDelete && (c.marked[id] || i == emptyAt) {
			renum[id] = m + int32(len(out.Records))
			kept = append(kept, id)
			out.Records = append(out.Records, rec)
		}
	}
	// Every cone holds marked clauses only, formula clauses and kept
	// records, so the cones are renumbered in place, each id once (a span
	// may serve several records).
	for i, id := range c.cones {
		c.cones[i] = renum[id]
	}
	out.Hints = make([][]int32, len(kept))
	for j, id := range kept {
		s := c.hintOf[id]
		out.Hints[j] = c.cones[s.from:s.to:s.to]
	}
	return out, nil
}

// run verifies t against the checker's formula. On success it returns the
// index of the empty learnt clause, and the marked flags record which
// additions some conflict consumed.
func (c *checker) run(t *Trace) (int, error) {
	// Size the clause store for the lemmas up to the first empty clause.
	lemmas, n := 0, 0
	for _, rec := range t.Records {
		if rec.Op == OpLearn {
			lemmas++
			n += len(rec.Lits)
			if len(rec.Lits) == 0 {
				break
			}
		}
	}
	c.lits = slices.Grow(c.lits, n)
	c.start = slices.Grow(c.start, lemmas)
	c.status = slices.Grow(c.status, lemmas)
	c.marked = slices.Grow(c.marked, lemmas)

	// Forward pass: admit records, build the clause timeline, find the
	// first empty-clause addition.
	c.byRecord = make([]int32, len(t.Records))
	emptyAt := -1
	for i, rec := range t.Records {
		switch rec.Op {
		case OpLearn:
		case OpDelete:
			c.byRecord[i] = c.delete(rec.Lits)
			continue
		case OpAxiom:
			return -1, fmt.Errorf("proof: record %d: axiom not allowed in a checked trace", i)
		default:
			return -1, fmt.Errorf("proof: record %d: unknown op %d", i, byte(rec.Op))
		}
		c.byRecord[i] = c.install(rec.Lits)
		if len(rec.Lits) == 0 {
			emptyAt = i
			break
		}
	}
	if emptyAt < 0 {
		return -1, fmt.Errorf("proof: trace does not derive the empty clause")
	}
	if c.record {
		c.hintOf = make([]span, len(c.status))
	}

	// The final obligation: with everything before the empty clause
	// active, unit propagation alone must conflict.
	c.status[c.byRecord[emptyAt]] = retired // the empty clause itself is not an antecedent
	if err := c.rup(nil); err != nil {
		return -1, fmt.Errorf("proof: empty clause: %w", err)
	}
	c.keepCone(c.byRecord[emptyAt])

	// Backward sweep.
	for i := emptyAt - 1; i >= 0; i-- {
		rec := t.Records[i]
		id := c.byRecord[i]
		if rec.Op == OpDelete {
			if id >= 0 {
				c.undelete(id)
			}
			continue
		}
		c.deactivate(id)
		if !c.marked[id] {
			continue // unused lemma
		}
		if err := c.rup(rec.Lits); err != nil {
			return -1, fmt.Errorf("proof: record %d (%v): %w", i, cnf.Clause(rec.Lits), err)
		}
		c.keepCone(id)
	}
	return emptyAt, nil
}

// checker is the verification state: a clause arena with a status per
// clause, two-watched-literal propagation over per-literal values, and
// antecedent marking.
type checker struct {
	// lits is the literal arena: clause id holds lits[start[id]:start[id+1]],
	// a sorted literal set until propagation reorders it.
	lits     []cnf.Lit
	start    []int
	status   []status
	marked   []bool
	watches  [][]watch // watches[lit] = hooks of the clauses watching lit
	units    []int32   // ids of clauses with < 2 literals
	byRecord []int32   // record index -> id it added, or for a deletion the id it deactivated (-1: none)
	// byKey maps a clause's literal set to the ids installed with it. It
	// is built at the first deletion: certificate traces never delete, so
	// they never pay for it.
	byKey map[string][]int32

	vals   []int8 // per literal: 1 true, -1 false, 0 unassigned
	trail  []cnf.Lit
	reason []int32 // per var: clause id forcing it, or -1
	queue  int

	// The units' fixpoint, kept across lemma checks. While topValid,
	// trail[:top] is the propagation fixpoint of the active unit clauses,
	// or, when topConfl ≥ 0, that propagation reached a conflict at
	// clause topConfl (already marked) and every lemma is RUP.
	topValid bool
	top      int
	topConfl int32

	seen  []uint32 // per var: the markFrom call that last visited it
	stamp uint32
	stack []cnf.Lit

	// Trim's hints. While record is set, every conflict files its cone in
	// cones (conflict), cone spans the last one rup passed, topCone the
	// units' own conflict, and hintOf[id] the cone of clause id's check.
	record  bool
	cones   []int32
	cone    span
	topCone span
	hintOf  []span
}

// span is the range cones[from:to].
type span struct{ from, to int32 }

// status is a clause's standing in the sweep.
type status uint8

const (
	active  status = iota
	deleted        // by the forward pass; the sweep undeletes it on the way back
	retired        // passed by the sweep: never active again, so its hooks can go
)

func newChecker(f *cnf.Formula) *checker {
	n := 0
	for _, cl := range f.Clauses {
		n += len(cl)
	}
	c := &checker{
		lits:    make([]cnf.Lit, 0, n),
		start:   make([]int, 1, len(f.Clauses)+1),
		watches: make([][]watch, 2*f.NumVars),
		vals:    make([]int8, 2*f.NumVars),
		status:  make([]status, 0, len(f.Clauses)),
		marked:  make([]bool, 0, len(f.Clauses)),
		reason:  make([]int32, f.NumVars),
		seen:    make([]uint32, f.NumVars),
	}
	for v := range c.reason {
		c.reason[v] = -1
	}
	for _, cl := range f.Clauses {
		c.install(cl)
	}
	return c
}

// canonical returns a fresh copy of lits as a sorted set, the form install
// stores (in place, in the arena) and deletions match on; order and
// repetition are irrelevant to RUP, and the two watches of a set are always
// distinct.
func canonical(lits []cnf.Lit) []cnf.Lit {
	s := slices.Clone(lits)
	slices.Sort(s)
	return slices.Compact(s)
}

// key returns the map key of a literal set in canonical form.
func key(set []cnf.Lit) string {
	b := make([]byte, 0, 4*len(set))
	for _, l := range set {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

// clause returns the literals of clause id in the arena.
func (c *checker) clause(id int32) []cnf.Lit {
	return c.lits[c.start[id]:c.start[id+1]]
}

// install copies a clause into the arena in canonical form, activates it,
// and hooks watches.
func (c *checker) install(lits []cnf.Lit) int32 {
	id := int32(len(c.start) - 1)
	at := len(c.lits)
	c.lits = append(c.lits, lits...)
	slices.Sort(c.lits[at:])
	c.lits = c.lits[:at+len(slices.Compact(c.lits[at:]))]
	c.start = append(c.start, len(c.lits))
	cl := c.lits[at:]
	c.status = append(c.status, active)
	c.marked = append(c.marked, false)
	switch {
	case len(cl) == 2:
		c.watches[cl[0]] = append(c.watches[cl[0]], watch{^id, cl[1]})
		c.watches[cl[1]] = append(c.watches[cl[1]], watch{^id, cl[0]})
	case len(cl) > 2:
		c.watches[cl[0]] = append(c.watches[cl[0]], watch{id, cl[1]})
		c.watches[cl[1]] = append(c.watches[cl[1]], watch{id, cl[0]})
	default:
		c.units = append(c.units, id)
	}
	if c.byKey != nil {
		k := key(cl)
		c.byKey[k] = append(c.byKey[k], id)
	}
	return id
}

// delete deactivates the most recently installed active clause with the
// literal set of lits and returns its id, or -1 when none is active.
// Deleting a clause that is not active is ignored: the checker's active set
// stays a superset of the producer's, and RUP is monotone in the clause
// set.
func (c *checker) delete(lits []cnf.Lit) int32 {
	if c.byKey == nil {
		// Deletions come in the forward pass, before any propagation, so
		// every installed clause is still in canonical form.
		c.byKey = make(map[string][]int32, len(c.status))
		for id := range int32(len(c.status)) {
			k := key(c.clause(id))
			c.byKey[k] = append(c.byKey[k], id)
		}
	}
	ids := c.byKey[key(canonical(lits))]
	for i := len(ids) - 1; i >= 0; i-- {
		if c.status[ids[i]] == active {
			c.status[ids[i]] = deleted
			return ids[i]
		}
	}
	return -1
}

// undelete reactivates a clause the forward pass deleted. It may be unit or
// falsified under the kept fixpoint, so the fixpoint is rebuilt.
func (c *checker) undelete(id int32) {
	c.status[id] = active
	c.dropTop()
}

// deactivate retires clause id in the backward sweep. Retiring the
// fixpoint's conflict or the reason of one of its literals invalidates it;
// retiring any other clause leaves the fixpoint implied by the clauses
// still active, and still a fixpoint. A binary clause implies either of its
// literals in place, so every literal is tested for being the clause's.
func (c *checker) deactivate(id int32) {
	c.status[id] = retired
	if !c.topValid {
		return
	}
	if id == c.topConfl {
		c.dropTop()
		return
	}
	for _, l := range c.clause(id) {
		if c.reason[l.Var()] == id {
			c.dropTop()
			return
		}
	}
}

// dropTop discards the kept fixpoint; the next rup derives it again.
func (c *checker) dropTop() {
	c.backtrack(0)
	c.topValid = false
}

// settle derives the fixpoint of the active unit clauses on an empty trail.
// A conflict there is marked once and recorded in topConfl: an empty
// clause, a unit clause whose literal is already false, or a clause
// propagation falsified.
func (c *checker) settle() {
	c.topValid, c.topConfl = true, -1
	for _, id := range c.units {
		if c.status[id] != active {
			continue
		}
		if cl := c.clause(id); len(cl) == 0 || !c.enqueue(cl[0], id) {
			c.topConfl = id
			break
		}
	}
	if c.topConfl < 0 {
		c.topConfl = c.propagate()
	}
	if c.topConfl >= 0 {
		c.conflict(c.topConfl)
		c.topCone = c.cone
		return
	}
	c.top = len(c.trail)
}

// rup asserts the negation of lemma on top of the units' fixpoint,
// propagates over the active clauses, and requires a conflict; the
// conflict's antecedents are marked. The trail is cut back to the fixpoint
// afterwards.
func (c *checker) rup(lemma []cnf.Lit) error {
	if !c.topValid {
		c.settle()
	}
	if c.topConfl >= 0 {
		c.cone = c.topCone
		return nil // the units alone conflict: every lemma is RUP
	}
	defer c.backtrack(c.top)
	for _, l := range lemma {
		if !c.enqueue(l.Neg(), -1) {
			// l is already true. The fixpoint implied it (mark why), or
			// an earlier literal of the lemma did, which makes the lemma a
			// tautology: trivially valid, and its reason -1 marks nothing.
			c.cone = span{}
			if r := c.reason[l.Var()]; r >= 0 {
				c.conflict(r)
			}
			return nil
		}
	}
	if confl := c.propagate(); confl >= 0 {
		c.conflict(confl)
		return nil
	}
	return fmt.Errorf("not RUP: unit propagation does not conflict")
}

func (c *checker) enqueue(l cnf.Lit, why int32) bool {
	switch c.vals[l] {
	case 1:
		return true
	case -1:
		return false
	}
	c.vals[l], c.vals[l.Neg()] = 1, -1
	c.reason[l.Var()] = why
	c.trail = append(c.trail, l)
	return true
}

// watch is a clause's hook on the watch list of one of its literals,
// visited when that literal becomes false. ref is the clause id, or its
// complement ^id for a binary clause. For a binary clause, other is the
// literal the clause then implies; for a longer one, it is a blocker, a
// literal of the clause whose truth satisfies it. Either way, a true other
// settles the visit without reading the arena.
type watch struct {
	ref   int32
	other cnf.Lit
}

// propagate runs two-watched-literal unit propagation. It returns the id
// of a conflicting clause, or -1 at fixpoint.
func (c *checker) propagate() int32 {
	for c.queue < len(c.trail) {
		false_ := c.trail[c.queue].Neg() // visit the clauses watching it
		c.queue++
		ws := c.watches[false_]
		j := 0
	visit:
		for i, w := range ws {
			if c.vals[w.other] == 1 {
				ws[j] = w
				j++
				continue
			}
			id := w.ref
			if id < 0 {
				id = ^id
			}
			if st := c.status[id]; st != active {
				if st == deleted {
					ws[j] = w // the sweep may undelete it
					j++
				}
				continue
			}
			if w.ref < 0 { // binary: w.other is implied, or false
				ws[j] = w
				j++
				if c.enqueue(w.other, id) {
					continue
				}
				j += copy(ws[j:], ws[i+1:])
				c.watches[false_] = ws[:j]
				return id
			}
			cl := c.clause(id)
			// Normalize: watched literals are cl[0], cl[1].
			if cl[0] == false_ {
				cl[0], cl[1] = cl[1], cl[0]
			}
			first := cl[0]
			if first != w.other && c.vals[first] == 1 {
				ws[j] = watch{id, first}
				j++
				continue
			}
			// Find a replacement watch.
			for k := 2; k < len(cl); k++ {
				if c.vals[cl[k]] != -1 {
					cl[1], cl[k] = cl[k], cl[1]
					c.watches[cl[1]] = append(c.watches[cl[1]], watch{id, first})
					continue visit
				}
			}
			ws[j] = watch{id, first}
			j++
			if !c.enqueue(first, id) {
				// Conflict: keep the remaining hooks before returning.
				j += copy(ws[j:], ws[i+1:])
				c.watches[false_] = ws[:j]
				return id
			}
		}
		if j < len(ws) {
			c.watches[false_] = ws[:j]
		}
	}
	return -1
}

// markFrom marks the conflicting clause and, transitively, every reason
// clause of the literals falsifying it.
func (c *checker) markFrom(confl int32) {
	c.stamp++
	if c.stamp == 0 { // wrapped: clear stamps that could match again
		clear(c.seen)
		c.stamp = 1
	}
	c.marked[confl] = true
	stack := append(c.stack[:0], c.clause(confl)...)
	for len(stack) > 0 {
		v := stack[len(stack)-1].Var()
		stack = stack[:len(stack)-1]
		if c.seen[v] == c.stamp {
			continue
		}
		c.seen[v] = c.stamp
		if r := c.reason[v]; r >= 0 {
			c.marked[r] = true
			stack = append(stack, c.clause(r)...)
		}
	}
	c.stack = stack
}

// conflict marks the antecedents of a conflict at clause confl, whose
// literals are all false. While recording, it also files the conflict's
// cone in cones: the reasons markFrom visited, in trail order, then confl.
// Each of them was unit or false when propagation reached it, so unit
// propagation over the cone alone repeats the conflict.
func (c *checker) conflict(confl int32) {
	c.markFrom(confl)
	if !c.record {
		return
	}
	from := int32(len(c.cones))
	for _, l := range c.trail {
		v := l.Var()
		if r := c.reason[v]; r >= 0 && r != confl && c.seen[v] == c.stamp {
			c.cones = append(c.cones, r)
		}
	}
	c.cones = append(c.cones, confl)
	c.cone = span{from, int32(len(c.cones))}
}

// keepCone files the cone of the check rup just passed as clause id's
// hints, while recording.
func (c *checker) keepCone(id int32) {
	if c.record {
		c.hintOf[id] = c.cone
	}
}

// backtrack unassigns trail[n:].
func (c *checker) backtrack(n int) {
	for _, l := range c.trail[n:] {
		c.vals[l], c.vals[l.Neg()] = 0, 0
		c.reason[l.Var()] = -1
	}
	c.trail = c.trail[:n]
	c.queue = n
}
