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
// The propagation engine here is written against cnf.Clause slices and
// shares nothing with internal/sat — this function is the independent half
// of the proof pipeline. Only OpLearn and OpDelete records are admitted;
// any other op rejects the trace.
func CheckTrace(f *cnf.Formula, t *Trace) error {
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
// Trimming a trace that fails verification returns the error.
func Trim(f *cnf.Formula, t *Trace) (*Trace, error) {
	c := newChecker(f)
	emptyAt, err := c.run(t)
	if err != nil {
		return nil, err
	}
	out := &Trace{}
	for i, rec := range t.Records[:emptyAt] {
		if rec.Op != OpDelete && c.marked[c.byRecord[i]] {
			out.Records = append(out.Records, rec)
		}
	}
	out.Records = append(out.Records, t.Records[emptyAt])
	return out, nil
}

// run verifies t against the checker's formula. On success it returns the
// index of the empty learnt clause, and the marked flags record which
// additions some conflict consumed.
func (c *checker) run(t *Trace) (int, error) {
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

	// The final obligation: with everything before the empty clause
	// active, unit propagation alone must conflict.
	c.active[c.byRecord[emptyAt]] = false // the empty clause itself is not an antecedent
	if err := c.rup(nil); err != nil {
		return -1, fmt.Errorf("proof: empty clause: %w", err)
	}

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
	}
	return emptyAt, nil
}

// checker is the verification state: a clause database with activity
// flags, two-watched-literal propagation, and antecedent marking.
type checker struct {
	clauses  [][]cnf.Lit // sorted literal sets until propagation reorders them
	active   []bool
	marked   []bool
	watches  [][]int32 // watches[lit] = ids of clauses watching lit
	units    []int32   // ids of clauses with < 2 literals
	byRecord []int32   // record index -> id it added, or for a deletion the id it deactivated (-1: none)
	// byKey maps a clause's literal set to the ids installed with it. It
	// is built at the first deletion: certificate traces never delete, so
	// they never pay for it.
	byKey map[string][]int32

	val    []int8 // 1 true, -1 false, 0 unassigned
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
}

func newChecker(f *cnf.Formula) *checker {
	c := &checker{
		watches: make([][]int32, 2*f.NumVars),
		val:     make([]int8, f.NumVars),
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
// stores and deletions match on; order and repetition are irrelevant to
// RUP, and the two watches of a set are always distinct.
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

// install appends a clause (copying it), activates it, and hooks watches.
func (c *checker) install(lits []cnf.Lit) int32 {
	id := int32(len(c.clauses))
	cl := canonical(lits)
	c.clauses = append(c.clauses, cl)
	c.active = append(c.active, true)
	c.marked = append(c.marked, false)
	if len(cl) >= 2 {
		c.watches[cl[0]] = append(c.watches[cl[0]], id)
		c.watches[cl[1]] = append(c.watches[cl[1]], id)
	} else {
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
		c.byKey = make(map[string][]int32, len(c.clauses))
		for id, cl := range c.clauses {
			k := key(cl)
			c.byKey[k] = append(c.byKey[k], int32(id))
		}
	}
	ids := c.byKey[key(canonical(lits))]
	for i := len(ids) - 1; i >= 0; i-- {
		if c.active[ids[i]] {
			c.active[ids[i]] = false
			return ids[i]
		}
	}
	return -1
}

// undelete reactivates a clause the forward pass deleted. It may be unit or
// falsified under the kept fixpoint, so the fixpoint is rebuilt.
func (c *checker) undelete(id int32) {
	c.active[id] = true
	c.dropTop()
}

// deactivate retires clause id in the backward sweep. Retiring the
// fixpoint's conflict or the reason of one of its literals invalidates it;
// retiring any other clause leaves the fixpoint implied by the clauses
// still active, and still a fixpoint.
func (c *checker) deactivate(id int32) {
	c.active[id] = false
	if !c.topValid {
		return
	}
	if cl := c.clauses[id]; id == c.topConfl || len(cl) > 0 && c.reason[cl[0].Var()] == id {
		c.dropTop()
	}
}

// dropTop discards the kept fixpoint; the next rup derives it again.
func (c *checker) dropTop() {
	c.backtrack(0)
	c.topValid = false
}

// settle derives the fixpoint of the active unit clauses on an empty trail.
// A conflict there is marked once and recorded in topConfl.
func (c *checker) settle() {
	c.topValid, c.topConfl = true, -1
	for _, id := range c.units {
		if !c.active[id] {
			continue
		}
		cl := c.clauses[id]
		if len(cl) == 0 {
			c.topConfl = id
			c.markFrom(id)
			return
		}
		if !c.enqueue(cl[0], id) {
			c.topConfl = id
			c.markConflict(cl[0], id)
			return
		}
	}
	if confl := c.propagate(); confl >= 0 {
		c.topConfl = confl
		c.markFrom(confl)
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
		return nil // the units alone conflict: every lemma is RUP
	}
	defer c.backtrack(c.top)
	for _, l := range lemma {
		if !c.enqueue(l.Neg(), -1) {
			// l is already true. The fixpoint implied it (mark why), or
			// an earlier literal of the lemma did, which makes the lemma a
			// tautology: trivially valid, and its reason -1 marks nothing.
			if r := c.reason[l.Var()]; r >= 0 {
				c.markFrom(r)
			}
			return nil
		}
	}
	if confl := c.propagate(); confl >= 0 {
		c.markFrom(confl)
		return nil
	}
	return fmt.Errorf("not RUP: unit propagation does not conflict")
}

func (c *checker) enqueue(l cnf.Lit, why int32) bool {
	v := l.Var()
	want := int8(1)
	if l.Sign() {
		want = -1
	}
	switch c.val[v] {
	case want:
		return true
	case -want:
		return false
	}
	c.val[v] = want
	c.reason[v] = why
	c.trail = append(c.trail, l)
	return true
}

func (c *checker) falsified(l cnf.Lit) bool {
	v := c.val[l.Var()]
	if l.Sign() {
		return v == 1
	}
	return v == -1
}

func (c *checker) satisfied(l cnf.Lit) bool {
	v := c.val[l.Var()]
	if l.Sign() {
		return v == -1
	}
	return v == 1
}

// propagate runs two-watched-literal unit propagation. It returns the id
// of a conflicting clause, or -1 at fixpoint.
func (c *checker) propagate() int32 {
	for c.queue < len(c.trail) {
		p := c.trail[c.queue] // p became true; visit clauses watching ¬p
		c.queue++
		false_ := p.Neg()
		ws := c.watches[false_]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			id := ws[wi]
			if !c.active[id] {
				kept = append(kept, id) // keep hook; may be reactivated
				continue
			}
			cl := c.clauses[id]
			// Normalize: watched literals are cl[0], cl[1].
			if cl[0] == false_ {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if c.satisfied(cl[0]) {
				kept = append(kept, id)
				continue
			}
			// Find a replacement watch.
			moved := false
			for k := 2; k < len(cl); k++ {
				if !c.falsified(cl[k]) {
					cl[1], cl[k] = cl[k], cl[1]
					c.watches[cl[1]] = append(c.watches[cl[1]], id)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, id)
			if !c.enqueue(cl[0], id) {
				// Conflict: keep the remaining hooks before returning.
				kept = append(kept, ws[wi+1:]...)
				c.watches[false_] = kept
				return id
			}
		}
		c.watches[false_] = kept
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
	stack := append(c.stack[:0], c.clauses[confl]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1].Var()
		stack = stack[:len(stack)-1]
		if c.seen[v] == c.stamp {
			continue
		}
		c.seen[v] = c.stamp
		if r := c.reason[v]; r >= 0 {
			c.marked[r] = true
			stack = append(stack, c.clauses[r]...)
		}
	}
	c.stack = stack
}

// markConflict handles a conflict found while asserting unit clauses: the
// unit clause id forcing ¬l plus the reason chain of l.
func (c *checker) markConflict(l cnf.Lit, id int32) {
	c.marked[id] = true
	if r := c.reason[l.Var()]; r >= 0 {
		c.markFrom(r)
	}
}

// backtrack unassigns trail[n:].
func (c *checker) backtrack(n int) {
	for _, l := range c.trail[n:] {
		c.val[l.Var()] = 0
		c.reason[l.Var()] = -1
	}
	c.trail = c.trail[:n]
	c.queue = n
}
