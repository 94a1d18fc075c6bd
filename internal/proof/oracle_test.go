package proof

// The oracle is the checker as it stood before the top-level fixpoint was
// kept across lemma checks and the deletion index became lazy, kept verbatim
// apart from its identifiers (Oracle-, oracle- prefixes): it re-derives the
// units' fixpoint for every lemma, keys every installed clause for deletion
// and allocates a fresh map per conflict. It is slow and simple on purpose;
// FuzzCheckerVsOracle and the deletion tests compare the checker against it.

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
)

// OracleCheckTrace is CheckTrace's contract, decided by the oracle: t must
// derive the empty clause, and every lemma the backward sweep marks must be
// RUP over the clauses active at its position.
func OracleCheckTrace(f *cnf.Formula, t *Trace) error {
	_, _, err := oracleRunCheck(f, t)
	return err
}

// OracleTrim is Trim's contract, decided by the oracle: the lemmas its
// sweep marked, in order, then the empty clause; deletions are dropped.
func OracleTrim(f *cnf.Formula, t *Trace) (*Trace, error) {
	c, emptyAt, err := oracleRunCheck(f, t)
	if err != nil {
		return nil, err
	}
	out := &Trace{}
	for i := range emptyAt {
		rec := t.Records[i]
		if rec.Op == OpDelete {
			continue
		}
		if c.marked[c.byRecord[i]] {
			out.Records = append(out.Records, rec)
		}
	}
	out.Records = append(out.Records, t.Records[emptyAt])
	return out, nil
}

// oracleRunCheck is the shared verification core behind OracleCheckTrace
// and OracleTrim. On success it returns the checker (whose marked flags
// record which additions some conflict consumed) and the index of the empty
// learnt clause.
func oracleRunCheck(f *cnf.Formula, t *Trace) (*oracleChecker, int, error) {
	c := newOracleChecker(f)
	// Forward pass: admit records, build the clause timeline, find the
	// first empty-clause addition.
	emptyAt := -1
	for i, rec := range t.Records {
		switch rec.Op {
		case OpLearn:
		case OpDelete:
			c.delete(i, rec.Lits)
			continue
		case OpAxiom:
			return nil, -1, fmt.Errorf("proof: record %d: axiom not allowed in a checked trace", i)
		default:
			return nil, -1, fmt.Errorf("proof: record %d: unknown op %d", i, byte(rec.Op))
		}
		c.byRecord[i] = c.install(rec.Lits)
		if len(rec.Lits) == 0 {
			emptyAt = i
			break
		}
	}
	if emptyAt < 0 {
		return nil, -1, fmt.Errorf("proof: trace does not derive the empty clause")
	}

	// The final obligation: with everything before the empty clause
	// active, unit propagation alone must conflict.
	c.deactivateLast() // the empty clause itself is not an antecedent
	if err := c.rup(nil); err != nil {
		return nil, -1, fmt.Errorf("proof: empty clause: %w", err)
	}

	// Backward sweep.
	for i := emptyAt - 1; i >= 0; i-- {
		rec := t.Records[i]
		if rec.Op == OpDelete {
			c.undelete(i)
			continue
		}
		id := c.byRecord[i]
		c.deactivate(id)
		if !c.marked[id] {
			continue // unused lemma
		}
		if err := c.rup(rec.Lits); err != nil {
			return nil, -1, fmt.Errorf("proof: record %d (%v): %w", i, cnf.Clause(rec.Lits), err)
		}
	}
	return c, emptyAt, nil
}

// oracleChecker is the verification state: a clause database with activity
// flags, two-watched-literal propagation, and antecedent marking.
type oracleChecker struct {
	nVars    int
	clauses  [][]cnf.Lit
	active   []bool
	marked   []bool
	watches  [][]int32 // watches[lit] = ids of clauses watching lit
	units    []int32   // ids of clauses with < 2 literals
	byKey    map[string][]int32
	byRecord map[int]int32 // record index -> clause id
	deleted  map[int]int32 // delete-record index -> deactivated id (or absent)
	lastID   int32

	val    []int8 // 1 true, -1 false, 0 unassigned
	trail  []cnf.Lit
	reason []int32 // per var: clause id forcing it, or -1
	queue  int
}

func newOracleChecker(f *cnf.Formula) *oracleChecker {
	c := &oracleChecker{
		nVars:    f.NumVars,
		byKey:    make(map[string][]int32),
		byRecord: make(map[int]int32),
		deleted:  make(map[int]int32),
		val:      make([]int8, f.NumVars),
		reason:   make([]int32, f.NumVars),
	}
	c.watches = make([][]int32, 2*f.NumVars)
	for _, cl := range f.Clauses {
		c.install(cl)
	}
	return c
}

// install appends a clause (copying it), activates it, and hooks watches.
func (c *oracleChecker) install(lits []cnf.Lit) int32 {
	id := int32(len(c.clauses))
	cl := make([]cnf.Lit, len(lits))
	copy(cl, lits)
	// Sort and drop duplicate literals so the two watches are always
	// distinct; order is irrelevant to RUP.
	slices.Sort(cl)
	cl = slices.Compact(cl)
	c.clauses = append(c.clauses, cl)
	c.active = append(c.active, true)
	c.marked = append(c.marked, false)
	if len(cl) >= 2 {
		c.watches[cl[0]] = append(c.watches[cl[0]], id)
		c.watches[cl[1]] = append(c.watches[cl[1]], id)
	} else {
		c.units = append(c.units, id)
	}
	c.byKey[oracleKey(lits)] = append(c.byKey[oracleKey(lits)], id)
	c.lastID = id
	return id
}

func (c *oracleChecker) delete(recIdx int, lits []cnf.Lit) {
	ids := c.byKey[oracleKey(lits)]
	for i := len(ids) - 1; i >= 0; i-- {
		if c.active[ids[i]] {
			c.active[ids[i]] = false
			c.deleted[recIdx] = ids[i]
			return
		}
	}
	// Deleting a clause that is not active is ignored: the checker's
	// active set stays a superset of the producer's, and RUP is monotone
	// in the clause set.
}

func (c *oracleChecker) undelete(recIdx int) {
	if id, ok := c.deleted[recIdx]; ok {
		c.active[id] = true
	}
}

func (c *oracleChecker) deactivate(id int32) { c.active[id] = false }
func (c *oracleChecker) deactivateLast()     { c.active[c.lastID] = false }

// key returns a canonical map key for a clause (sorted literal set).
func oracleKey(lits []cnf.Lit) string {
	s := make([]cnf.Lit, len(lits))
	copy(s, lits)
	slices.Sort(s)
	b := make([]byte, 0, 4*len(s))
	for _, l := range s {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

// rup asserts the negation of lemma, propagates over the active clauses,
// and requires a conflict; the conflict's antecedents are marked. The
// assignment is fully reset afterwards.
func (c *oracleChecker) rup(lemma []cnf.Lit) error {
	defer c.reset()
	for _, l := range lemma {
		if !c.enqueue(l.Neg(), -1) {
			// The negated lemma is itself contradictory (the lemma is a
			// tautology): trivially valid, nothing to mark.
			return nil
		}
	}
	for _, id := range c.units {
		if !c.active[id] {
			continue
		}
		cl := c.clauses[id]
		if len(cl) == 0 {
			c.markFrom(id)
			return nil
		}
		if !c.enqueue(cl[0], id) {
			c.markConflict(cl[0], id)
			return nil
		}
	}
	if confl := c.propagate(); confl >= 0 {
		c.markFrom(confl)
		return nil
	}
	return fmt.Errorf("not RUP: unit propagation does not conflict")
}

func (c *oracleChecker) enqueue(l cnf.Lit, why int32) bool {
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

func (c *oracleChecker) falsified(l cnf.Lit) bool {
	v := c.val[l.Var()]
	if l.Sign() {
		return v == 1
	}
	return v == -1
}

func (c *oracleChecker) satisfied(l cnf.Lit) bool {
	v := c.val[l.Var()]
	if l.Sign() {
		return v == -1
	}
	return v == 1
}

// propagate runs two-watched-literal unit propagation. It returns the id
// of a conflicting clause, or -1 at fixpoint.
func (c *oracleChecker) propagate() int32 {
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
func (c *oracleChecker) markFrom(confl int32) {
	seen := make(map[cnf.Var]bool)
	var stack []cnf.Lit
	c.marked[confl] = true
	stack = append(stack, c.clauses[confl]...)
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := l.Var()
		if seen[v] {
			continue
		}
		seen[v] = true
		if r := c.reason[v]; r >= 0 {
			c.marked[r] = true
			stack = append(stack, c.clauses[r]...)
		}
	}
}

// markConflict handles a conflict found while asserting unit clauses: the
// unit clause id forcing ¬l plus the reason chain of l.
func (c *oracleChecker) markConflict(l cnf.Lit, id int32) {
	c.marked[id] = true
	if r := c.reason[l.Var()]; r >= 0 {
		c.markFrom(r)
	}
}

func (c *oracleChecker) reset() {
	for _, l := range c.trail {
		c.val[l.Var()] = 0
		c.reason[l.Var()] = -1
	}
	c.trail = c.trail[:0]
	c.queue = 0
}
