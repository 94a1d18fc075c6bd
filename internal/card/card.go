// Package card provides CNF encodings of cardinality constraints
// (AtMost-k, AtLeast-k, Exactly-k over a set of literals).
//
// The DATE 2008 msu4 paper evaluates two encodings taken from Eén &
// Sörensson's minisat+ ("Translating Pseudo-Boolean Constraints into SAT"):
// BDDs (msu4 v1) and odd-even merge sorting networks (msu4 v2). This package
// implements both, plus the sequential counter (the "linear encoding" used
// by msu2/msu3 in the companion report) and the totalizer, which serve as
// ablation points, and pairwise/ladder encodings for the AtMost-1 special
// case.
//
// All encodings are emitted in assertive polarity: they are correct when the
// constraint is asserted as part of the formula (which is how every MaxSAT
// algorithm in this repository uses them). AtLeast-k is reduced to AtMost on
// the negated literals, so a single polarity suffices throughout.
package card

import (
	"fmt"

	"repro/internal/cnf"
)

// Dest receives an encoding: fresh auxiliary variables and clauses.
// *sat.Solver and *FormulaDest both implement it.
type Dest interface {
	NewVar() cnf.Var
	AddClause(lits ...cnf.Lit) bool
}

// Encoding selects a cardinality encoding.
type Encoding int

// Available encodings.
const (
	// BDD encodes the constraint as the Tseitin translation of its reduced
	// ordered BDD — msu4 "v1" in the paper.
	BDD Encoding = iota
	// Sorter encodes via an odd-even merge sorting network — msu4 "v2".
	Sorter
	// Sequential is Sinz's sequential counter (LT-SEQ), the linear encoding
	// referenced for msu2/msu3.
	Sequential
	// Totalizer is Bailleux & Boufkhad's unary totalizer.
	Totalizer
	// Pairwise is the quadratic pairwise encoding; only valid for AtMost-1.
	Pairwise
	// Ladder is the ladder (regular) encoding; only valid for AtMost-1.
	Ladder
)

// String names the encoding as used in reports and solver names
// ("msu4-bdd", "msu4-sorter").
func (e Encoding) String() string {
	switch e {
	case BDD:
		return "bdd"
	case Sorter:
		return "sorter"
	case Sequential:
		return "seq"
	case Totalizer:
		return "totalizer"
	case Pairwise:
		return "pairwise"
	case Ladder:
		return "ladder"
	default:
		return fmt.Sprintf("Encoding(%d)", int(e))
	}
}

// AtMost asserts sum(lits) <= k using the chosen encoding.
//
// Degenerate cases are handled uniformly: k < 0 makes the formula
// unsatisfiable (an empty clause is added); k == 0 forces every literal
// false; k >= len(lits) adds nothing.
func AtMost(d Dest, enc Encoding, lits []cnf.Lit, k int) {
	n := len(lits)
	switch {
	case k < 0:
		d.AddClause() // unsatisfiable
		return
	case k >= n:
		return
	case k == 0:
		for _, l := range lits {
			d.AddClause(l.Neg())
		}
		return
	}
	switch enc {
	case BDD:
		atMostBDD(d, lits, k)
	case Sorter:
		atMostSorter(d, lits, k)
	case Sequential:
		atMostSeq(d, lits, k)
	case Totalizer:
		atMostTotalizer(d, lits, k)
	case Pairwise:
		if k != 1 {
			panic("card: pairwise encoding only supports AtMost-1")
		}
		atMostOnePairwise(d, lits)
	case Ladder:
		if k != 1 {
			panic("card: ladder encoding only supports AtMost-1")
		}
		atMostOneLadder(d, lits)
	default:
		panic("card: unknown encoding")
	}
}

// AtLeast asserts sum(lits) >= k by encoding AtMost(len-k) over the negated
// literals.
func AtLeast(d Dest, enc Encoding, lits []cnf.Lit, k int) {
	n := len(lits)
	switch {
	case k <= 0:
		return
	case k > n:
		d.AddClause() // unsatisfiable
		return
	case k == n:
		for _, l := range lits {
			d.AddClause(l)
		}
		return
	case k == 1:
		d.AddClause(lits...) // plain clause: cheapest possible encoding
		return
	}
	neg := make([]cnf.Lit, n)
	for i, l := range lits {
		neg[i] = l.Neg()
	}
	AtMost(d, enc, neg, n-k)
}

// Exactly asserts sum(lits) == k.
func Exactly(d Dest, enc Encoding, lits []cnf.Lit, k int) {
	AtMost(d, enc, lits, k)
	AtLeast(d, enc, lits, k)
}

// atMostOnePairwise emits the quadratic pairwise AtMost-1 encoding.
func atMostOnePairwise(d Dest, lits []cnf.Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			d.AddClause(lits[i].Neg(), lits[j].Neg())
		}
	}
}

// atMostOneLadder emits the ladder (a.k.a. regular) AtMost-1 encoding with
// n-1 auxiliary variables and O(n) clauses.
func atMostOneLadder(d Dest, lits []cnf.Lit) {
	n := len(lits)
	if n <= 4 {
		atMostOnePairwise(d, lits)
		return
	}
	// y_i = "some literal among lits[0..i] is true"
	y := make([]cnf.Lit, n-1)
	for i := range y {
		y[i] = cnf.PosLit(d.NewVar())
	}
	// lits[i] -> y[i] for i < n-1
	for i := 0; i < n-1; i++ {
		d.AddClause(lits[i].Neg(), y[i])
	}
	// y[i-1] -> y[i]
	for i := 1; i < n-1; i++ {
		d.AddClause(y[i-1].Neg(), y[i])
	}
	// lits[i] ∧ y[i-1] -> false
	for i := 1; i < n; i++ {
		d.AddClause(lits[i].Neg(), y[i-1].Neg())
	}
}

// atMostSeq emits Sinz's sequential counter for sum(lits) <= k
// (1 <= k < len(lits)).
func atMostSeq(d Dest, lits []cnf.Lit, k int) {
	n := len(lits)
	// s[i][j]: the prefix lits[0..i] contains at least j+1 true literals.
	// Rows are allocated for i = 0 .. n-2 only; the last input contributes
	// just the overflow clause.
	s := make([][]cnf.Lit, n-1)
	for i := range s {
		row := make([]cnf.Lit, k)
		for j := range row {
			row[j] = cnf.PosLit(d.NewVar())
		}
		s[i] = row
	}
	// Base: x_0 -> s[0][0]; higher counts of a 1-prefix are impossible but
	// need no clause in assertive polarity.
	d.AddClause(lits[0].Neg(), s[0][0])
	for i := 1; i < n-1; i++ {
		// x_i -> s[i][0]
		d.AddClause(lits[i].Neg(), s[i][0])
		// s[i-1][j] -> s[i][j]
		for j := 0; j < k; j++ {
			d.AddClause(s[i-1][j].Neg(), s[i][j])
		}
		// x_i ∧ s[i-1][j-1] -> s[i][j]
		for j := 1; j < k; j++ {
			d.AddClause(lits[i].Neg(), s[i-1][j-1].Neg(), s[i][j])
		}
		// overflow: x_i ∧ s[i-1][k-1] -> ⊥
		d.AddClause(lits[i].Neg(), s[i-1][k-1].Neg())
	}
	// overflow for the last input
	d.AddClause(lits[n-1].Neg(), s[n-2][k-1].Neg())
}

// guardedDest appends a fixed disabling literal to every emitted clause.
type guardedDest struct {
	d       Dest
	disable cnf.Lit
}

func (g guardedDest) NewVar() cnf.Var { return g.d.NewVar() }

func (g guardedDest) AddClause(lits ...cnf.Lit) bool {
	out := make([]cnf.Lit, len(lits)+1)
	copy(out, lits)
	out[len(lits)] = g.disable
	return g.d.AddClause(out...)
}

// Guarded wraps d so that every emitted clause carries the extra literal
// `disable`. The encoded constraint is then switchable: assuming
// disable.Neg() activates it, while adding the unit clause {disable}
// permanently satisfies every clause of the encoding, retiring it.
//
// msu4's ReencodeBounds mode (the paper's v1 and v2, which Table 1 and
// Figure 3 run as msu4-bdd and msu4-sorter) uses this to keep only its
// latest upper-bound cardinality constraint active instead of accumulating
// one permanent encoding per SAT iteration; the served msu4-v2 maintains a
// single incremental totalizer instead and never retracts anything.
func Guarded(d Dest, disable cnf.Lit) Dest {
	return guardedDest{d: d, disable: disable}
}

// FormulaDest adapts a *cnf.Formula as an encoding destination, for tests
// and for callers that assemble CNF before handing it to a solver.
type FormulaDest struct {
	F *cnf.Formula
}

// NewFormulaDest wraps f.
func NewFormulaDest(f *cnf.Formula) *FormulaDest { return &FormulaDest{F: f} }

// NewVar allocates a fresh variable by growing the formula's variable count.
func (d *FormulaDest) NewVar() cnf.Var {
	v := cnf.Var(d.F.NumVars)
	d.F.NumVars++
	return v
}

// AddClause appends the clause to the formula. It always reports true; the
// formula representation cannot detect level-0 conflicts.
func (d *FormulaDest) AddClause(lits ...cnf.Lit) bool {
	d.F.AddClause(lits...)
	return true
}
