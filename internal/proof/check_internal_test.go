package proof

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// TestMarkStampWrap runs a refutation with markFrom's visit stamp about to
// wrap. Whether the stale stamps left in seen are zeros (never visited) or
// ones (the first stamp after the wrap), marking must reach exactly the
// lemmas a fresh checker marks.
func TestMarkStampWrap(t *testing.T) {
	// The pigeonhole formula PHP(4, 3) and a solver's refutation of it.
	const pigeons, holes = 4, 3
	f := cnf.NewFormula(pigeons * holes)
	v := func(p, h int) cnf.Lit { return cnf.PosLit(cnf.Var(p*holes + h)) }
	for p := 0; p < pigeons; p++ {
		var c []cnf.Lit
		for h := 0; h < holes; h++ {
			c = append(c, v(p, h))
		}
		f.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				f.AddClause(v(p, h).Neg(), v(q, h).Neg())
			}
		}
	}
	s := sat.New()
	s.EnsureVars(f.NumVars)
	for _, c := range f.Clauses {
		s.AddClauseFrom(c)
	}
	rec := NewRecorder()
	s.SetProof(rec)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("PHP(4, 3): %v", st)
	}
	tr := rec.Trace()

	fresh := newChecker(f)
	if _, err := fresh.run(tr); err != nil {
		t.Fatalf("fresh checker: %v", err)
	}
	for _, stale := range []uint32{0, 1} {
		c := newChecker(f)
		c.stamp = math.MaxUint32 // the first markFrom wraps
		for v := range c.seen {
			c.seen[v] = stale
		}
		if _, err := c.run(tr); err != nil {
			t.Fatalf("stale stamps %d: %v", stale, err)
		}
		if !slices.Equal(c.marked, fresh.marked) {
			t.Errorf("stale stamps %d: marking across the wrap differs from a fresh checker's", stale)
		}
	}
}
