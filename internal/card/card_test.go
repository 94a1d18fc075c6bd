package card

import (
	"math/bits"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

var allEncodings = []Encoding{BDD, Sorter, Sequential, Totalizer}

// checkAtMostSemantics exhaustively verifies that, for every assignment of
// the n input literals, the encoding is satisfiable iff the constraint
// holds. This is the defining property of an assertive-polarity encoding.
func checkAtMostSemantics(t *testing.T, enc Encoding, n, k int) {
	t.Helper()
	for bitsVal := 0; bitsVal < 1<<uint(n); bitsVal++ {
		s := sat.New()
		inputs := make([]cnf.Lit, n)
		for i := range inputs {
			inputs[i] = cnf.PosLit(s.NewVar())
		}
		AtMost(s, enc, inputs, k)
		for i := range inputs {
			if bitsVal&(1<<uint(i)) != 0 {
				s.AddClause(inputs[i])
			} else {
				s.AddClause(inputs[i].Neg())
			}
		}
		st := s.Solve()
		count := bits.OnesCount(uint(bitsVal))
		want := sat.Sat
		if count > k {
			want = sat.Unsat
		}
		if st != want {
			t.Fatalf("%v AtMost(n=%d,k=%d) inputs=%0*b (count %d): got %v, want %v",
				enc, n, k, n, bitsVal, count, st, want)
		}
	}
}

func TestAtMostSemanticsExhaustive(t *testing.T) {
	for _, enc := range allEncodings {
		enc := enc
		t.Run(enc.String(), func(t *testing.T) {
			for n := 1; n <= 7; n++ {
				for k := 0; k <= n; k++ {
					checkAtMostSemantics(t, enc, n, k)
				}
			}
		})
	}
}

func TestAtMostOneEncodings(t *testing.T) {
	for _, enc := range []Encoding{Pairwise, Ladder} {
		enc := enc
		t.Run(enc.String(), func(t *testing.T) {
			for n := 1; n <= 9; n++ {
				checkAtMostSemantics(t, enc, n, 1)
			}
		})
	}
}

func TestPairwiseRejectsK2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pairwise with k=2 should panic")
		}
	}()
	s := sat.New()
	lits := []cnf.Lit{cnf.PosLit(s.NewVar()), cnf.PosLit(s.NewVar()), cnf.PosLit(s.NewVar())}
	AtMost(s, Pairwise, lits, 2)
}

func checkAtLeastSemantics(t *testing.T, enc Encoding, n, k int) {
	t.Helper()
	for bitsVal := 0; bitsVal < 1<<uint(n); bitsVal++ {
		s := sat.New()
		inputs := make([]cnf.Lit, n)
		for i := range inputs {
			inputs[i] = cnf.PosLit(s.NewVar())
		}
		AtLeast(s, enc, inputs, k)
		for i := range inputs {
			if bitsVal&(1<<uint(i)) != 0 {
				s.AddClause(inputs[i])
			} else {
				s.AddClause(inputs[i].Neg())
			}
		}
		st := s.Solve()
		count := bits.OnesCount(uint(bitsVal))
		want := sat.Sat
		if count < k {
			want = sat.Unsat
		}
		if st != want {
			t.Fatalf("%v AtLeast(n=%d,k=%d) count=%d: got %v, want %v",
				enc, n, k, count, st, want)
		}
	}
}

func TestAtLeastSemanticsExhaustive(t *testing.T) {
	for _, enc := range allEncodings {
		enc := enc
		t.Run(enc.String(), func(t *testing.T) {
			for n := 1; n <= 6; n++ {
				for k := 0; k <= n+1; k++ {
					checkAtLeastSemantics(t, enc, n, k)
				}
			}
		})
	}
}

func TestExactlySemantics(t *testing.T) {
	for _, enc := range allEncodings {
		for n := 1; n <= 5; n++ {
			for k := 0; k <= n; k++ {
				for bitsVal := 0; bitsVal < 1<<uint(n); bitsVal++ {
					s := sat.New()
					inputs := make([]cnf.Lit, n)
					for i := range inputs {
						inputs[i] = cnf.PosLit(s.NewVar())
					}
					Exactly(s, enc, inputs, k)
					for i := range inputs {
						if bitsVal&(1<<uint(i)) != 0 {
							s.AddClause(inputs[i])
						} else {
							s.AddClause(inputs[i].Neg())
						}
					}
					st := s.Solve()
					want := sat.Sat
					if bits.OnesCount(uint(bitsVal)) != k {
						want = sat.Unsat
					}
					if st != want {
						t.Fatalf("%v Exactly(n=%d,k=%d) inputs=%b: got %v, want %v",
							enc, n, k, bitsVal, st, want)
					}
				}
			}
		}
	}
}

func TestAtMostDegenerate(t *testing.T) {
	for _, enc := range allEncodings {
		// k < 0 is unsatisfiable even with no inputs forced.
		s := sat.New()
		lits := []cnf.Lit{cnf.PosLit(s.NewVar())}
		AtMost(s, enc, lits, -1)
		if s.Solve() != sat.Unsat {
			t.Fatalf("%v: AtMost k=-1 must be Unsat", enc)
		}
		// k >= n adds nothing.
		f := cnf.NewFormula(3)
		d := NewFormulaDest(f)
		AtMost(d, enc, []cnf.Lit{cnf.PosLit(0), cnf.PosLit(1)}, 2)
		if f.NumClauses() != 0 {
			t.Fatalf("%v: AtMost k>=n emitted %d clauses", enc, f.NumClauses())
		}
		// AtLeast k > n unsatisfiable.
		s2 := sat.New()
		lits2 := []cnf.Lit{cnf.PosLit(s2.NewVar())}
		AtLeast(s2, enc, lits2, 2)
		if s2.Solve() != sat.Unsat {
			t.Fatalf("%v: AtLeast k>n must be Unsat", enc)
		}
	}
}

func TestAtLeastOneIsPlainClause(t *testing.T) {
	f := cnf.NewFormula(3)
	d := NewFormulaDest(f)
	lits := []cnf.Lit{cnf.PosLit(0), cnf.PosLit(1), cnf.PosLit(2)}
	AtLeast(d, BDD, lits, 1)
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 3 {
		t.Fatalf("AtLeast-1 should emit one ternary clause, got %v", f.Clauses)
	}
}

func TestSorterOutputsSorted(t *testing.T) {
	// For every input assignment, the sorter's outputs must be able to take
	// exactly the unary count pattern: out[i] true iff count > i.
	for n := 1; n <= 8; n++ {
		for bitsVal := 0; bitsVal < 1<<uint(n); bitsVal++ {
			s := sat.New()
			inputs := make([]cnf.Lit, n)
			for i := range inputs {
				inputs[i] = cnf.PosLit(s.NewVar())
			}
			e := &sorterEnc{d: s}
			out := e.Sort(inputs)
			if len(out) != n {
				t.Fatalf("Sort returned %d outputs for %d inputs", len(out), n)
			}
			count := bits.OnesCount(uint(bitsVal))
			for i := range inputs {
				if bitsVal&(1<<uint(i)) != 0 {
					s.AddClause(inputs[i])
				} else {
					s.AddClause(inputs[i].Neg())
				}
			}
			// Force outputs to the exact unary pattern; must be satisfiable
			// (upward polarity allows higher outputs but the semantic value
			// is always consistent).
			for i := range out {
				if i < count {
					s.AddClause(out[i])
				} else {
					s.AddClause(out[i].Neg())
				}
			}
			if st := s.Solve(); st != sat.Sat {
				t.Fatalf("n=%d inputs=%0*b count=%d: unary output pattern unsat",
					n, n, bitsVal, count)
			}
			// And the violating pattern out[count] = true with count true
			// inputs must be blocked in the downward... it is not blocked in
			// upward polarity, so instead check the binding property: forcing
			// out[count-1] false must be unsat when count >= 1.
			if count >= 1 {
				s2 := sat.New()
				inputs2 := make([]cnf.Lit, n)
				for i := range inputs2 {
					inputs2[i] = cnf.PosLit(s2.NewVar())
				}
				e2 := &sorterEnc{d: s2}
				out2 := e2.Sort(inputs2)
				for i := range inputs2 {
					if bitsVal&(1<<uint(i)) != 0 {
						s2.AddClause(inputs2[i])
					} else {
						s2.AddClause(inputs2[i].Neg())
					}
				}
				s2.AddClause(out2[count-1].Neg())
				if st := s2.Solve(); st != sat.Unsat {
					t.Fatalf("n=%d count=%d: out[count-1] must be forced true", n, count)
				}
			}
		}
	}
}

func TestEncodingSizes(t *testing.T) {
	// Sequential should be linear in n for fixed k; sorter O(n log^2 n);
	// BDD O(n*k). Sanity-check relative growth and the reported counters.
	if c := SorterComparators(1); c != 0 {
		t.Fatalf("SorterComparators(1) = %d", c)
	}
	if c := SorterComparators(2); c != 1 {
		t.Fatalf("SorterComparators(2) = %d", c)
	}
	if c := SorterComparators(4); c != 5 {
		t.Fatalf("SorterComparators(4) = %d, want 5 (Batcher)", c)
	}
	if c := SorterComparators(8); c != 19 {
		t.Fatalf("SorterComparators(8) = %d, want 19 (Batcher)", c)
	}
	// Verify the comparator counter matches the formula.
	for _, n := range []int{2, 3, 4, 5, 8, 9, 16} {
		f := cnf.NewFormula(n)
		d := NewFormulaDest(f)
		inputs := make([]cnf.Lit, n)
		for i := range inputs {
			inputs[i] = cnf.PosLit(cnf.Var(i))
		}
		e := &sorterEnc{d: d}
		e.Sort(inputs)
		if e.comparators != SorterComparators(n) {
			t.Fatalf("n=%d: emitted %d comparators, formula says %d",
				n, e.comparators, SorterComparators(n))
		}
	}
	if BDDSize(10, 10) != 0 || BDDSize(10, -1) != 0 {
		t.Fatal("degenerate BDD sizes should be 0")
	}
	if BDDSize(10, 3) <= 0 {
		t.Fatal("BDDSize(10,3) should be positive")
	}
}

func TestIncTotalizerBasic(t *testing.T) {
	s := sat.New()
	inputs := make([]cnf.Lit, 6)
	for i := range inputs {
		inputs[i] = cnf.PosLit(s.NewVar())
	}
	tot := NewIncTotalizer(s, inputs, len(inputs))
	// Force 4 inputs true.
	for i := 0; i < 4; i++ {
		s.AddClause(inputs[i])
	}
	for i := 4; i < 6; i++ {
		s.AddClause(inputs[i].Neg())
	}
	for k := 0; k <= 6; k++ {
		assump, ok := tot.Bound(k)
		var st sat.Status
		if ok {
			st = s.Solve(assump)
		} else {
			st = s.Solve()
		}
		want := sat.Sat
		if 4 > k {
			want = sat.Unsat
		}
		if st != want {
			t.Fatalf("Bound(%d) with 4 true: got %v, want %v", k, st, want)
		}
	}
}

func TestIncTotalizerAddInputs(t *testing.T) {
	s := sat.New()
	first := []cnf.Lit{cnf.PosLit(s.NewVar()), cnf.PosLit(s.NewVar())}
	tot := NewIncTotalizer(s, first, 10)
	more := []cnf.Lit{cnf.PosLit(s.NewVar()), cnf.PosLit(s.NewVar()), cnf.PosLit(s.NewVar())}
	tot.AddInputs(more)
	if tot.Inputs() != 5 {
		t.Fatalf("Inputs = %d, want 5", tot.Inputs())
	}
	// Force 3 of 5 true.
	all := append(append([]cnf.Lit{}, first...), more...)
	for i, l := range all {
		if i < 3 {
			s.AddClause(l)
		} else {
			s.AddClause(l.Neg())
		}
	}
	for k := 0; k < 5; k++ {
		assump, ok := tot.Bound(k)
		if !ok {
			t.Fatalf("Bound(%d) should be expressible", k)
		}
		st := s.Solve(assump)
		want := sat.Sat
		if 3 > k {
			want = sat.Unsat
		}
		if st != want {
			t.Fatalf("after AddInputs, Bound(%d): got %v, want %v", k, st, want)
		}
	}
}

func TestIncTotalizerEmptyThenAdd(t *testing.T) {
	s := sat.New()
	tot := NewIncTotalizer(s, nil, 10)
	if _, ok := tot.Bound(0); ok {
		t.Fatal("empty totalizer has no bounds")
	}
	lits := []cnf.Lit{cnf.PosLit(s.NewVar()), cnf.PosLit(s.NewVar())}
	tot.AddInputs(lits)
	s.AddClause(lits[0])
	s.AddClause(lits[1])
	assump, ok := tot.Bound(1)
	if !ok {
		t.Fatal("Bound(1) should exist")
	}
	if st := s.Solve(assump); st != sat.Unsat {
		t.Fatalf("2 true with bound 1: got %v", st)
	}
}

func TestGuarded(t *testing.T) {
	// Structural: every emitted clause carries the disabling literal.
	f := cnf.NewFormula(3)
	d := NewFormulaDest(f)
	disable := cnf.PosLit(d.NewVar())
	g := Guarded(d, disable)
	if v := g.NewVar(); v != 4 {
		t.Fatalf("NewVar passthrough = %v", v)
	}
	g.AddClause(cnf.PosLit(0), cnf.PosLit(1))
	g.AddClause()
	for _, c := range f.Clauses {
		if c[len(c)-1] != disable {
			t.Fatalf("clause %v missing disable literal %v", c, disable)
		}
	}

	// Semantic: a guarded AtMost-1 over x1..x3 is enforced while assuming
	// ¬disable, and retired by the unit clause {disable}.
	s := sat.New()
	s.EnsureVars(3)
	lits := []cnf.Lit{cnf.PosLit(0), cnf.PosLit(1), cnf.PosLit(2)}
	for _, l := range lits {
		s.AddClause(l) // force all three true: violates AtMost-1
	}
	dis := cnf.PosLit(s.NewVar())
	AtMost(Guarded(s, dis), Pairwise, lits, 1)
	if st := s.Solve(dis.Neg()); st != sat.Unsat {
		t.Fatalf("active guarded constraint: %v, want UNSAT", st)
	}
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("without activation the constraint must not bind: %v", st)
	}
	s.AddClause(dis) // retire
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("retired constraint must not bind: %v", st)
	}
}

func TestFormulaDest(t *testing.T) {
	f := cnf.NewFormula(2)
	d := NewFormulaDest(f)
	v := d.NewVar()
	if v != 2 || f.NumVars != 3 {
		t.Fatalf("NewVar = %v, NumVars = %d", v, f.NumVars)
	}
	if !d.AddClause(cnf.PosLit(v)) {
		t.Fatal("AddClause should report true")
	}
	if f.NumClauses() != 1 {
		t.Fatal("clause not appended")
	}
}
