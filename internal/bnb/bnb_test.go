package bnb

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/opt"
)

func lit(i int) cnf.Lit { return cnf.FromDIMACS(i) }

func TestPaperExample2(t *testing.T) {
	// The §3.3 formula: MaxSAT solution 6 of 8 (cost 2).
	f := cnf.NewFormula(4)
	f.AddClause(lit(1))
	f.AddClause(lit(-1), lit(-2))
	f.AddClause(lit(2))
	f.AddClause(lit(-1), lit(-3))
	f.AddClause(lit(3))
	f.AddClause(lit(-2), lit(-3))
	f.AddClause(lit(1), lit(-4))
	f.AddClause(lit(-1), lit(4))
	w := cnf.FromFormula(f)
	r := New().Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 2 {
		t.Fatalf("status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
	if !opt.VerifyModel(w, r) {
		t.Fatal("model inconsistent")
	}
}

func randomWCNF(rng *rand.Rand, vars, clauses int, partial, weighted bool) *cnf.WCNF {
	w := cnf.NewWCNF(vars)
	for i := 0; i < clauses; i++ {
		width := 1 + rng.Intn(3)
		c := make([]cnf.Lit, 0, width)
		for j := 0; j < width; j++ {
			c = append(c, cnf.NewLit(cnf.Var(rng.Intn(vars)), rng.Intn(2) == 0))
		}
		switch {
		case partial && rng.Intn(4) == 0:
			w.AddHard(c...)
		case weighted:
			w.AddSoft(cnf.Weight(1+rng.Intn(4)), c...)
		default:
			w.AddSoft(1, c...)
		}
	}
	return w
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for iter := 0; iter < 80; iter++ {
		partial := iter%2 == 0
		weighted := iter%3 == 0
		w := randomWCNF(rng, 3+rng.Intn(8), 4+rng.Intn(24), partial, weighted)
		want, _, feasible := brute.MinCostWCNF(w)
		r := New().Solve(context.Background(), w, nil)
		if !feasible {
			if r.Status != opt.StatusUnsat {
				t.Fatalf("iter %d: status %v, want UNSAT", iter, r.Status)
			}
			continue
		}
		if r.Status != opt.StatusOptimal {
			t.Fatalf("iter %d: status %v", iter, r.Status)
		}
		if r.Cost != want {
			t.Fatalf("iter %d: cost %d, want %d\n%v", iter, r.Cost, want, w.Clauses)
		}
		if !opt.VerifyModel(w, r) {
			t.Fatalf("iter %d: model inconsistent", iter)
		}
	}
}

func TestUPLBPrunesMore(t *testing.T) {
	// Eight contradictory unit pairs: the unit-propagation lower bound finds
	// all eight disjoint inconsistencies at the root, so the search settles
	// in one node. The trivial distance bound alone needs 511.
	w := cnf.NewWCNF(8)
	for v := 1; v <= 8; v++ {
		w.AddSoft(1, lit(v))
		w.AddSoft(1, lit(-v))
	}
	r := New().Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 8 {
		t.Fatalf("status %v cost %d, want OPTIMAL 8", r.Status, r.Cost)
	}
	if r.Iterations != 1 {
		t.Fatalf("explored %d nodes, want 1: the UP lower bound did not close the root", r.Iterations)
	}
}

func TestHardUnsat(t *testing.T) {
	w := cnf.NewWCNF(2)
	w.AddHard(lit(1), lit(2))
	w.AddHard(lit(-1), lit(2))
	w.AddHard(lit(1), lit(-2))
	w.AddHard(lit(-1), lit(-2))
	w.AddSoft(1, lit(1))
	if r := New().Solve(context.Background(), w, nil); r.Status != opt.StatusUnsat {
		t.Fatalf("got %v, want UNSAT", r.Status)
	}
}

func TestEmptyHardClauseUnsat(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddHard()
	w.AddSoft(1, lit(1))
	if r := New().Solve(context.Background(), w, nil); r.Status != opt.StatusUnsat {
		t.Fatalf("got %v, want UNSAT", r.Status)
	}
}

func TestEmptySoftClauses(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddSoft(2)
	w.AddSoft(1, lit(1))
	r := New().Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 2 {
		t.Fatalf("status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
}

func TestSatisfiableCostZero(t *testing.T) {
	w := cnf.NewWCNF(3)
	w.AddSoft(1, lit(1), lit(2))
	w.AddSoft(1, lit(-1), lit(3))
	r := New().Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 0 {
		t.Fatalf("status %v cost %d, want optimal 0", r.Status, r.Cost)
	}
}

func TestTautologyIgnored(t *testing.T) {
	w := cnf.NewWCNF(2)
	w.AddSoft(1, lit(1), lit(-1))
	w.AddSoft(1, lit(2))
	r := New().Solve(context.Background(), w, nil)
	if r.Cost != 0 {
		t.Fatalf("cost %d, want 0 (tautology always satisfied)", r.Cost)
	}
}

func TestDeadlineAbort(t *testing.T) {
	// A hard random instance with an immediate deadline must return Unknown.
	rng := rand.New(rand.NewSource(9))
	w := randomWCNF(rng, 40, 300, false, false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	r := New().Solve(ctx, w, nil)
	if r.Status == opt.StatusUnsat {
		t.Fatal("plain MaxSAT can never be UNSAT")
	}
	// Either it finished very fast (Optimal) or aborted (Unknown): both are
	// acceptable; what matters is that it returns promptly.
}

func TestName(t *testing.T) {
	if New().Name() != "maxsatz" {
		t.Fatal("name")
	}
}
