package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/opt"
)

func TestWMSU4PaperExampleUnweighted(t *testing.T) {
	w := paperExample2()
	r := NewWMSU4(opt.Options{}).Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 2 {
		t.Fatalf("status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
	if !opt.VerifyModel(w, r) {
		t.Fatal("model inconsistent")
	}
}

func TestWMSU4WeightedBasics(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddSoft(5, lit(1))
	w.AddSoft(2, lit(-1))
	r := NewWMSU4(opt.Options{}).Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 2 {
		t.Fatalf("status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
}

func TestWMSU4AgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	for iter := 0; iter < 100; iter++ {
		w := cnf.NewWCNF(3 + rng.Intn(6))
		for i := 0; i < 4+rng.Intn(18); i++ {
			width := 1 + rng.Intn(3)
			c := make([]cnf.Lit, 0, width)
			for j := 0; j < width; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(w.NumVars)), rng.Intn(2) == 0))
			}
			switch {
			case rng.Intn(5) == 0:
				w.AddHard(c...)
			case iter%2 == 0:
				w.AddSoft(cnf.Weight(1+rng.Intn(6)), c...)
			default:
				w.AddSoft(1, c...)
			}
		}
		want, _, feasible := brute.MinCostWCNF(w)
		r := NewWMSU4(opt.Options{}).Solve(context.Background(), w, nil)
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

func TestWMSU4AgreesWithWMSU1(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for iter := 0; iter < 30; iter++ {
		w := cnf.NewWCNF(4 + rng.Intn(5))
		for i := 0; i < 6+rng.Intn(14); i++ {
			c := []cnf.Lit{
				cnf.NewLit(cnf.Var(rng.Intn(w.NumVars)), rng.Intn(2) == 0),
				cnf.NewLit(cnf.Var(rng.Intn(w.NumVars)), rng.Intn(2) == 0),
			}
			w.AddSoft(cnf.Weight(1+rng.Intn(4)), c...)
		}
		a := NewWMSU4(opt.Options{}).Solve(context.Background(), w, nil)
		b := NewWMSU1(opt.Options{}).Solve(context.Background(), w, nil)
		if a.Cost != b.Cost {
			t.Fatalf("iter %d: wmsu4 %d vs wmsu1 %d", iter, a.Cost, b.Cost)
		}
	}
}

func TestWMSU4HardUnsatAndDeadline(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddHard(lit(1))
	w.AddHard(lit(-1))
	w.AddSoft(3, lit(1))
	if r := NewWMSU4(opt.Options{}).Solve(context.Background(), w, nil); r.Status != opt.StatusUnsat {
		t.Fatalf("got %v, want UNSAT", r.Status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w2 := paperExample2()
	if r := NewWMSU4(opt.Options{}).Solve(ctx, w2, nil); r.Status != opt.StatusUnknown {
		t.Fatalf("got %v, want Unknown", r.Status)
	}
}

func TestWMSU4Name(t *testing.T) {
	if NewWMSU4(opt.Options{}).Name() != "wmsu4" {
		t.Fatal("name")
	}
}
