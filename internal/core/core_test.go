package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/brute"
	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
)

func lit(i int) cnf.Lit { return cnf.FromDIMACS(i) }

// paperExample2 is the CNF formula of Section 3.3 of the DATE 2008 paper:
// φ = ω1…ω8 = (x1)(¬x1∨¬x2)(x2)(¬x1∨¬x3)(x3)(¬x2∨¬x3)(x1∨¬x4)(¬x1∨x4).
// Its MaxSAT solution is 6 (two clauses must be falsified).
func paperExample2() *cnf.WCNF {
	f := cnf.NewFormula(4)
	f.AddClause(lit(1))
	f.AddClause(lit(-1), lit(-2))
	f.AddClause(lit(2))
	f.AddClause(lit(-1), lit(-3))
	f.AddClause(lit(3))
	f.AddClause(lit(-2), lit(-3))
	f.AddClause(lit(1), lit(-4))
	f.AddClause(lit(-1), lit(4))
	return cnf.FromFormula(f)
}

func allSolvers(o opt.Options) []opt.Solver {
	return []opt.Solver{
		NewMSU1(o),
		NewMSU2(o),
		NewMSU3(o),
		NewMSU4V2(o),
		&MSU4{Opts: o, ReencodeBounds: true, Encoding: card.BDD},
		&MSU4{Opts: o, ReencodeBounds: true, Encoding: card.Sorter},
		&MSU4{Opts: o, ReencodeBounds: true, Encoding: card.Sequential},
		&MSU4{Opts: o, ReencodeBounds: true, Encoding: card.Totalizer},
		&MSU4{Opts: o, SkipAtLeast1: true},
	}
}

func TestMSU4PaperExample(t *testing.T) {
	w := paperExample2()
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(context.Background(), w, nil)
		if r.Status != opt.StatusOptimal {
			t.Fatalf("%s: status %v", s.Name(), r.Status)
		}
		if r.Cost != 2 {
			t.Fatalf("%s: cost = %d, want 2 (MaxSAT solution 6)", s.Name(), r.Cost)
		}
		if got := r.MaxSatisfied(w.NumClauses()); got != 6 {
			t.Fatalf("%s: MaxSatisfied = %d, want 6", s.Name(), got)
		}
		if !opt.VerifyModel(w, r) {
			t.Fatalf("%s: model does not witness cost %d", s.Name(), r.Cost)
		}
	}
}

func TestMSU4PaperExampleIterationShape(t *testing.T) {
	// The paper's §3.3 trace: first core {ω1,ω2,ω3}, then SAT, then core
	// {ω4,ω5,ω6}, terminating with bounds equal. The exact trace depends on
	// solver heuristics, but msu4 must finish such instances within a few
	// iterations and report both SAT and UNSAT outcomes.
	m := NewMSU4V2(opt.Options{})
	r := m.Solve(context.Background(), paperExample2(), nil)
	if r.UnsatCalls < 2 {
		t.Fatalf("expected at least 2 UNSAT iterations (two disjoint cores), got %d", r.UnsatCalls)
	}
	if r.Iterations > 10 {
		t.Fatalf("expected a short run on the paper example, got %d iterations", r.Iterations)
	}
}

func randomWCNF(rng *rand.Rand, vars, clauses int, partial bool) *cnf.WCNF {
	w := cnf.NewWCNF(vars)
	for i := 0; i < clauses; i++ {
		width := 1 + rng.Intn(3)
		c := make([]cnf.Lit, 0, width)
		for j := 0; j < width; j++ {
			c = append(c, cnf.NewLit(cnf.Var(rng.Intn(vars)), rng.Intn(2) == 0))
		}
		if partial && rng.Intn(4) == 0 {
			w.AddHard(c...)
		} else {
			w.AddSoft(1, c...)
		}
	}
	return w
}

func TestAgainstBruteForcePlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	solvers := allSolvers(opt.Options{})
	for iter := 0; iter < 60; iter++ {
		w := randomWCNF(rng, 3+rng.Intn(8), 4+rng.Intn(24), false)
		want, _, feasible := brute.MinCostWCNF(w)
		if !feasible {
			t.Fatal("plain MaxSAT is always feasible")
		}
		for _, s := range solvers {
			r := s.Solve(context.Background(), w, nil)
			if r.Status != opt.StatusOptimal {
				t.Fatalf("iter %d %s: status %v", iter, s.Name(), r.Status)
			}
			if r.Cost != want {
				t.Fatalf("iter %d %s: cost %d, want %d\nclauses: %v",
					iter, s.Name(), r.Cost, want, w.Clauses)
			}
			if !opt.VerifyModel(w, r) {
				t.Fatalf("iter %d %s: model inconsistent with cost", iter, s.Name())
			}
		}
	}
}

func TestAgainstBruteForcePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	solvers := allSolvers(opt.Options{})
	for iter := 0; iter < 60; iter++ {
		w := randomWCNF(rng, 3+rng.Intn(7), 4+rng.Intn(20), true)
		want, _, feasible := brute.MinCostWCNF(w)
		for _, s := range solvers {
			r := s.Solve(context.Background(), w, nil)
			if !feasible {
				if r.Status != opt.StatusUnsat {
					t.Fatalf("iter %d %s: status %v, want UNSAT (hard conflict)",
						iter, s.Name(), r.Status)
				}
				continue
			}
			if r.Status != opt.StatusOptimal {
				t.Fatalf("iter %d %s: status %v", iter, s.Name(), r.Status)
			}
			if r.Cost != want {
				t.Fatalf("iter %d %s: cost %d, want %d\nclauses: %v",
					iter, s.Name(), r.Cost, want, w.Clauses)
			}
			if !opt.VerifyModel(w, r) {
				t.Fatalf("iter %d %s: model inconsistent", iter, s.Name())
			}
		}
	}
}

func TestSatisfiableInstanceCostZero(t *testing.T) {
	w := cnf.NewWCNF(2)
	w.AddSoft(1, lit(1), lit(2))
	w.AddSoft(1, lit(-1))
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(context.Background(), w, nil)
		if r.Status != opt.StatusOptimal || r.Cost != 0 {
			t.Fatalf("%s: got status %v cost %d, want optimal 0", s.Name(), r.Status, r.Cost)
		}
	}
}

func TestHardUnsat(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddHard(lit(1))
	w.AddHard(lit(-1))
	w.AddSoft(1, lit(1))
	for _, s := range allSolvers(opt.Options{}) {
		if r := s.Solve(context.Background(), w, nil); r.Status != opt.StatusUnsat {
			t.Fatalf("%s: got %v, want UNSAT", s.Name(), r.Status)
		}
	}
}

func TestHardUnsatDiscoveredLate(t *testing.T) {
	// Hard clauses that are unsatisfiable only through longer propagation
	// chains, to exercise the non-level-0 hard-unsat paths.
	w := cnf.NewWCNF(4)
	w.AddHard(lit(1), lit(2))
	w.AddHard(lit(1), lit(-2))
	w.AddHard(lit(-1), lit(3))
	w.AddHard(lit(-1), lit(-3))
	w.AddSoft(1, lit(4))
	w.AddSoft(1, lit(-4))
	for _, s := range allSolvers(opt.Options{}) {
		if r := s.Solve(context.Background(), w, nil); r.Status != opt.StatusUnsat {
			t.Fatalf("%s: got %v, want UNSAT", s.Name(), r.Status)
		}
	}
}

func TestEmptySoftClauses(t *testing.T) {
	// Empty soft clauses are unconditionally falsified and must be counted.
	w := cnf.NewWCNF(1)
	w.AddSoft(1)
	w.AddSoft(1)
	w.AddSoft(1, lit(1))
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(context.Background(), w, nil)
		if r.Status != opt.StatusOptimal || r.Cost != 2 {
			t.Fatalf("%s: got status %v cost %d, want optimal 2", s.Name(), r.Status, r.Cost)
		}
	}
}

func TestAllClausesContradictory(t *testing.T) {
	// n unit clauses on the same variable, half positive half negative.
	w := cnf.NewWCNF(1)
	for i := 0; i < 4; i++ {
		w.AddSoft(1, lit(1))
		w.AddSoft(1, lit(-1))
	}
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(context.Background(), w, nil)
		if r.Status != opt.StatusOptimal || r.Cost != 4 {
			t.Fatalf("%s: got status %v cost %d, want optimal 4", s.Name(), r.Status, r.Cost)
		}
	}
}

func TestCancelledContext(t *testing.T) {
	// An already-cancelled context must yield Unknown immediately (not hang,
	// not fabricate an optimum).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := paperExample2()
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(ctx, w, nil)
		if r.Status != opt.StatusUnknown {
			t.Fatalf("%s: got %v, want Unknown under cancelled context", s.Name(), r.Status)
		}
	}
}

func TestExpiredDeadlineContext(t *testing.T) {
	// A context deadline in the past behaves like cancellation.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	w := paperExample2()
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(ctx, w, nil)
		if r.Status != opt.StatusUnknown {
			t.Fatalf("%s: got %v, want Unknown under expired deadline", s.Name(), r.Status)
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddSoft(2, lit(1))
	for _, s := range allSolvers(opt.Options{}) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: weighted input should panic", s.Name())
				}
			}()
			s.Solve(context.Background(), w, nil)
		}()
	}
}

func TestMSU4BoundsMeetTermination(t *testing.T) {
	// Instances engineered to have many disjoint contradictory pairs drive
	// the U == BV termination path.
	w := cnf.NewWCNF(6)
	for v := 1; v <= 6; v++ {
		w.AddSoft(1, lit(v))
		w.AddSoft(1, lit(-v))
	}
	m := NewMSU4V2(opt.Options{})
	r := m.Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 6 {
		t.Fatalf("got status %v cost %d, want optimal 6", r.Status, r.Cost)
	}
	if r.LowerBound != r.Cost {
		t.Fatalf("bounds should meet: lb=%d cost=%d", r.LowerBound, r.Cost)
	}
}

func TestMSU4StatsPopulated(t *testing.T) {
	m := NewMSU4V2(opt.Options{})
	r := m.Solve(context.Background(), paperExample2(), nil)
	// Conflicts may legitimately be zero: with the incremental totalizer
	// bound, the example's UNSAT iterations resolve by propagation into
	// failed assumptions without a single search conflict.
	if r.Iterations == 0 || r.Elapsed <= 0 {
		t.Fatalf("stats not populated: %+v", r)
	}
	if r.SatCalls+r.UnsatCalls != r.Iterations {
		t.Fatalf("call counts %d+%d should equal iterations %d",
			r.SatCalls, r.UnsatCalls, r.Iterations)
	}
}

func TestNames(t *testing.T) {
	o := opt.Options{}
	cases := map[string]opt.Solver{
		"msu1":    NewMSU1(o),
		"msu2":    NewMSU2(o),
		"msu3":    NewMSU3(o),
		"msu4-v2": NewMSU4V2(o),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
	if (&MSU4{ReencodeBounds: true, Encoding: card.Sorter}).Name() != "msu4-sorter" {
		t.Error("derived msu4 name wrong")
	}
}

func TestMSU4LargerStructured(t *testing.T) {
	// A chain of pigeonhole-style conflicts: groups of 3 variables where
	// exactly one of each group's 4 clauses must fail.
	w := cnf.NewWCNF(0)
	base := 0
	groups := 5
	for g := 0; g < groups; g++ {
		a := cnf.PosLit(cnf.Var(base))
		b := cnf.PosLit(cnf.Var(base + 1))
		c := cnf.PosLit(cnf.Var(base + 2))
		w.AddSoft(1, a, b)
		w.AddSoft(1, a.Neg(), b.Neg())
		w.AddSoft(1, a, b.Neg(), c)
		w.AddSoft(1, a.Neg(), b, c.Neg())
		base += 3
	}
	w.NumVars = base
	want, _, _ := brute.MinCostWCNF(w)
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(context.Background(), w, nil)
		if r.Status != opt.StatusOptimal || r.Cost != want {
			t.Fatalf("%s: cost %d, want %d", s.Name(), r.Cost, want)
		}
	}
}

func TestSharedBoundsShortCircuit(t *testing.T) {
	// Closed shared bounds (an external member proved the optimum) make
	// every core-guided algorithm return the shared model without a single
	// SAT call.
	w := paperExample2()
	ref := NewMSU4V2(opt.Options{}).Solve(context.Background(), w, nil)
	if ref.Status != opt.StatusOptimal {
		t.Fatal("reference solve failed")
	}
	shared := opt.NewBounds()
	shared.PublishUB(ref.Cost, ref.Model)
	shared.PublishLB(ref.Cost)
	for _, s := range allSolvers(opt.Options{}) {
		r := s.Solve(context.Background(), w, shared)
		if r.Status != opt.StatusOptimal || r.Cost != ref.Cost {
			t.Fatalf("%s: status %v cost %d, want optimal %d", s.Name(), r.Status, r.Cost, ref.Cost)
		}
		if r.Iterations != 0 {
			t.Fatalf("%s: %d iterations, want 0 (closed bounds short-circuit)", s.Name(), r.Iterations)
		}
		if !opt.VerifyModel(w, r) {
			t.Fatalf("%s: adopted model inconsistent", s.Name())
		}
	}
}

func TestMSU4AdoptsExternalUB(t *testing.T) {
	// An externally published model (e.g. from WalkSAT) tightens msu4's
	// cardinality bound exactly like a locally found one: the run stays
	// correct and its lower bound closes against the adopted cost.
	w := paperExample2()
	ref := NewMSU4V2(opt.Options{}).Solve(context.Background(), w, nil)
	shared := opt.NewBounds()
	shared.PublishUB(ref.Cost, ref.Model)
	r := NewMSU4V2(opt.Options{}).Solve(context.Background(), w, shared)
	if r.Status != opt.StatusOptimal || r.Cost != ref.Cost {
		t.Fatalf("status %v cost %d, want optimal %d", r.Status, r.Cost, ref.Cost)
	}
	if !opt.VerifyModel(w, r) {
		t.Fatal("model inconsistent with cost")
	}
}

// TestMSU4IncrementalVsReencode differentially tests the default
// incremental-totalizer bound maintenance against the guarded re-encoding
// ablation (and brute force) on random unit-weight instances.
func TestMSU4IncrementalVsReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for iter := 0; iter < 120; iter++ {
		vars := 3 + rng.Intn(5)
		w := cnf.NewWCNF(vars)
		for i := 0; i < 4+rng.Intn(14); i++ {
			width := 1 + rng.Intn(3)
			var c []cnf.Lit
			for j := 0; j < width; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(vars)), rng.Intn(2) == 0))
			}
			if rng.Intn(4) == 0 {
				w.AddHard(c...)
			} else {
				w.AddSoft(1, c...)
			}
		}
		want, _, feasible := brute.MinCostWCNF(w)

		inc := &MSU4{}
		ri := inc.Solve(context.Background(), w, nil)
		re := &MSU4{ReencodeBounds: true, Encoding: card.Sorter}
		rr := re.Solve(context.Background(), w, nil)

		if !feasible {
			if ri.Status != opt.StatusUnsat || rr.Status != opt.StatusUnsat {
				t.Fatalf("iter %d: infeasible instance not reported unsat (%v/%v)",
					iter, ri.Status, rr.Status)
			}
			continue
		}
		for name, r := range map[string]opt.Result{"incremental": ri, "reencode": rr} {
			if r.Status != opt.StatusOptimal || r.Cost != want {
				t.Fatalf("iter %d: %s got %v cost %d, want optimal %d\n%v",
					iter, name, r.Status, r.Cost, want, w.Clauses)
			}
			if !opt.VerifyModel(w, r) {
				t.Fatalf("iter %d: %s model inconsistent", iter, name)
			}
		}
	}
}

// TestCoreAlgorithmsPreprocessed differentially tests every core-guided
// algorithm with the soft-aware preprocessing stage on random instances:
// same optimum as brute force, and the returned model must be valid for
// the ORIGINAL formula (reconstruction round-trip).
func TestCoreAlgorithmsPreprocessed(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	solvers := map[string]func() opt.Solver{
		"msu1":  func() opt.Solver { return opt.Preprocessed(NewMSU1(opt.Options{})) },
		"msu2":  func() opt.Solver { return opt.Preprocessed(NewMSU2(opt.Options{})) },
		"msu3":  func() opt.Solver { return opt.Preprocessed(NewMSU3(opt.Options{})) },
		"msu4":  func() opt.Solver { return opt.Preprocessed(&MSU4{}) },
		"wmsu1": func() opt.Solver { return opt.Preprocessed(NewWMSU1(opt.Options{})) },
		"wmsu4": func() opt.Solver { return opt.Preprocessed(NewWMSU4(opt.Options{})) },
	}
	for iter := 0; iter < 60; iter++ {
		vars := 3 + rng.Intn(5)
		w := cnf.NewWCNF(vars)
		for i := 0; i < 4+rng.Intn(12); i++ {
			width := 1 + rng.Intn(3)
			var c []cnf.Lit
			for j := 0; j < width; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(vars)), rng.Intn(2) == 0))
			}
			if rng.Intn(4) == 0 {
				w.AddHard(c...)
			} else {
				w.AddSoft(1, c...)
			}
		}
		want, _, feasible := brute.MinCostWCNF(w)
		for name, mk := range solvers {
			r := mk().Solve(context.Background(), w.Clone(), nil)
			if !feasible {
				if r.Status != opt.StatusUnsat {
					t.Fatalf("iter %d: %s+pre missed hard-unsat: %v", iter, name, r.Status)
				}
				continue
			}
			if r.Status != opt.StatusOptimal || r.Cost != want {
				t.Fatalf("iter %d: %s+pre got %v cost %d, want optimal %d\n%v",
					iter, name, r.Status, r.Cost, want, w.Clauses)
			}
			if !opt.VerifyModel(w, r) {
				t.Fatalf("iter %d: %s+pre model invalid on original formula", iter, name)
			}
		}
	}
}
