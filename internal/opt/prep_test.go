package opt

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/sat"
)

func plit(i int) cnf.Lit { return cnf.FromDIMACS(i) }

func TestPrepRewriteShape(t *testing.T) {
	w := cnf.NewWCNF(4)
	w.AddHard(plit(1), plit(2))
	w.AddSoft(1, plit(3), plit(4)) // non-unit: gets a selector
	w.AddSoft(2, plit(-3))         // unit: kept, variable frozen
	w.AddSoft(3)                   // empty: constant cost
	p := newPrep(w, selectors)
	if p.unsat {
		t.Fatal("satisfiable hard clauses reported unsat")
	}
	out := p.out
	if out.NumVars != 5 {
		t.Fatalf("want 4 original + 1 selector variables, got %d", out.NumVars)
	}
	soft := 0
	for _, c := range out.Clauses {
		if c.Hard() {
			continue
		}
		soft++
		if len(c.Clause) > 1 {
			t.Fatalf("rewritten soft clause is not unit/empty: %v", c.Clause)
		}
	}
	if soft != 3 {
		t.Fatalf("want 3 rewritten softs, got %d", soft)
	}
	if out.SoftWeightSum() != w.SoftWeightSum() {
		t.Fatalf("soft weight changed: %d != %d", out.SoftWeightSum(), w.SoftWeightSum())
	}
}

func TestPrepFoldsFixedSelectors(t *testing.T) {
	// Hard (x1) makes the soft (¬x1) unsatisfiable — its weight is always
	// paid — and the soft (x1) free — it disappears.
	w := cnf.NewWCNF(1)
	w.AddHard(plit(1))
	w.AddSoft(5, plit(-1))
	w.AddSoft(7, plit(1))
	p := newPrep(w, selectors)
	out := p.out
	var softs []cnf.WClause
	for _, c := range out.Clauses {
		if !c.Hard() {
			softs = append(softs, c)
		}
	}
	if len(softs) != 1 || len(softs[0].Clause) != 0 || softs[0].Weight != 5 {
		t.Fatalf("want exactly the always-paid weight-5 empty soft, got %v", softs)
	}
}

func TestPrepHardUnsat(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddHard(plit(1))
	w.AddHard(plit(-1))
	w.AddSoft(1, plit(1))
	p := newPrep(w, selectors)
	if !p.unsat {
		t.Fatal("conflicting hard clauses not detected")
	}
}

// solvePrep finds an optimal model of the rewritten formula by brute force
// over its clauses (hards as constraints, softs as objective).
func solvePrep(t *testing.T, out *cnf.WCNF) (cnf.Weight, cnf.Assignment, bool) {
	t.Helper()
	return brute.MinCostWCNF(out)
}

func TestPrepPreservesOptimumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 400; iter++ {
		vars := 2 + rng.Intn(6)
		w := cnf.NewWCNF(vars)
		weighted := rng.Intn(2) == 0
		for i := 0; i < 2+rng.Intn(12); i++ {
			width := 1 + rng.Intn(3)
			var c []cnf.Lit
			for j := 0; j < width; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(vars)), rng.Intn(2) == 0))
			}
			switch {
			case rng.Intn(3) == 0:
				w.AddHard(c...)
			case weighted:
				w.AddSoft(cnf.Weight(1+rng.Intn(4)), c...)
			default:
				w.AddSoft(1, c...)
			}
		}
		wantCost, _, wantFeasible := brute.MinCostWCNF(w)
		p := newPrep(w, selectors)
		if p.unsat {
			if wantFeasible {
				t.Fatalf("iter %d: prep unsat on feasible instance", iter)
			}
			continue
		}
		gotCost, gotModel, gotFeasible := solvePrep(t, p.out)
		if gotFeasible != wantFeasible {
			t.Fatalf("iter %d: feasibility drift (got %v want %v)", iter, gotFeasible, wantFeasible)
		}
		if !wantFeasible {
			continue
		}
		if gotCost != wantCost {
			t.Fatalf("iter %d: optimum drift: rewritten %d, original %d\n%v",
				iter, gotCost, wantCost, w.Clauses)
		}
		m := p.restore(gotModel)
		cost, hardOK := w.CostOf(m)
		if !hardOK {
			t.Fatalf("iter %d: restored model violates hard clauses", iter)
		}
		if cost != wantCost {
			t.Fatalf("iter %d: restored model costs %d, optimum %d", iter, cost, wantCost)
		}
		if got := p.score(m); got != cost {
			t.Fatalf("iter %d: Score %d disagrees with CostOf %d", iter, got, cost)
		}
	}
}

// TestPrepSolveRoundTrip runs an actual SAT solver over the rewritten hard
// clauses with all rewritten softs enforced relaxable — the integration
// surface every optimizer uses — and checks that bounds published on the
// rewritten formula reach the caller's bounds original-space.
func TestPrepSolveRoundTrip(t *testing.T) {
	w := cnf.NewWCNF(6)
	w.AddHard(plit(1), plit(2), plit(3))
	w.AddHard(plit(-1), plit(4))
	w.AddSoft(1, plit(-4), plit(5))
	w.AddSoft(1, plit(-2), plit(6))
	w.AddSoft(1, plit(-3))
	p := newPrep(w, selectors)
	out := p.out

	s := sat.New()
	s.EnsureVars(out.NumVars)
	for _, c := range out.Clauses {
		if c.Hard() {
			if !s.AddClauseFrom(c.Clause) {
				t.Fatal("hard conflict")
			}
		}
	}
	if s.Solve() != sat.Sat {
		t.Fatal("rewritten hards unsatisfiable")
	}
	model := make(cnf.Assignment, out.NumVars)
	copy(model, s.Model())

	shared := NewBounds()
	inner := p.bounds(shared)
	innerCost, _ := out.CostOf(model)
	inner.PublishUB(innerCost, model)
	inner.PublishLB(1)
	cost, m, ok := shared.Best()
	if !ok {
		t.Fatal("publish lost")
	}
	if cost > innerCost {
		t.Fatalf("lifted cost %d above the rewritten cost %d", cost, innerCost)
	}
	if lb, ok := shared.LB(); !ok || lb != 1 {
		t.Fatalf("lower bound not forwarded: %d %v", lb, ok)
	}
	if len(m) != 6 {
		t.Fatalf("published witness not original-space: len %d", len(m))
	}
	if c2, hardOK := w.CostOf(m); !hardOK || c2 != cost {
		t.Fatalf("published witness inconsistent: cost %d recomputed %d hardOK %v", cost, c2, hardOK)
	}
}

func TestPrepKeepSoftsMode(t *testing.T) {
	// KeepSofts: softs stay verbatim (modulo fixed values), their
	// variables are frozen, and only hard structure simplifies.
	w := cnf.NewWCNF(5)
	w.AddHard(plit(1))           // fixes x1
	w.AddHard(plit(-1), plit(4)) // propagates x4
	w.AddSoft(2, plit(-1), plit(2), plit(3))
	w.AddSoft(3, plit(-4), plit(5))
	p := newPrep(w, keepSofts)
	out := p.out
	if out.NumVars != 5 {
		t.Fatalf("KeepSofts must not add variables, got %d", out.NumVars)
	}
	var softs []cnf.WClause
	for _, c := range out.Clauses {
		if !c.Hard() {
			softs = append(softs, c)
		}
	}
	// x1 fixed true: first soft loses ¬x1; x4 fixed true: second loses ¬x4.
	if len(softs) != 2 {
		t.Fatalf("want both softs kept, got %v", softs)
	}
	for _, c := range softs {
		for _, l := range c.Clause {
			if v := l.Var(); v == 0 || v == 3 {
				t.Fatalf("fixed variable survives in kept soft: %v", c.Clause)
			}
		}
	}

	// Differential: optimum preserved and restored models rescore exactly.
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 200; iter++ {
		vars := 2 + rng.Intn(6)
		rw := cnf.NewWCNF(vars)
		for i := 0; i < 2+rng.Intn(12); i++ {
			width := 1 + rng.Intn(3)
			var c []cnf.Lit
			for j := 0; j < width; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(vars)), rng.Intn(2) == 0))
			}
			if rng.Intn(3) == 0 {
				rw.AddHard(c...)
			} else {
				rw.AddSoft(cnf.Weight(1+rng.Intn(3)), c...)
			}
		}
		wantCost, _, wantFeasible := brute.MinCostWCNF(rw)
		kp := newPrep(rw, keepSofts)
		if kp.unsat {
			if wantFeasible {
				t.Fatalf("iter %d: KeepSofts unsat on feasible instance", iter)
			}
			continue
		}
		gotCost, gotModel, gotFeasible := brute.MinCostWCNF(kp.out)
		if gotFeasible != wantFeasible {
			t.Fatalf("iter %d: feasibility drift", iter)
		}
		if !wantFeasible {
			continue
		}
		if gotCost != wantCost {
			t.Fatalf("iter %d: optimum drift %d != %d\n%v", iter, gotCost, wantCost, rw.Clauses)
		}
		m := kp.restore(gotModel)
		if cost, hardOK := rw.CostOf(m); !hardOK || cost != wantCost {
			t.Fatalf("iter %d: restored cost %d (hardOK %v), want %d", iter, cost, hardOK, wantCost)
		}
	}
}

// TestPrepBoundsConcurrent publishes into the private bounds from several
// goroutines at once, as the members of a preprocessed portfolio do: the
// caller's bounds end at the lifted best model and the best lower bound.
func TestPrepBoundsConcurrent(t *testing.T) {
	w := cnf.NewWCNF(4)
	w.AddHard(plit(1), plit(2))
	w.AddSoft(1, plit(-1), plit(3))
	w.AddSoft(2, plit(-2), plit(4))
	w.AddSoft(3, plit(-3), plit(-4))
	p := newPrep(w, selectors)
	cost, model, _ := brute.MinCostWCNF(p.out)
	want := p.score(p.restore(model))
	shared := NewBounds()
	inner := p.bounds(shared)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := cost + 50; c >= cost; c-- {
				inner.PublishUB(c, model)
				inner.PublishLB(2*cost - c)
			}
		}()
	}
	wg.Wait()
	if ub, ok := shared.UB(); !ok || ub != want {
		t.Fatalf("UB %d (%v), want the lifted optimum %d", ub, ok, want)
	}
	if lb, ok := shared.LB(); !ok || lb != cost {
		t.Fatalf("LB %d (%v), want %d", lb, ok, cost)
	}
}

// stubSolver records what Preprocessed hands the optimizer and solves the
// formula it was given by brute force.
type stubSolver struct {
	keep   bool
	called bool
	vars   int
	bounds *Bounds
}

func (s *stubSolver) Name() string    { return "stub" }
func (s *stubSolver) KeepSofts() bool { return s.keep }
func (s *stubSolver) Solve(_ context.Context, w *cnf.WCNF, shared *Bounds) Result {
	s.called, s.vars, s.bounds = true, w.NumVars, shared
	cost, m, _ := brute.MinCostWCNF(w)
	shared.PublishUB(cost, m)
	return Result{Status: StatusOptimal, Cost: cost, LowerBound: cost, Model: m}
}

// TestPreprocessed covers the wrapper's boundary: the mode follows
// KeepSofts, the optimizer gets private bounds only when the caller passes
// some, and results and lifted bounds are original-space.
func TestPreprocessed(t *testing.T) {
	w := cnf.NewWCNF(3)
	w.AddHard(plit(1), plit(2))
	w.AddSoft(1, plit(-1), plit(3))
	w.AddSoft(2, plit(-2), plit(3))
	for _, keep := range []bool{false, true} {
		stub := &stubSolver{keep: keep}
		s := Preprocessed(stub)
		if s.Name() != "stub" {
			t.Fatalf("name %q", s.Name())
		}
		r := s.Solve(context.Background(), w, nil)
		if wantVars := map[bool]int{false: 5, true: 3}[keep]; stub.vars != wantVars {
			t.Fatalf("keep=%v: optimizer saw %d variables, want %d", keep, stub.vars, wantVars)
		}
		if stub.bounds != nil {
			t.Fatalf("keep=%v: unobserved solve handed bounds", keep)
		}
		if cost, hardOK := w.CostOf(r.Model); len(r.Model) != 3 || !hardOK || cost != r.Cost {
			t.Fatalf("keep=%v: result not original-space: %v cost %d", keep, r.Model, r.Cost)
		}

		shared := NewBounds()
		r = Preprocessed(stub).Solve(context.Background(), w, shared)
		if stub.bounds == nil || stub.bounds == shared {
			t.Fatalf("keep=%v: observed solve must get private bounds", keep)
		}
		if ub, ok := shared.UB(); !ok || ub != r.Cost {
			t.Fatalf("keep=%v: lifted UB %d (%v), result cost %d", keep, ub, ok, r.Cost)
		}
	}

	unsat := cnf.NewWCNF(1)
	unsat.AddHard(plit(1))
	unsat.AddHard(plit(-1))
	unsat.AddSoft(1, plit(1))
	stub := &stubSolver{}
	if r := Preprocessed(stub).Solve(context.Background(), unsat, NewBounds()); r.Status != StatusUnsat || stub.called {
		t.Fatalf("hard-UNSAT: status %v, optimizer called %v", r.Status, stub.called)
	}
}

// TestPreprocessedUnprovedKeepsLiftedBest: a model lifted into the
// caller's bounds can rescore below the optimizer's final incumbent, whose
// rewritten cost is lower. An unproved result must not report the costlier
// one.
func TestPreprocessedUnprovedKeepsLiftedBest(t *testing.T) {
	w := cnf.NewWCNF(3)
	w.AddSoft(1, plit(3), plit(-2))
	w.AddSoft(1, plit(1), plit(-2))
	w.AddSoft(1, plit(3))
	p := newPrep(w, selectors)
	// Find models a and b of the rewritten formula with b cheaper there
	// and a cheaper once restored.
	var models []cnf.Assignment
	for bits := 0; bits < 1<<p.out.NumVars; bits++ {
		m := make(cnf.Assignment, p.out.NumVars)
		for v := range m {
			m[v] = bits>>v&1 == 1
		}
		if _, hardOK := p.out.CostOf(m); hardOK {
			models = append(models, m)
		}
	}
	inner := func(m cnf.Assignment) cnf.Weight { c, _ := p.out.CostOf(m); return c }
	lifted := func(m cnf.Assignment) cnf.Weight { return p.score(p.restore(m)) }
	var a, b cnf.Assignment
	for _, x := range models {
		for _, y := range models {
			if inner(y) < inner(x) && lifted(x) < lifted(y) {
				a, b = x, y
			}
		}
	}
	if a == nil {
		t.Fatal("no such pair of models")
	}
	stub := solverFunc(func(shared *Bounds) Result {
		shared.PublishUB(inner(a), a)
		shared.PublishUB(inner(b), b)
		return Result{Status: StatusUnknown, Cost: inner(b), Model: b}
	})
	r := Preprocessed(stub).Solve(context.Background(), w, NewBounds())
	if r.Cost != lifted(a) {
		t.Fatalf("unproved result costs %d, the caller's bounds hold %d", r.Cost, lifted(a))
	}
	if cost, hardOK := w.CostOf(r.Model); !hardOK || cost != r.Cost {
		t.Fatalf("model does not witness cost %d", r.Cost)
	}
}

// solverFunc is an optimizer that answers with f(shared).
type solverFunc func(shared *Bounds) Result

func (f solverFunc) Name() string { return "func" }
func (f solverFunc) Solve(_ context.Context, _ *cnf.WCNF, shared *Bounds) Result {
	return f(shared)
}
