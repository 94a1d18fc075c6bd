package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/opt"
)

func TestOLLPaperExampleUnweighted(t *testing.T) {
	w := paperExample2()
	r := NewOLL(opt.Options{}).Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 2 {
		t.Fatalf("status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
	if !opt.VerifyModel(w, r) {
		t.Fatal("model inconsistent")
	}
}

func TestOLLWeightedBasics(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddSoft(5, lit(1))
	w.AddSoft(2, lit(-1))
	r := NewOLL(opt.Options{}).Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 2 {
		t.Fatalf("status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
	if !opt.VerifyModel(w, r) {
		t.Fatal("model inconsistent")
	}
}

// randWeighted builds a small random weighted partial MaxSAT instance.
func randWeighted(rng *rand.Rand) *cnf.WCNF {
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
		default:
			w.AddSoft(cnf.Weight(1+rng.Intn(9)), c...)
		}
	}
	return w
}

// TestOLLAgainstBruteForce is the main differential suite: the engine must
// agree with brute force on random weighted instances, with and without
// preprocessing and with an exhaustion budget too small to finish a probe.
func TestOLLAgainstBruteForce(t *testing.T) {
	solvers := []opt.Solver{
		NewOLL(opt.Options{}),
		opt.Preprocessed(NewOLL(opt.Options{})),
		&OLL{ExhaustConflicts: 1},
	}
	rng := rand.New(rand.NewSource(90210))
	for iter := 0; iter < 120; iter++ {
		w := randWeighted(rng)
		want, _, feasible := brute.MinCostWCNF(w)
		for si, solver := range solvers {
			r := solver.Solve(context.Background(), w, nil)
			if !feasible {
				if r.Status != opt.StatusUnsat {
					t.Fatalf("iter %d solver %d: status %v, want UNSAT", iter, si, r.Status)
				}
				continue
			}
			if r.Status != opt.StatusOptimal {
				t.Fatalf("iter %d solver %d: status %v", iter, si, r.Status)
			}
			if r.Cost != want {
				t.Fatalf("iter %d solver %d: cost %d, want %d\n%v", iter, si, r.Cost, want, w.Clauses)
			}
			if !opt.VerifyModel(w, r) {
				t.Fatalf("iter %d solver %d: model inconsistent", iter, si)
			}
			if r.LowerBound != r.Cost {
				t.Fatalf("iter %d solver %d: optimal with lb %d != cost %d", iter, si, r.LowerBound, r.Cost)
			}
		}
	}
}

func TestOLLAgreesWithWMSU4(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for iter := 0; iter < 40; iter++ {
		w := cnf.NewWCNF(4 + rng.Intn(5))
		for i := 0; i < 6+rng.Intn(14); i++ {
			c := []cnf.Lit{
				cnf.NewLit(cnf.Var(rng.Intn(w.NumVars)), rng.Intn(2) == 0),
				cnf.NewLit(cnf.Var(rng.Intn(w.NumVars)), rng.Intn(2) == 0),
			}
			w.AddSoft(cnf.Weight(1+rng.Intn(4)), c...)
		}
		a := NewOLL(opt.Options{}).Solve(context.Background(), w, nil)
		b := NewWMSU4(opt.Options{}).Solve(context.Background(), w, nil)
		if a.Cost != b.Cost {
			t.Fatalf("iter %d: oll %d vs wmsu4 %d", iter, a.Cost, b.Cost)
		}
	}
}

// ladder builds the hand-built weight-ladder instance of the stratification
// and hardening unit suite: n conflicting unit pairs over one variable each,
// pair i weighted (base^i, 1) — the cheap side of every pair is falsified in
// the optimum, so cost = n and the weight profile is maximally diverse.
func ladder(n int, base cnf.Weight) *cnf.WCNF {
	w := cnf.NewWCNF(n)
	wt := cnf.Weight(1)
	for i := 0; i < n; i++ {
		w.AddSoft(wt, cnf.PosLit(cnf.Var(i)))
		w.AddSoft(1, cnf.NegLit(cnf.Var(i)))
		wt *= base
	}
	return w
}

func TestOLLStratificationLadder(t *testing.T) {
	// Broad levels: 6 items at weight 100, then unit-weight conflicts.
	// Stratification must solve the heavy stratum first (Probe.Strata > 1)
	// and still prove the optimum.
	w := cnf.NewWCNF(8)
	for i := 0; i < 6; i++ {
		w.AddSoft(100, cnf.PosLit(cnf.Var(i)))
	}
	w.AddSoft(1, cnf.PosLit(cnf.Var(6)))
	w.AddSoft(1, cnf.NegLit(cnf.Var(6)))
	w.AddSoft(1, cnf.PosLit(cnf.Var(7)))
	w.AddSoft(1, cnf.NegLit(cnf.Var(7)))
	probe := &OLLProbe{}
	m := &OLL{Probe: probe}
	r := m.Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 2 {
		t.Fatalf("got %v, want optimal 2", r)
	}
	if probe.Strata < 2 {
		t.Fatalf("strata %d, want >= 2 (heavy level first)", probe.Strata)
	}

	// A fully diverse ladder (all weights distinct) merges into one
	// stratum: one SAT call per near-singleton level would cost more than
	// it buys.
	probe2 := &OLLProbe{}
	m2 := &OLL{Probe: probe2}
	r2 := m2.Solve(context.Background(), ladder(6, 3), nil)
	if r2.Status != opt.StatusOptimal || r2.Cost != 6 {
		t.Fatalf("ladder: got %v, want optimal 6", r2)
	}
	if probe2.Strata != 1 {
		t.Fatalf("ladder strata %d, want 1 (diversity heuristic merges distinct levels)", probe2.Strata)
	}
}

func TestOLLLadderAllMechanisms(t *testing.T) {
	// Weight ladders exercise residual-weight bookkeeping hard: the engine,
	// with stratification, hardening and exhaustion all running, must agree
	// with brute force on all of them.
	for _, n := range []int{2, 4, 6} {
		for _, base := range []cnf.Weight{1, 2, 7} {
			w := ladder(n, base)
			want, _, _ := brute.MinCostWCNF(w)
			r := NewOLL(opt.Options{}).Solve(context.Background(), w, nil)
			if r.Status != opt.StatusOptimal || r.Cost != want {
				t.Fatalf("n=%d base=%d: got %v, want optimal %d", n, base, r, want)
			}
		}
	}
}

func TestOLLHardeningFires(t *testing.T) {
	// One heavy soft that must hold and a sea of unit conflicts: after the
	// first model (UB small) any core raises LB enough that the heavy
	// assumption's weight exceeds UB − LB and hardening fires.
	w := cnf.NewWCNF(5)
	w.AddSoft(1000, cnf.PosLit(0))
	for i := 1; i < 5; i++ {
		w.AddSoft(1, cnf.PosLit(cnf.Var(i)))
		w.AddSoft(1, cnf.NegLit(cnf.Var(i)))
	}
	probe := &OLLProbe{}
	m := &OLL{Probe: probe}
	r := m.Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 4 {
		t.Fatalf("got %v, want optimal 4", r)
	}
	if probe.Hardened == 0 {
		t.Fatal("hardening never fired on the heavy soft")
	}
	if !opt.VerifyModel(w, r) {
		t.Fatal("model inconsistent")
	}
}

func TestOLLExhaustionAndSumCores(t *testing.T) {
	// Soft pigeonhole: n+2 pigeons into n holes, all placement clauses
	// soft. The optimum falsifies exactly 2, the first core is re-assumed
	// at a higher bound (exhaustion or a core over the sum output).
	n := 3
	w := cnf.NewWCNF(n * (n + 2))
	at := func(p, h int) cnf.Lit { return cnf.PosLit(cnf.Var(p*n + h)) }
	for p := 0; p < n+2; p++ {
		c := make([]cnf.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = at(p, h)
		}
		w.AddSoft(3, c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n+2; p1++ {
			for p2 := p1 + 1; p2 < n+2; p2++ {
				w.AddHard(at(p1, h).Neg(), at(p2, h).Neg())
			}
		}
	}
	probe := &OLLProbe{}
	m := &OLL{Probe: probe}
	r := m.Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 6 {
		t.Fatalf("got %v, want optimal 6", r)
	}
	if probe.ExhaustRounds == 0 && probe.SumCores == 0 {
		t.Fatal("neither exhaustion nor a core over a sum output fired on soft pigeonhole")
	}

	// Cores over cores: on the BLO selection family exhaustion cannot
	// settle every totalizer alone, so later cores contain totalizer
	// outputs of earlier ones.
	in := gen.SelectionWeighted(5, 4, 2)
	probe2 := &OLLProbe{}
	m2 := &OLL{Probe: probe2}
	r2 := m2.Solve(context.Background(), in.W, nil)
	if r2.Status != opt.StatusOptimal || r2.Cost != in.KnownCost {
		t.Fatalf("%s: got %v, want optimal %d", in.Name, r2, in.KnownCost)
	}
	if probe2.SumCores == 0 {
		t.Fatalf("%s: no core ever contained a totalizer output", in.Name)
	}
}

func TestOLLPublishesBounds(t *testing.T) {
	// LB events must be published to the shared bounds after every core.
	w := ladder(5, 2)
	var lbEvents int
	shared := opt.NewBounds()
	shared.SetObserver(func(e opt.BoundsEvent) {
		if e.HasLB && e.LB > 0 {
			lbEvents++
		}
	})
	r := NewOLL(opt.Options{}).Solve(context.Background(), w, shared)
	if r.Status != opt.StatusOptimal || r.Cost != 5 {
		t.Fatalf("got %v, want optimal 5", r)
	}
	if lbEvents == 0 {
		t.Fatal("no lower-bound improvements were published")
	}
	if lb, ok := shared.LB(); !ok || lb != 5 {
		t.Fatalf("shared LB %d ok=%v, want 5", lb, ok)
	}
}

func TestOLLAdoptsSharedUB(t *testing.T) {
	// A shared incumbent equal to the optimum lets OLL finish by closing
	// the bounds instead of finding its own model.
	w := ladder(4, 2)
	want, model, _ := brute.MinCostWCNF(w)
	shared := opt.NewBounds()
	shared.PublishUB(want, model)
	r := NewOLL(opt.Options{}).Solve(context.Background(), w, shared)
	if r.Status != opt.StatusOptimal || r.Cost != want {
		t.Fatalf("got %v, want optimal %d", r, want)
	}
}

func TestOLLHardUnsatAndDeadline(t *testing.T) {
	w := cnf.NewWCNF(1)
	w.AddHard(lit(1))
	w.AddHard(lit(-1))
	w.AddSoft(3, lit(1))
	if r := NewOLL(opt.Options{}).Solve(context.Background(), w, nil); r.Status != opt.StatusUnsat {
		t.Fatalf("got %v, want UNSAT", r.Status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w2 := paperExample2()
	if r := NewOLL(opt.Options{}).Solve(ctx, w2, nil); r.Status != opt.StatusUnknown {
		t.Fatalf("got %v, want Unknown", r.Status)
	}
}

func TestOLLName(t *testing.T) {
	if NewOLL(opt.Options{}).Name() != "oll" {
		t.Fatal("name")
	}
}

func TestNextStratum(t *testing.T) {
	mk := func(ws ...cnf.Weight) []*ollItem {
		items := make([]*ollItem, len(ws))
		for i, wt := range ws {
			items[i] = &ollItem{weight: wt}
		}
		return items
	}
	max := cnf.Weight(1 << 60)
	// Broad top level stands alone.
	if next, ok := nextStratum(mk(100, 100, 100, 1, 1), max); !ok || next != 100 {
		t.Fatalf("broad level: got %d ok=%v, want 100", next, ok)
	}
	// Fully diverse ladder merges down to the bottom.
	if next, ok := nextStratum(mk(16, 8, 4, 2, 1), max); !ok || next != 1 {
		t.Fatalf("diverse ladder: got %d ok=%v, want 1", next, ok)
	}
	// Singleton top level merges with the broad level below it.
	if next, ok := nextStratum(mk(50, 10, 10, 10, 10), max); !ok || next != 10 {
		t.Fatalf("singleton top: got %d ok=%v, want 10", next, ok)
	}
	// Levels at or above cur are excluded; spent and hardened items too.
	items := mk(100, 7, 7, 3)
	items[3].hard = true
	if next, ok := nextStratum(items, 100); !ok || next != 7 {
		t.Fatalf("below cur: got %d ok=%v, want 7", next, ok)
	}
	if _, ok := nextStratum(mk(5, 5), 5); ok {
		t.Fatal("no level below cur should report ok")
	}
}
