package portfolio

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
)

// suite is a cross-family slice of the generator suite: families where
// msu4 wins, where branch and bound wins, and where the optimum is large.
func suite() []gen.Instance {
	return []gen.Instance{
		gen.Pigeonhole(5),
		gen.RandomKSAT(101, 16, 3, 6.0),
		gen.RandomKSAT(102, 20, 3, 6.0),
		gen.EquivMiter(6),
		gen.EquivMiter(8),
		gen.BMCCounter(4, 10),
		gen.Coloring(7, 10, 26, 3),
	}
}

// TestPortfolioMatchesMSU4 is the agreement check of the issue's acceptance
// criteria: racing the full line-up proves the same optima as msu4-v2 alone.
func TestPortfolioMatchesMSU4(t *testing.T) {
	for _, in := range suite() {
		ref := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), in.W, nil)
		if ref.Status != opt.StatusOptimal {
			t.Fatalf("%s: msu4-v2 did not finish: %v", in.Name, ref.Status)
		}
		for _, jobs := range []int{2, 4, 0} {
			e := New(opt.Options{}, jobs)
			r := e.Solve(context.Background(), in.W, nil)
			if r.Status != opt.StatusOptimal {
				t.Fatalf("%s jobs=%d: status %v, want optimal", in.Name, jobs, r.Status)
			}
			if r.Cost != ref.Cost {
				t.Fatalf("%s jobs=%d: cost %d, msu4-v2 found %d", in.Name, jobs, r.Cost, ref.Cost)
			}
			if in.KnownCost >= 0 && r.Cost != in.KnownCost {
				t.Fatalf("%s jobs=%d: cost %d, known optimum %d", in.Name, jobs, r.Cost, in.KnownCost)
			}
			if !opt.VerifyModel(in.W, r) {
				t.Fatalf("%s jobs=%d: model does not witness cost %d", in.Name, jobs, r.Cost)
			}
			if r.Solver == "" {
				t.Fatalf("%s jobs=%d: winner not recorded", in.Name, jobs)
			}
		}
	}
}

// TestPortfolioPreprocessed: the preprocess-once pipeline (the members and
// the seeder race on the simplified formula, the wrapper restores the
// result) proves msu4-v2's optima and returns original-space witnesses.
func TestPortfolioPreprocessed(t *testing.T) {
	for _, in := range []gen.Instance{gen.EquivMiter(8), gen.BMCCounter(4, 10)} {
		ref := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), in.W, nil)
		r := opt.Preprocessed(New(opt.Options{}, 4)).Solve(context.Background(), in.W, nil)
		if r.Status != opt.StatusOptimal || r.Cost != ref.Cost {
			t.Fatalf("%s: pre status %v cost %d, want optimal %d", in.Name, r.Status, r.Cost, ref.Cost)
		}
		if !opt.VerifyModel(in.W, r) {
			t.Fatalf("%s: pre model does not witness cost", in.Name)
		}
	}
}

func TestPortfolioWeighted(t *testing.T) {
	in := gen.ColoringWeighted(3, 8, 20, 3, 5)
	ref := core.NewWMSU4(opt.Options{}).Solve(context.Background(), in.W, nil)
	if ref.Status != opt.StatusOptimal {
		t.Fatalf("wmsu4 did not finish: %v", ref.Status)
	}
	r := New(opt.Options{}, 0).Solve(context.Background(), in.W, nil)
	if r.Status != opt.StatusOptimal || r.Cost != ref.Cost {
		t.Fatalf("portfolio: status %v cost %d, wmsu4 found %d", r.Status, r.Cost, ref.Cost)
	}
	if !opt.VerifyModel(in.W, r) {
		t.Fatal("model does not witness cost")
	}
}

func TestPortfolioHardUnsat(t *testing.T) {
	w := gen.Pigeonhole(4).W.Clone()
	// Make every clause hard: the portfolio must report UNSAT.
	for i := range w.Clauses {
		w.Clauses[i].Weight = -1
	}
	r := New(opt.Options{}, 0).Solve(context.Background(), w, nil)
	if r.Status != opt.StatusUnsat {
		t.Fatalf("status %v, want UNSAT", r.Status)
	}
}

// TestPortfolioCancellation checks the issue's leak criterion: cancelling
// the context stops every worker, and no goroutine outlives Solve.
func TestPortfolioCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	// A large instance no member finishes in 10ms.
	in := gen.EquivMiter(24)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan opt.Result, 1)
	go func() {
		done <- New(opt.Options{}, 0).Solve(ctx, in.W, nil)
	}()
	var r opt.Result
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("portfolio did not return after cancellation")
	}
	if r.Status != opt.StatusUnknown {
		t.Fatalf("status %v, want Unknown at deadline", r.Status)
	}

	// Solve waits for all members and the seeder before returning, so the
	// goroutine count must come back down (poll briefly: the runtime needs
	// a moment to retire exiting goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPortfolioAnytimeBounds: at the deadline the portfolio still reports
// the best exchanged bounds — in particular the WalkSAT-seeded upper bound
// with its model.
func TestPortfolioAnytimeBounds(t *testing.T) {
	in := gen.EquivMiter(20)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	r := New(opt.Options{}, 0).Solve(ctx, in.W, nil)
	if r.Status == opt.StatusUnknown {
		if r.Cost < 0 || r.Model == nil {
			t.Fatalf("anytime result missing seeded upper bound: %+v", r.Status)
		}
		if !opt.VerifyModel(in.W, r) {
			t.Fatal("anytime model inconsistent with cost")
		}
	}
	// (If a member happens to finish within the deadline on this machine,
	// optimality is checked by TestPortfolioMatchesMSU4.)
}

// TestPortfolioSharedBoundsJoin: a caller-provided Bounds is used instead
// of a fresh one, so an external upper bound can decide the race when a
// member proves a matching lower bound.
func TestPortfolioSharedBoundsJoin(t *testing.T) {
	in := gen.Pigeonhole(5) // optimum 1
	shared := opt.NewBounds()
	r := New(opt.Options{}, 2).Solve(context.Background(), in.W, shared)
	if r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("status %v cost %d, want optimal 1", r.Status, r.Cost)
	}
	if ub, ok := shared.UB(); !ok || ub != 1 {
		t.Fatalf("winning bound not published into the caller's Bounds: %d %v", ub, ok)
	}
}

func TestPortfolioJobsTruncation(t *testing.T) {
	in := gen.EquivMiter(6)
	r := New(opt.Options{}, 1).Solve(context.Background(), in.W, nil)
	if r.Status != opt.StatusOptimal {
		t.Fatalf("single-member portfolio: %v", r.Status)
	}
	if r.Solver != "msu4-v2" {
		t.Fatalf("jobs=1 should race only the first member, winner %q", r.Solver)
	}
}

func TestPortfolioName(t *testing.T) {
	if New(opt.Options{}, 0).Name() != "portfolio" {
		t.Fatal("name")
	}
	e := New(opt.Options{}, 4)
	e.Label = "portfolio-4"
	if e.Name() != "portfolio-4" {
		t.Fatal("label override")
	}
}

// TestPortfolioWeightedSuiteWithOLL races the weighted line-up (OLL in the
// lead) over the weighted generator suite and checks the proved optima
// against the known costs / the wmsu4 reference.
func TestPortfolioWeightedSuiteWithOLL(t *testing.T) {
	for _, in := range gen.WeightedSuite(23) {
		want := in.KnownCost
		if want < 0 {
			ref := core.NewWMSU4(opt.Options{}).Solve(context.Background(), in.W, nil)
			if ref.Status != opt.StatusOptimal {
				t.Fatalf("%s: wmsu4 reference did not finish: %v", in.Name, ref.Status)
			}
			want = ref.Cost
		}
		r := New(opt.Options{}, 0).Solve(context.Background(), in.W, nil)
		if r.Status != opt.StatusOptimal || r.Cost != want {
			t.Fatalf("%s: got status %v cost %d, want optimal %d", in.Name, r.Status, r.Cost, want)
		}
		if !opt.VerifyModel(in.W, r) {
			t.Fatalf("%s: model does not witness cost", in.Name)
		}
	}
}
