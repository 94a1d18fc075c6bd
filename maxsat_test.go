package maxsat

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/gen"
)

// paperFormula is Example 2 of the paper (§3.3): MaxSAT solution 6 of 8.
func paperFormula() *Formula {
	f := NewFormula(4)
	f.AddClause(FromDIMACS(1))
	f.AddClause(FromDIMACS(-1), FromDIMACS(-2))
	f.AddClause(FromDIMACS(2))
	f.AddClause(FromDIMACS(-1), FromDIMACS(-3))
	f.AddClause(FromDIMACS(3))
	f.AddClause(FromDIMACS(-2), FromDIMACS(-3))
	f.AddClause(FromDIMACS(1), FromDIMACS(-4))
	f.AddClause(FromDIMACS(-1), FromDIMACS(4))
	return f
}

func TestSolveFormulaAllAlgorithms(t *testing.T) {
	f := paperFormula()
	for _, algo := range Algorithms() {
		o := Options{Algorithm: algo}
		r, err := SolveFormula(f, o)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r.Status != Optimal || r.Cost != 2 {
			t.Fatalf("%s: status %v cost %d, want optimal 2", algo, r.Status, r.Cost)
		}
		if r.MaxSatisfied(f.NumClauses()) != 6 {
			t.Fatalf("%s: MaxSatisfied != 6", algo)
		}
		if r.Algorithm != algo {
			t.Fatalf("result algorithm %q, want %q", r.Algorithm, algo)
		}
		if len(r.Model) < f.NumVars {
			t.Fatalf("%s: model too short", algo)
		}
	}
}

func TestAutoRouting(t *testing.T) {
	// Unweighted routes to msu4-v2.
	r, err := SolveFormula(paperFormula(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != AlgoMSU4V2 {
		t.Fatalf("auto picked %q for unweighted, want msu4-v2", r.Algorithm)
	}
	// Weighted routes to pbo.
	w := NewWCNF(1)
	w.AddSoft(5, FromDIMACS(1))
	w.AddSoft(2, FromDIMACS(-1))
	rw, err := Solve(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Algorithm != AlgoPBO {
		t.Fatalf("auto picked %q for weighted, want pbo", rw.Algorithm)
	}
	if rw.Cost != 2 {
		t.Fatalf("weighted optimum %d, want 2", rw.Cost)
	}
}

func TestWeightedRejectedByCoreGuided(t *testing.T) {
	w := NewWCNF(1)
	w.AddSoft(5, FromDIMACS(1))
	for _, algo := range []Algorithm{AlgoMSU1, AlgoMSU2, AlgoMSU3, AlgoMSU4V2} {
		if _, err := Solve(w, Options{Algorithm: algo}); err != ErrWeighted {
			t.Fatalf("%s: err = %v, want ErrWeighted", algo, err)
		}
	}
	// BnB, PBO and the weighted core-guided engines handle weights.
	for _, algo := range []Algorithm{AlgoPBO, AlgoPBOBin, AlgoBnB, AlgoWMSU1, AlgoWMSU4, AlgoOLL} {
		if _, err := Solve(w, Options{Algorithm: algo}); err != nil {
			t.Fatalf("%s: unexpected error %v", algo, err)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := SolveFormula(paperFormula(), Options{Algorithm: "zchaff"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestSolveReader(t *testing.T) {
	in := "p cnf 1 2\n1 0\n-1 0\n"
	r, err := SolveReader(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 1 {
		t.Fatalf("cost %d, want 1", r.Cost)
	}
	if _, err := SolveReader(strings.NewReader("garbage"), Options{}); err == nil {
		t.Fatal("parse error should propagate")
	}
}

func TestSolveFileMissing(t *testing.T) {
	if _, err := SolveFile("/nonexistent/path.cnf", Options{}); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestTimeoutYieldsUnknown(t *testing.T) {
	// A 1 ns timeout has always expired by the first loop check.
	r, err := SolveFormula(paperFormula(), Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unknown {
		t.Fatalf("status %v, want Unknown with expired timeout", r.Status)
	}
	if r.Status.String() != "UNKNOWN" {
		t.Fatal("status string")
	}
}

// TestPortfolioViaFacade is the acceptance check: SolveFormula with
// AlgoPortfolio and Parallelism >= 2 proves the same optima as msu4-v2 on
// generator-suite instances.
func TestPortfolioViaFacade(t *testing.T) {
	insts := []gen.Instance{
		gen.Pigeonhole(5),
		gen.RandomKSAT(55, 18, 3, 6.0),
		gen.EquivMiter(8),
		gen.BMCCounter(4, 10),
		gen.Coloring(9, 10, 26, 3),
	}
	for _, in := range insts {
		f := NewFormula(in.W.NumVars)
		for _, c := range in.W.Clauses {
			f.AddClause(c.Clause...)
		}
		ref, err := SolveFormula(f, Options{Algorithm: AlgoMSU4V2})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Status != Optimal {
			t.Fatalf("%s: msu4-v2 %v", in.Name, ref.Status)
		}
		r, err := SolveFormula(f, Options{Algorithm: AlgoPortfolio, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Optimal || r.Cost != ref.Cost {
			t.Fatalf("%s: portfolio status %v cost %d, msu4-v2 found %d",
				in.Name, r.Status, r.Cost, ref.Cost)
		}
		if r.Algorithm != AlgoPortfolio || r.Winner == "" {
			t.Fatalf("%s: algorithm %q winner %q", in.Name, r.Algorithm, r.Winner)
		}
		if len(r.Model) < f.NumVars {
			t.Fatalf("%s: model too short", in.Name)
		}
	}
}

func TestSolveContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{AlgoMSU4V2, AlgoPortfolio} {
		r, err := SolveContext(ctx, FromFormula(paperFormula()), Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Unknown {
			t.Fatalf("%s: status %v, want Unknown under cancelled context", algo, r.Status)
		}
	}
}

func TestResultStringFacade(t *testing.T) {
	r, err := SolveFormula(paperFormula(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "OPTIMAL") || !strings.Contains(s, "cost=2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestHardUnsatStatus(t *testing.T) {
	w := NewWCNF(1)
	w.AddHard(FromDIMACS(1))
	w.AddHard(FromDIMACS(-1))
	w.AddSoft(1, FromDIMACS(1))
	for _, algo := range []Algorithm{AlgoMSU4V2, AlgoPBO, AlgoBnB} {
		r, err := Solve(w, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Unsatisfiable {
			t.Fatalf("%s: status %v, want Unsatisfiable", algo, r.Status)
		}
	}
}

func TestPublicAPIAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 25; iter++ {
		f := NewFormula(3 + rng.Intn(7))
		for i := 0; i < 5+rng.Intn(20); i++ {
			width := 1 + rng.Intn(3)
			var c []Lit
			for j := 0; j < width; j++ {
				c = append(c, NewLit(Var(rng.Intn(f.NumVars)), rng.Intn(2) == 0))
			}
			f.AddClause(c...)
		}
		wantSat, _ := brute.MaxSAT(f)
		want := Weight(f.NumClauses() - wantSat)
		for _, algo := range Algorithms() {
			r, err := SolveFormula(f, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if r.Cost != want {
				t.Fatalf("iter %d %s: cost %d, want %d", iter, algo, r.Cost, want)
			}
			cost, hardOK := cnf.FromFormula(f).CostOf(r.Model[:f.NumVars])
			if !hardOK || cost != r.Cost {
				t.Fatalf("iter %d %s: model does not witness cost", iter, algo)
			}
		}
	}
}

func TestWMSU1ViaFacade(t *testing.T) {
	w := NewWCNF(1)
	w.AddSoft(5, FromDIMACS(1))
	w.AddSoft(2, FromDIMACS(-1))
	r, err := Solve(w, Options{Algorithm: AlgoWMSU1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || r.Cost != 2 {
		t.Fatalf("wmsu1: status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
	// And on unweighted instances it behaves like msu1.
	ru, err := SolveFormula(paperFormula(), Options{Algorithm: AlgoWMSU1})
	if err != nil || ru.Cost != 2 {
		t.Fatalf("wmsu1 unweighted: cost %d err %v", ru.Cost, err)
	}
}

func TestWMSU4ViaFacade(t *testing.T) {
	w := NewWCNF(1)
	w.AddSoft(5, FromDIMACS(1))
	w.AddSoft(2, FromDIMACS(-1))
	r, err := Solve(w, Options{Algorithm: AlgoWMSU4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || r.Cost != 2 {
		t.Fatalf("wmsu4: status %v cost %d, want optimal 2", r.Status, r.Cost)
	}
}

func TestOLLViaFacade(t *testing.T) {
	in := gen.SelectionWeighted(3, 3, 4)
	r, err := Solve(in.W, Options{Algorithm: AlgoOLL})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || r.Cost != in.KnownCost {
		t.Fatalf("oll: status %v cost %d, want optimal %d", r.Status, r.Cost, in.KnownCost)
	}
}

// TestOnImproveStreamsBounds checks the anytime observer: every bound
// improvement of the solve is delivered, monotonically, and the last
// upper bound matches the proved optimum.
func TestOnImproveStreamsBounds(t *testing.T) {
	var mu sync.Mutex
	var events []BoundUpdate
	in := gen.PigeonholeWeighted(4)
	r, err := Solve(in.W, Options{
		Algorithm: AlgoOLL,
		OnImprove: func(e BoundUpdate) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || r.Cost != in.KnownCost {
		t.Fatalf("status %v cost %d, want optimal %d", r.Status, r.Cost, in.KnownCost)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no bound updates delivered")
	}
	var lb, ub Weight = -1, -1
	for _, e := range events {
		if e.HasLB {
			if lb >= 0 && e.LB < lb {
				t.Fatalf("lower bound regressed: %d -> %d", lb, e.LB)
			}
			lb = e.LB
		}
		if e.HasUB {
			if ub >= 0 && e.UB > ub {
				t.Fatalf("upper bound regressed: %d -> %d", ub, e.UB)
			}
			ub = e.UB
		}
	}
	if ub != r.Cost {
		t.Fatalf("final streamed UB %d, proved optimum %d", ub, r.Cost)
	}
}

// TestObservedLowerBoundsNeverPassOptimum checks every lower bound an
// OnImprove observer sees against the brute-force optimum, for every
// single algorithm that takes weights, on random small weighted instances.
func TestObservedLowerBoundsNeverPassOptimum(t *testing.T) {
	algos := []Algorithm{AlgoWMSU1, AlgoWMSU4, AlgoOLL, AlgoPBO, AlgoPBOBin, AlgoBnB}
	over := make(map[Algorithm]int)
	feasibleCount := 0
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		vars := 3 + rng.Intn(6)
		w := NewWCNF(vars)
		for i := 0; i < 4+rng.Intn(12); i++ {
			width := 1 + rng.Intn(3)
			var c []Lit
			for j := 0; j < width; j++ {
				c = append(c, NewLit(Var(rng.Intn(vars)), rng.Intn(2) == 0))
			}
			if rng.Intn(4) == 0 {
				w.AddHard(c...)
			} else {
				w.AddSoft(Weight(1+rng.Intn(9)), c...)
			}
		}
		want, _, feasible := brute.MinCostWCNF(w)
		if !feasible {
			continue
		}
		feasibleCount++
		for _, algo := range algos {
			maxLB := Weight(-1)
			r, err := Solve(w.Clone(), Options{Algorithm: algo, OnImprove: func(e BoundUpdate) {
				if e.HasLB && e.LB > maxLB {
					maxLB = e.LB
				}
			}})
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, algo, err)
			}
			if r.Status != Optimal || r.Cost != want {
				t.Fatalf("iter %d %s: got %v cost %d, want optimal %d", iter, algo, r.Status, r.Cost, want)
			}
			if maxLB > want {
				over[algo]++
			}
		}
	}
	for _, algo := range algos {
		if n := over[algo]; n > 0 {
			t.Errorf("%s: an observed lower bound passed the optimum on %d of %d feasible instances", algo, n, feasibleCount)
		}
	}
}
