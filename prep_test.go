package maxsat

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/brute"
	"repro/internal/gen"
	"repro/internal/opt"
)

// TestPreprocessedMatchesRawFamilies runs msu4, pbo and the portfolio (the
// algorithm families the preprocessing pipeline accelerates) with and
// without Options.Preprocess across the generator families, asserting the
// proved optimum is identical and every preprocessed-run model is valid for
// the ORIGINAL instance (reconstruction round-trip).
func TestPreprocessedMatchesRawFamilies(t *testing.T) {
	insts := []gen.Instance{
		gen.EquivMiter(6),
		gen.BMCCounter(3, 8),
		gen.BMCShift(6, 6),
		gen.Coloring(7, 8, 20, 3),
		gen.Pigeonhole(4),
		gen.RandomKSAT(3, 14, 3, 5.0),
		gen.ATPGRedundant(3),
	}
	algos := []Algorithm{AlgoMSU4V2, AlgoPBO, AlgoPBOBin, AlgoPortfolio}
	for _, in := range insts {
		for _, algo := range algos {
			raw, err := Solve(in.W.Clone(), Options{Algorithm: algo, Timeout: 30 * time.Second, Parallelism: 3})
			if err != nil {
				t.Fatalf("%s/%s raw: %v", in.Name, algo, err)
			}
			pre, err := Solve(in.W.Clone(), Options{Algorithm: algo, Timeout: 30 * time.Second, Parallelism: 3, Preprocess: true})
			if err != nil {
				t.Fatalf("%s/%s pre: %v", in.Name, algo, err)
			}
			if raw.Status != Optimal || pre.Status != Optimal {
				t.Fatalf("%s/%s: status raw=%v pre=%v", in.Name, algo, raw.Status, pre.Status)
			}
			if raw.Cost != pre.Cost {
				t.Fatalf("%s/%s: cost drift raw=%d pre=%d", in.Name, algo, raw.Cost, pre.Cost)
			}
			if in.KnownCost >= 0 && pre.Cost != in.KnownCost {
				t.Fatalf("%s/%s: preprocessed cost %d, known optimum %d", in.Name, algo, pre.Cost, in.KnownCost)
			}
			if !opt.VerifyModel(in.W, opt.Result{Cost: pre.Cost, Model: pre.Model}) {
				t.Fatalf("%s/%s: preprocessed model invalid on original instance", in.Name, algo)
			}
		}
	}
}

// TestPreprocessedMatchesRawWeighted covers the weighted algorithms.
func TestPreprocessedMatchesRawWeighted(t *testing.T) {
	// Sizes are modest: branch and bound pays for the selector indirection
	// (its unit-propagation lower bound sees shells, not the softs), and
	// the -race job runs this too.
	insts := []gen.Instance{
		gen.ColoringWeighted(3, 6, 13, 3, 5),
		gen.ColoringWeighted(9, 7, 15, 3, 4),
	}
	algos := []Algorithm{AlgoWMSU1, AlgoWMSU4, AlgoPBO, AlgoBnB, AlgoPortfolio}
	for _, in := range insts {
		for _, algo := range algos {
			raw, err := Solve(in.W.Clone(), Options{Algorithm: algo, Timeout: 30 * time.Second, Parallelism: 3})
			if err != nil {
				t.Fatalf("%s/%s raw: %v", in.Name, algo, err)
			}
			pre, err := Solve(in.W.Clone(), Options{Algorithm: algo, Timeout: 30 * time.Second, Parallelism: 3, Preprocess: true})
			if err != nil {
				t.Fatalf("%s/%s pre: %v", in.Name, algo, err)
			}
			if raw.Status != Optimal || pre.Status != Optimal || raw.Cost != pre.Cost {
				t.Fatalf("%s/%s: raw %v cost %d, pre %v cost %d",
					in.Name, algo, raw.Status, raw.Cost, pre.Status, pre.Cost)
			}
			if !opt.VerifyModel(in.W, opt.Result{Cost: pre.Cost, Model: pre.Model}) {
				t.Fatalf("%s/%s: preprocessed model invalid on original instance", in.Name, algo)
			}
		}
	}
}

// TestPreprocessedQuickRandom is the quick-check: random small unit-weight
// partial instances, every single algorithm behind the preprocessing stage
// against brute force, with original-formula model verification.
func TestPreprocessedQuickRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	algos := []Algorithm{AlgoMSU4V2, AlgoMSU1, AlgoMSU2, AlgoMSU3, AlgoWMSU1, AlgoWMSU4, AlgoOLL, AlgoPBO, AlgoPBOBin, AlgoBnB}
	for iter := 0; iter < 80; iter++ {
		vars := 3 + rng.Intn(5)
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
				w.AddSoft(1, c...)
			}
		}
		want, _, feasible := brute.MinCostWCNF(w)
		for _, algo := range algos {
			r, err := Solve(w.Clone(), Options{Algorithm: algo, Preprocess: true, Timeout: 30 * time.Second})
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, algo, err)
			}
			if !feasible {
				if r.Status != Unsatisfiable {
					t.Fatalf("iter %d %s: got %v on infeasible instance", iter, algo, r.Status)
				}
				continue
			}
			if r.Status != Optimal || r.Cost != want {
				t.Fatalf("iter %d %s: got %v cost %d, want optimal %d\n%v",
					iter, algo, r.Status, r.Cost, want, w.Clauses)
			}
			cost, hardOK := w.CostOf(r.Model[:w.NumVars])
			if !hardOK || cost != r.Cost {
				t.Fatalf("iter %d %s: model cost %d (hardOK=%v) disagrees with %d",
					iter, algo, cost, hardOK, r.Cost)
			}
		}
	}
}
