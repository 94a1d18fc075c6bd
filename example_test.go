package maxsat_test

import (
	"context"
	"fmt"
	"log"
	"time"

	maxsat "repro"
)

// paperExample builds Example 2 of the paper (§3.3): eight clauses over
// x1..x4 of which at most six are simultaneously satisfiable, so the MaxSAT
// cost is 2.
func paperExample() *maxsat.Formula {
	f := maxsat.NewFormula(4)
	f.AddClause(maxsat.FromDIMACS(1))
	f.AddClause(maxsat.FromDIMACS(-1), maxsat.FromDIMACS(-2))
	f.AddClause(maxsat.FromDIMACS(2))
	f.AddClause(maxsat.FromDIMACS(-1), maxsat.FromDIMACS(-3))
	f.AddClause(maxsat.FromDIMACS(3))
	f.AddClause(maxsat.FromDIMACS(-2), maxsat.FromDIMACS(-3))
	f.AddClause(maxsat.FromDIMACS(1), maxsat.FromDIMACS(-4))
	f.AddClause(maxsat.FromDIMACS(-1), maxsat.FromDIMACS(4))
	return f
}

func ExampleSolveFormula() {
	// Two contradicting unit clauses: any assignment falsifies exactly one.
	f := maxsat.NewFormula(0)
	f.AddClause(maxsat.FromDIMACS(1))
	f.AddClause(maxsat.FromDIMACS(-1))
	res, err := maxsat.SolveFormula(f, maxsat.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Status, "cost", res.Cost)
	// Output: OPTIMAL cost 1
}

func ExampleSolveContext() {
	// SolveContext threads external cancellation and deadlines through every
	// optimizer; a solve cut off early returns its best bounds with Status
	// Unknown instead of an error.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := maxsat.SolveContext(ctx, maxsat.FromFormula(paperExample()), maxsat.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Status, "cost", res.Cost)
	// Output: OPTIMAL cost 2
}

func ExampleSolve() {
	// Weighted partial MaxSAT: the hard clause forces x1 or x2; falsifying
	// the weight-1 preference is cheaper than the weight-3 one.
	w := maxsat.NewWCNF(2)
	w.AddHard(maxsat.FromDIMACS(1), maxsat.FromDIMACS(2))
	w.AddSoft(3, maxsat.FromDIMACS(-1))
	w.AddSoft(1, maxsat.FromDIMACS(-2))
	res, err := maxsat.Solve(w, maxsat.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Status, "cost", res.Cost)
	// Output: OPTIMAL cost 1
}

func ExampleSolveFormula_portfolio() {
	// AlgoPortfolio races complete optimizers in goroutines over one shared
	// bound; the first proved optimum wins and the losers are cancelled.
	res, err := maxsat.SolveFormula(paperExample(), maxsat.Options{
		Algorithm:   maxsat.AlgoPortfolio,
		Parallelism: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Status, "cost", res.Cost)
	// Output: OPTIMAL cost 2
}

func ExampleOptions_preprocess() {
	// Preprocess runs the soft-aware SatELite stage once before the
	// optimizer: hard clauses are simplified with soft selectors frozen, and
	// models are reconstructed to the original variables, so the answer is
	// unchanged — only faster on instances where search dominates.
	res, err := maxsat.SolveFormula(paperExample(), maxsat.Options{Preprocess: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Status, "cost", res.Cost)
	// Output: OPTIMAL cost 2
}

func ExampleServer() {
	// A Server schedules jobs on a bounded worker pool and caches verified
	// results: resubmitting a solved formula — even under different options
	// — is answered from the cache without solving.
	srv := maxsat.NewServer(maxsat.ServerConfig{Workers: 2})
	defer srv.Close()

	f := maxsat.FromFormula(paperExample())
	job, err := srv.Submit(f, maxsat.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s cost=%d cached=%v\n", res.Status, res.Cost, res.Cached)

	again, err := srv.Submit(f, maxsat.Options{Algorithm: maxsat.AlgoBnB})
	if err != nil {
		log.Fatal(err)
	}
	res2, err := again.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s cost=%d cached=%v\n", res2.Status, res2.Cost, res2.Cached)
	fmt.Println("cache hits:", srv.Stats().CacheHits)
	// Output:
	// OPTIMAL cost=2 cached=false
	// OPTIMAL cost=2 cached=true
	// cache hits: 1
}

func ExampleJob_Updates() {
	// Updates streams anytime bound improvements while the job runs: the
	// lower bound only rises, the upper bound only falls, and for a job that
	// ends Optimal the final update has lb == ub == the optimum.
	srv := maxsat.NewServer(maxsat.ServerConfig{Workers: 1})
	defer srv.Close()

	job, err := srv.Submit(maxsat.FromFormula(paperExample()), maxsat.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var last maxsat.BoundUpdate
	for e := range job.Updates() { // closed when the job completes
		last = e
	}
	fmt.Printf("final bounds: lb=%d ub=%d\n", last.LB, last.UB)
	// Output: final bounds: lb=2 ub=2
}
