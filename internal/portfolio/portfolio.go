// Package portfolio implements a bound-sharing parallel portfolio of MaxSAT
// optimizers.
//
// The DATE 2008 paper's own evaluation (Table 1) shows that no single
// algorithm dominates: branch and bound wins on small random instances, the
// PBO formulation on instances with few clauses, and the core-guided msu
// family on industrial ones. The portfolio engine exploits exactly that
// complementarity: it races a configurable line-up of complete optimizers in
// goroutines, each on its own clone of the formula, all wired to one shared
// opt.Bounds. A WalkSAT seeder publishes an early upper bound, every member
// publishes the lower bounds it proves and the models it finds, and members
// prune against externally improved bounds (msu4 tightens its incremental
// totalizer bound, branch and bound tightens its pruning threshold, binary-search
// PBO halves its interval from above). The first member to prove an optimum
// — or hard-clause unsatisfiability — wins; the engine cancels the rest,
// waits for them to exit, and returns the winning result. Because bounds
// are exchanged, the portfolio can also *close* bounds across members: a
// lower bound proved by msu4 meeting an upper bound found by WalkSAT ends
// the race even though neither member finished alone.
//
// If the context expires before anyone proves an optimum, the engine
// returns the best shared bounds with StatusUnknown — exactly the anytime
// behaviour the sequential algorithms have, but with the best of all
// members instead of one.
package portfolio

import (
	"context"
	"time"

	"repro/internal/bnb"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/ls"
	"repro/internal/opt"
	"repro/internal/pbo"
	"repro/internal/sat"
)

// Spec names a portfolio member and builds a fresh solver instance for one
// run (fresh state per run, like restarting the binary).
type Spec struct {
	Name string
	Make func(o opt.Options) opt.Solver
}

// DefaultMembers is the unweighted line-up, strongest first (the Jobs cap
// truncates from the back): the served msu4, the families it loses to, and
// diverse fallbacks. Near-duplicate members carry SAT-engine
// diversification: msu4-glucose is msu4-v2 with Glucose-style adaptive
// restarts, a faster VSIDS decay, and the opposite initial phase, so it
// does not repeat msu4-v2's run move for move; msu3, whose core extraction
// mirrors msu4's early iterations, diversifies its restart schedule too.
func DefaultMembers() []Spec {
	return []Spec{
		{Name: "msu4-v2", Make: func(o opt.Options) opt.Solver { return core.NewMSU4V2(o) }},
		{Name: "oll", Make: func(o opt.Options) opt.Solver { return core.NewOLL(o) }},
		{Name: "maxsatz", Make: func(opt.Options) opt.Solver { return bnb.New() }},
		{Name: "msu3", Make: func(o opt.Options) opt.Solver {
			o.Restart = sat.RestartGlucose
			return core.NewMSU3(o)
		}},
		{Name: "pbo-bin", Make: func(o opt.Options) opt.Solver { return &pbo.BinarySearch{Opts: o} }},
		{Name: "msu4-glucose", Make: func(o opt.Options) opt.Solver {
			o.Restart = sat.RestartGlucose
			o.VarDecay = 0.92
			o.PosPhase = true
			return core.NewMSU4V2(o)
		}},
		{Name: "pbo", Make: func(o opt.Options) opt.Solver { return &pbo.Linear{Opts: o} }},
		{Name: "msu1", Make: func(o opt.Options) opt.Solver { return core.NewMSU1(o) }},
	}
}

// WeightedMembers is the line-up for weighted partial MaxSAT instances.
// OLL leads: stratification, hardening and per-core totalizers make it the
// strongest member of this line-up on industrial-shaped weighted instances
// (the RC2/EvalMaxSAT lineage dominates the weighted MaxSAT Evaluation
// tracks for the same reason).
func WeightedMembers() []Spec {
	return []Spec{
		{Name: "oll", Make: func(o opt.Options) opt.Solver { return core.NewOLL(o) }},
		{Name: "wmsu4", Make: func(o opt.Options) opt.Solver { return core.NewWMSU4(o) }},
		{Name: "maxsatz", Make: func(opt.Options) opt.Solver { return bnb.New() }},
		{Name: "wmsu1", Make: func(o opt.Options) opt.Solver { return core.NewWMSU1(o) }},
		{Name: "pbo", Make: func(o opt.Options) opt.Solver { return &pbo.Linear{Opts: o} }},
	}
}

// LineupSize returns the size of the default line-up raced for the given
// instance kind — the worker-slot demand a full portfolio run places on the
// serving layer's global budget (the WalkSAT seeder is not counted: it is
// flip-bounded and exits in milliseconds).
func LineupSize(weighted bool) int {
	if weighted {
		return len(WeightedMembers())
	}
	return len(DefaultMembers())
}

// Engine races portfolio members under a shared bound. It implements
// opt.Solver, so a portfolio can run anywhere a single algorithm can —
// including the experiment harness, where it appears as one more row.
type Engine struct {
	// Opts is passed to every member.
	Opts opt.Options
	// Jobs caps the number of members raced concurrently; 0 (or more than
	// the line-up has) races them all. The line-up is DefaultMembers or
	// WeightedMembers, by instance kind. Jobs == 1 degenerates to the first
	// member running alone, plus the WalkSAT seeder.
	Jobs int
	// Label overrides the reported name (e.g. "portfolio-4").
	Label string
}

// New returns a portfolio racing at most jobs default members.
func New(o opt.Options, jobs int) *Engine {
	return &Engine{Opts: o, Jobs: jobs}
}

// Name implements opt.Solver.
func (e *Engine) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "portfolio"
}

// outcome pairs a member's result with its name.
type outcome struct {
	name string
	res  opt.Result
}

// Solve implements opt.Solver: it races the members under ctx and returns
// the first proved result, or the best shared bounds once ctx expires.
// A caller-supplied shared bound is joined (the portfolio publishes into
// and observes it like any member would); nil gets a fresh one. Wrapped in
// opt.Preprocessed, the portfolio preprocesses once for the whole line-up:
// the members and the WalkSAT seeder all race on the rewritten formula.
func (e *Engine) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) opt.Result {
	start := time.Now()
	memberOpts := e.Opts
	bounds := shared
	if bounds == nil {
		bounds = opt.NewBounds()
	}
	members := DefaultMembers()
	if w.Weighted() {
		members = WeightedMembers()
	}
	if e.Jobs > 0 && e.Jobs < len(members) {
		members = members[:e.Jobs]
	}
	if memberOpts.MemBytes > 0 && len(members) > 1 {
		// The memory budget bounds the whole race, so each member gets an
		// equal share of the cap rather than the full cap N times over.
		memberOpts.MemBytes /= int64(len(members))
		if memberOpts.MemBytes < 1 {
			memberOpts.MemBytes = 1
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan outcome, len(members))
	for _, spec := range members {
		go func() {
			solver := spec.Make(memberOpts)
			// Each member gets its own clone: solvers are free to index,
			// normalize, or otherwise pick the formula apart without any
			// cross-goroutine aliasing.
			results <- outcome{spec.Name, solver.Solve(runCtx, w.Clone(), bounds)}
		}()
	}
	seedDone := make(chan struct{})
	go func() {
		defer close(seedDone)
		ls.Minimize(runCtx, w.Clone(), ls.Params{
			Seed:     1,
			MaxFlips: 50000,
			Tries:    3,
			OnImprove: func(cost cnf.Weight, model cnf.Assignment) {
				bounds.PublishUB(cost, model)
			},
		})
	}()

	var (
		res    opt.Result
		won    bool
		iters  int
		satC   int
		unsatC int
		confl  int64
	)
	for remaining := len(members); remaining > 0; remaining-- {
		o := <-results
		iters += o.res.Iterations
		satC += o.res.SatCalls
		unsatC += o.res.UnsatCalls
		confl += o.res.Conflicts
		if !won && (o.res.Status == opt.StatusOptimal || o.res.Status == opt.StatusUnsat) {
			res = o.res
			res.Solver = o.name
			won = true
			cancel() // the race is decided; stop the losers
		}
	}
	cancel()
	<-seedDone // no goroutine outlives Solve

	if !won {
		// Deadline (or cancellation) before any member finished: report the
		// best exchanged bounds, which dominate every member's own view.
		// The bounds may have closed in the instant between a member's last
		// publish and its context check — that is still a proved optimum.
		res = opt.Result{Status: opt.StatusUnknown, Cost: -1}
		if !bounds.AdoptClosed(&res) {
			if cost, model, ok := bounds.Best(); ok {
				res.Cost = cost
				res.Model = model
			}
			if lb, ok := bounds.LB(); ok {
				if res.Cost >= 0 && lb > res.Cost {
					lb = res.Cost
				}
				res.LowerBound = lb
			}
		}
	}
	// The work profile covers every member, not just the winner: the
	// portfolio's cost is the sum of its races.
	res.Iterations = iters
	res.SatCalls = satC
	res.UnsatCalls = unsatC
	res.Conflicts = confl
	res.Elapsed = time.Since(start)
	return res
}
