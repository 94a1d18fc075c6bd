package core

import (
	"context"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
)

// MSU3 is the UNSAT-driven lower-bound search of the companion report
// (Marques-Silva & Planes, arXiv:0712.0097), in the incremental formulation
// used by its modern descendants: at most one blocking variable per soft
// clause, blocking variables introduced lazily for clauses that appear in
// some core, and a single growing totalizer whose bound is imposed per SAT
// call through an assumption literal.
//
// Soundness of the bound update: the lower bound increases only when the
// reported core contains no enforced (initial) soft clause. Such a core
// proves that the hard clauses together with the relaxed shells and the
// bound Σb ≤ lb are unsatisfiable regardless of the remaining soft clauses,
// hence every assignment falsifies more than lb relaxed clauses and
// optimum ≥ lb+1 unconditionally. When the core names initial clauses they
// are relaxed and the same bound is retried. A SAT outcome at bound lb
// yields a model of cost ≤ lb, which together with optimum ≥ lb proves
// optimality.
type MSU3 struct {
	Opts opt.Options
}

// NewMSU3 returns msu3 with default options applied.
func NewMSU3(o opt.Options) *MSU3 { return &MSU3{Opts: o} }

// Name implements opt.Solver.
func (m *MSU3) Name() string { return "msu3" }

// Solve implements opt.Solver. Soft clauses must have unit weight. A
// one-shot solve is a session with no deltas: Solve runs the Inc engine once
// over the formula. Unlike Inc.SolveDelta it lets a panic through, for the
// serving layer to count and retry.
func (m *MSU3) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	requireUnweighted(w, "msu3")
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()

	NewInc(m.Opts, w).solve(ctx, w, shared, &res)
	return res
}
