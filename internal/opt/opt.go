// Package opt defines the types shared by every MaxSAT optimizer in this
// repository: verdicts, results, options, the shared-bound protocol used by
// the parallel portfolio engine, and the Solver interface the experiment
// harness drives.
//
// Cost convention: all optimizers minimize the total weight of falsified
// soft clauses. For the plain MaxSAT instances of the DATE 2008 paper
// (every clause soft, weight 1), the paper's "MaxSAT solution" — the number
// of satisfied clauses — is NumClauses - Cost; Result.MaxSatisfied performs
// that conversion.
//
// Cancellation convention: Solve takes a context.Context; cancelling it (or
// letting its deadline expire) makes the optimizer return StatusUnknown with
// the best bounds it proved so far. Optimizers poll the context between SAT
// calls and the underlying SAT solver polls it every few hundred conflicts,
// so cancellation latency is bounded by that much search work.
package opt

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// Status is an optimizer verdict.
type Status int8

// Optimizer verdicts.
const (
	// StatusUnknown: resource budget exhausted before the optimum was proved.
	StatusUnknown Status = iota
	// StatusOptimal: Cost is the proved optimum and Model witnesses it.
	StatusOptimal
	// StatusUnsat: the hard clauses are unsatisfiable (partial MaxSAT only).
	StatusUnsat
)

// String names the status for reports.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "OPTIMAL"
	case StatusUnsat:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

// Result reports the outcome of a MaxSAT optimization.
type Result struct {
	Status Status
	// Cost is the total weight of falsified soft clauses: the proved optimum
	// when Status is StatusOptimal, otherwise the best upper bound found
	// (or -1 if no feasible assignment was seen).
	Cost cnf.Weight
	// LowerBound is the best proved lower bound on Cost (useful when
	// Status is StatusUnknown).
	LowerBound cnf.Weight
	// Model is an assignment achieving Cost, when one was found.
	Model cnf.Assignment
	// Solver names the algorithm that produced the result when the caller
	// does not already know it — the portfolio engine sets it to the winning
	// member's name.
	Solver string
	// Iterations counts main-loop iterations of the algorithm.
	Iterations int
	// SatCalls / UnsatCalls count SAT-solver invocations by outcome.
	SatCalls, UnsatCalls int
	// Conflicts is the cumulative conflict count of the underlying solver(s).
	Conflicts int64
	// Certificate, when non-nil, is a serialized proof.Certificate for an
	// OPTIMAL or UNSAT verdict, produced by Certify and checkable with
	// proof.CheckBytes against the original instance. Optimizers never set
	// it themselves; the certification pass attaches it after the solve.
	Certificate []byte
	// Hints, when non-nil, are Certificate's proof hints (CertifyHinted):
	// what a durable store keeps beside the certificate so that the next
	// process re-proves it without propagation search. The serving layer
	// drops them once the store has written them; no client receives them.
	Hints []byte
	// Elapsed is the wall-clock optimization time.
	Elapsed time.Duration
}

// Observe copies the underlying SAT solver's cumulative conflict count into
// the result. Optimizers call it once per main-loop iteration.
func (r *Result) Observe(st sat.Stats) {
	r.Conflicts = st.Conflicts
}

// MaxSatisfied converts the cost into the paper's "MaxSAT solution": the
// number of satisfied clauses for a plain MaxSAT instance with the given
// total clause count.
func (r Result) MaxSatisfied(totalClauses int) int {
	return totalClauses - int(r.Cost)
}

// String renders the result in the one-line format shared by cmd/maxsat and
// cmd/experiments: status, bounds, and the work profile.
func (r Result) String() string {
	s := fmt.Sprintf("%s cost=%d lb=%d iters=%d (sat %d, unsat %d) conflicts=%d %.3fs",
		r.Status, r.Cost, r.LowerBound, r.Iterations, r.SatCalls, r.UnsatCalls,
		r.Conflicts, r.Elapsed.Seconds())
	if r.Solver != "" {
		s = r.Solver + " " + s
	}
	return s
}

// Options configures an optimizer run. Resource bounds (deadline,
// cancellation) travel through the context passed to Solve, not through
// Options.
type Options struct {
	// MemBytes, when positive, caps the CDCL solver's clause-storage
	// footprint in bytes (sat.Budget.MaxMemory): once learnt-clause growth
	// crosses the cap, the current SAT call returns Unknown and the
	// optimizer ends with the best bounds proved so far instead of growing
	// without bound. Optimizers that do not run a CDCL engine (branch and
	// bound, WalkSAT) have intrinsically bounded footprints and ignore it.
	// The portfolio engine divides the cap evenly across its racing members.
	MemBytes int64
	// Restart selects the CDCL restart policy; VarDecay (when non-zero)
	// overrides the VSIDS decay; PosPhase flips the initial decision phase.
	// Portfolio diversification knobs so clones of the same algorithm stop
	// doing identical work.
	Restart  sat.RestartPolicy
	VarDecay float64
	PosPhase bool
}

// ConfigureSolver applies the options' SAT-engine configuration to a fresh
// solver: the run budget and the portfolio diversification knobs.
func (o Options) ConfigureSolver(ctx context.Context, s *sat.Solver) {
	s.SetBudget(o.Budget(ctx))
	if o.Restart != sat.RestartLuby {
		s.SetRestartPolicy(o.Restart)
	}
	if o.VarDecay != 0 {
		s.SetVarDecay(o.VarDecay)
	}
	if o.PosPhase {
		s.SetDefaultPhase(true)
	}
}

// Budget converts the options plus the run context into a SAT budget. The
// context's deadline (when set) is forwarded so the SAT solver's cheap time
// check applies, and the context itself is polled for cancellation.
func (o Options) Budget(ctx context.Context) sat.Budget {
	b := sat.Budget{
		MaxMemory: o.MemBytes,
		Ctx:       ctx,
	}
	if dl, ok := ctx.Deadline(); ok {
		b.Deadline = dl
	}
	return b
}

// Solver is a complete MaxSAT optimizer.
type Solver interface {
	// Name identifies the algorithm in reports (e.g. "msu4-v2").
	Name() string
	// Solve optimizes w under ctx. Implementations must not retain w.
	//
	// shared, when non-nil, is the bound-exchange channel of a concurrent
	// portfolio: implementations publish improved lower bounds and improved
	// models there, and may observe externally improved bounds to prune
	// their own search or to terminate as soon as the global bounds meet.
	// All implementations accept shared == nil (solo run).
	Solve(ctx context.Context, w *cnf.WCNF, shared *Bounds) Result
}

// VerifyModel recomputes the cost of r.Model on w and checks hard-clause
// feasibility; it reports whether the model is consistent with r.Cost.
// Optimizers' tests use it to guard against bookkeeping drift between the
// incremental solver state and the original formula.
func VerifyModel(w *cnf.WCNF, r Result) bool {
	if r.Model == nil {
		return false
	}
	if len(r.Model) < w.NumVars {
		return false
	}
	cost, hardOK := w.CostOf(r.Model[:w.NumVars])
	return hardOK && cost == r.Cost
}
