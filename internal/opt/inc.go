package opt

import (
	"context"

	"repro/internal/cnf"
)

// Incremental is the retained-solver contract behind serving sessions: an
// optimizer that keeps its SAT solver, selector state, learnt clauses and
// cardinality encodings alive between solves of a *growing* formula, so a
// delta re-solve costs the delta instead of a from-scratch run.
//
// Soundness rests on monotonicity: every operation an implementation accepts
// through Absorb only ADDS clauses (hard clauses, or unit-weight soft
// clauses). Under clause addition an UNSAT core stays a core, a proved lower
// bound stays a lower bound, learnt clauses stay logical consequences, and
// definitional encodings over fresh variables stay conservative — so the
// retained state is valid for the grown formula. Operations that can lower
// the optimum (reweighting a soft clause) or scope a solve (assumptions)
// invalidate retained bound state; the serving layer routes those solves to a
// from-scratch SolveFunc instead of through this interface.
type Incremental interface {
	// Name identifies the retained engine in results and audit logs.
	Name() string
	// Absorb extends the retained formula with delta clauses, copying what
	// it keeps. It reports whether the engine is still usable: false means
	// the engine refused the delta (a soft clause of weight ≠ 1) or has
	// poisoned itself (for example a recovered panic), and the caller must
	// Close it and fall back to from-scratch solves.
	Absorb(hards []cnf.Clause, softs []cnf.WClause) bool
	// SolveDelta re-optimizes the accumulated formula. w is the serving
	// layer's snapshot of that same formula (used to size the returned
	// model); shared is the solve's bounds channel for anytime streaming.
	// A recovered internal panic returns StatusUnknown and marks the engine
	// unusable (observable through the next Absorb).
	SolveDelta(ctx context.Context, w *cnf.WCNF, shared *Bounds) Result
	// Close releases the retained solver state. The engine must not be used
	// afterwards.
	Close()
}
