package core

import (
	"repro/internal/cnf"
	"repro/internal/sat"
)

// probeConflicts caps each minimization probe.
const probeConflicts = 1000

// minimizeCore destructively shrinks a core of selector literals. The
// paper's conclusion notes msu4 "is effective only for instances for which
// SAT solvers are effective at identifying small unsatisfiable cores";
// destructive minimization trades extra (budgeted) SAT calls for smaller
// cores, hence fewer blocking variables and smaller cardinality constraints.
//
// For each selector, the probe re-solves under the remaining selectors with
// a budget of probeConflicts conflicts. If the probe is still UNSAT the
// selector was redundant and the probe's (possibly even smaller) core
// replaces the working set; SAT or budget exhaustion keeps the selector.
// The result is always a core: it equals the last UNSAT outcome's
// failed-assumption set, or the input when no probe succeeded.
//
// The caller's budget is restored before returning. probes counts SAT calls
// made.
func minimizeCore(s *sat.Solver, coreIn []cnf.Lit, outer sat.Budget) (coreOut []cnf.Lit, probes int) {
	if len(coreIn) <= 1 {
		return coreIn, 0
	}
	work := append([]cnf.Lit{}, coreIn...)
	probeBudget := outer
	probeBudget.MaxConflicts = probeConflicts
	s.SetBudget(probeBudget)
	defer s.SetBudget(outer)

	for i := 0; i < len(work) && len(work) > 1; {
		probe := make([]cnf.Lit, 0, len(work)-1)
		probe = append(probe, work[:i]...)
		probe = append(probe, work[i+1:]...)
		switch s.Solve(probe...) {
		case sat.Unsat:
			probes++
			// The refined core is the failed-assumption subset of probe.
			next := append(work[:0], s.Core()...)
			work = next
			// Restart scanning: positions shifted.
			i = 0
		default:
			probes++
			i++
		}
	}
	return work, probes
}
