package core

import (
	"context"
	"math"
	"time"

	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// MSU4 is the paper's Algorithm 1.
//
// Bookkeeping follows the paper with costs instead of satisfied-clause
// counts (cost = |φ| − MaxSAT solution): U counts UNSAT iterations and is a
// lower bound on the cost; BV, the smallest number of blocking variables any
// model needed, is an upper bound on the cost. The algorithm returns BV —
// the cost of the best model — when a core contains no initial clause or
// when U reaches BV. (The pseudo-code's line 22 returns its UB variable; at
// both exits the bounds have met, so the best model's cost is the returned
// optimum, and returning it keeps the result witnessed by a model.)
//
// The line-30 cardinality constraint CNF(Σ b ≤ BV−1) is maintained as a
// single incremental totalizer (the mechanism msu3 already uses): relaxed
// blocking variables extend the counter by merging fresh subtrees, and the
// bound is imposed per SAT call by assuming the negation of one totalizer
// output. Tightening the bound after a better model is an assumption
// change, not a re-encoding, so no superseded encoding ever enters the
// clause database. ReencodeBounds restores the paper-faithful per-bound
// re-encoding (card.AtMost with Encoding behind a disabling guard,
// superseded bounds retired by unit clauses): the paper's v1 (card.BDD) and
// v2 (card.Sorter), which Table 1 and Figure 3 run as msu4-bdd and
// msu4-sorter. Only there does the encoding choice matter.
//
// When run inside a portfolio, MSU4 publishes U as a lower bound and every
// improved model as an upper bound, and prunes against externally improved
// models by tightening the bound at the improved value.
type MSU4 struct {
	Opts opt.Options
	// SkipAtLeast1 disables the optional cardinality constraint of line 19
	// ("at least one of the new blocking variables is true"). The paper
	// notes the constraint is optional but "most often useful"; this switch
	// is the A2 ablation.
	SkipAtLeast1 bool
	// ReencodeBounds re-encodes the line-30 constraint at every improved
	// bound with Encoding behind a guard (the pre-incremental behaviour, and
	// the regime the paper's v1/v2 comparison measures) instead of
	// tightening one incremental totalizer via assumptions.
	ReencodeBounds bool
	// Encoding is the cardinality encoding of the re-encoded bound: card.BDD
	// for the paper's v1, card.Sorter for its v2. Read only under
	// ReencodeBounds.
	Encoding card.Encoding
}

// NewMSU4V2 returns msu4 with its line-30 bound kept as one incremental
// totalizer: the msu4 that AlgoAuto serves for unweighted instances.
func NewMSU4V2(o opt.Options) *MSU4 {
	return &MSU4{Opts: o}
}

// Name implements opt.Solver: "msu4-v2" for the incremental bound,
// "msu4-<encoding>" under ReencodeBounds.
func (m *MSU4) Name() string {
	if m.ReencodeBounds {
		return "msu4-" + m.Encoding.String()
	}
	return "msu4-v2"
}

// Solve implements opt.Solver. Soft clauses must have unit weight.
func (m *MSU4) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	requireUnweighted(w, "msu4")
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()

	s := sat.New()
	m.Opts.ConfigureSolver(ctx, s)
	softs, ok := loadSoft(s, w)
	if !ok {
		res.Status = opt.StatusUnsat
		return res
	}
	owner := selectorOwner(softs)

	var (
		bestCost = math.MaxInt // BV: blocking variables needed by best model
		unsatIts = 0           // U: iterations with UNSAT outcome
		relaxed  []cnf.Lit     // VB: blocking literals of relaxed clauses
		assumps  []cnf.Lit

		// Incremental bound (default): one growing totalizer, bound imposed
		// per call through boundLit. Created lazily at the first bound so
		// its output register can be truncated at the first model's cost
		// (the k-simplification the truncated per-bound encodings enjoy):
		// bestCost only ever decreases, so no later bound outgrows it.
		tot *card.IncTotalizer

		// Guarded re-encoding state (ReencodeBounds; see setBound).
		boundAssump  = cnf.LitUndef // assumed to activate the constraint
		boundDisable = cnf.LitUndef // unit-added to retire it
		curBound     = math.MaxInt  // k of the active AtMost(relaxed, k)
	)

	// setBound retires the active guarded bound encoding (if any) and emits
	// AtMost(relaxed, k) behind a fresh guard. Vacuous bounds need no
	// encoding and leave no active guard. ReencodeBounds mode only.
	setBound := func(k int) {
		if boundDisable != cnf.LitUndef {
			s.AddClause(boundDisable)
			boundAssump, boundDisable = cnf.LitUndef, cnf.LitUndef
		}
		curBound = k
		if k >= len(relaxed) {
			return
		}
		gv := s.NewVar()
		boundDisable = cnf.PosLit(gv)
		boundAssump = cnf.NegLit(gv)
		card.AtMost(card.Guarded(s, boundDisable), m.Encoding, relaxed, k)
	}

	for {
		if ctx.Err() != nil {
			finishUnknown(&res, cnf.Weight(unsatIts))
			return res
		}
		if adoptClosed(shared, &res, cnf.Weight(unsatIts)) {
			return res
		}
		// Pull an externally improved model: it tightens BV exactly as a
		// locally found one would (paper lines 26-31).
		if cost, ok := adoptBetterUB(shared, &res); ok && int(cost) < bestCost {
			bestCost = int(cost)
			if bestCost == 0 {
				res.Status = opt.StatusOptimal
				res.LowerBound = 0
				return res
			}
			if unsatIts >= bestCost {
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}
			if m.ReencodeBounds && bestCost-1 < curBound {
				setBound(bestCost - 1)
			}
		}
		// Assumptions: enforced selectors first, the bound literal last —
		// after a SAT iteration only the bound tightens, so the whole
		// selector prefix stays reusable by the solver's trail reuse.
		assumps = assumps[:0]
		for _, c := range softs {
			if !c.relaxed {
				assumps = append(assumps, c.assumption())
			}
		}
		boundLit := cnf.LitUndef
		if m.ReencodeBounds {
			boundLit = boundAssump
		} else if bestCost != math.MaxInt {
			if tot == nil {
				tot = card.NewIncTotalizer(s, relaxed, bestCost)
			}
			if bl, need := tot.Bound(bestCost - 1); need {
				boundLit = bl
			}
		}
		if boundLit != cnf.LitUndef {
			assumps = append(assumps, boundLit)
		}
		st := s.Solve(assumps...)
		res.Iterations++
		res.Observe(s.Stats())

		switch st {
		case sat.Unknown:
			finishUnknown(&res, cnf.Weight(unsatIts))
			return res

		case sat.Unsat:
			res.UnsatCalls++
			coreSels := s.Core()
			// The bound literal is not a soft-clause selector; a core that
			// contains only it plays the role the permanently-encoded
			// bound's empty core played before incrementality.
			coreSels = dropLit(coreSels, boundLit)
			if len(coreSels) == 0 {
				// The core contains no initial clause (paper line 21-22).
				if res.Model == nil {
					// Never satisfiable, even before any cardinality
					// constraint: the hard clauses conflict.
					res.Status = opt.StatusUnsat
					return res
				}
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}
			// Relax every initial clause in the core (paper lines 13-18):
			// the shell ω ∨ ¬s is already in the solver; dropping the
			// assumption turns ¬s into the blocking variable b.
			newBlocking := make([]cnf.Lit, 0, len(coreSels))
			for _, sel := range coreSels {
				c := owner[sel.Var()]
				c.relaxed = true
				newBlocking = append(newBlocking, c.blocking())
			}
			relaxed = append(relaxed, newBlocking...)
			if tot != nil {
				// Before the first model no totalizer exists yet; relaxed
				// literals accumulated so far become its initial inputs.
				tot.AddInputs(newBlocking)
			}
			if !m.SkipAtLeast1 {
				// Paper line 19: CNF(Σ_{i∈I} bᵢ >= 1) — simply the clause
				// over the new blocking literals. Optional but it prevents
				// the solver from re-deriving the same core.
				s.AddClause(newBlocking...)
			}
			unsatIts++ // paper lines 23-24 refine the upper bound
			shared.PublishLB(cnf.Weight(unsatIts))
			if res.Model != nil && unsatIts >= bestCost {
				// Lower and upper bound met (paper lines 32-33).
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}

		case sat.Sat:
			res.SatCalls++
			model := s.Model()
			// Paper line 26 counts blocking variables assigned 1; counting
			// the relaxed clauses the model actually falsifies is the same
			// quantity after discarding gratuitous blockings (a model
			// shrink MiniSat-based implementations also perform), and all
			// initial clauses are enforced by their assumptions.
			cost := modelCost(softs, model)
			if cost < bestCost {
				bestCost = cost
				res.Cost = cnf.Weight(cost)
				res.Model = snapshotModel(model, w.NumVars)
				shared.PublishUB(res.Cost, res.Model)
			}
			if cost == 0 {
				res.Status = opt.StatusOptimal
				res.LowerBound = 0
				return res
			}
			if unsatIts >= bestCost {
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}
			// Paper lines 30-31: require fewer blocking variables than the
			// best model used, over all blocking variables so far. The
			// incremental totalizer already covers every relaxed literal,
			// so the next iteration's bound assumption suffices; the
			// guarded ablation re-encodes even when the numeric bound is
			// unchanged, because the relaxed set has grown.
			if m.ReencodeBounds {
				setBound(bestCost - 1)
			}
		}
	}
}

// dropLit returns lits without l (order preserved). LitUndef never matches.
func dropLit(lits []cnf.Lit, l cnf.Lit) []cnf.Lit {
	if l == cnf.LitUndef {
		return lits
	}
	out := lits[:0]
	for _, x := range lits {
		if x != l {
			out = append(out, x)
		}
	}
	return out
}
