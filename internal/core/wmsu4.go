package core

import (
	"context"
	"math"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/pb"
	"repro/internal/sat"
)

// WMSU4 lifts the paper's Algorithm 1 to weighted partial MaxSAT — the
// natural generalization the paper's PBO discussion already implies: the
// cardinality constraint of line 30 becomes the pseudo-Boolean constraint
// Σ wᵢ·bᵢ <= BV−1 (encoded through the minisat+ BDD translation of package
// pb), and the upper-bound refinement of lines 23-24 credits each core with
// the minimum soft weight it contains (the weighted reading of
// Proposition 1: disjoint cores cost at least the sum of their minimum
// weights).
//
// Correctness mirrors MSU4: every SAT outcome strictly improves the best
// model cost, so the loop terminates; the algorithm returns the best model
// cost when a core contains no initial clause or when the accumulated
// core-weight lower bound reaches it, and both exits are justified by the
// indicator-extension argument of the unweighted case with weights
// attached.
type WMSU4 struct {
	Opts opt.Options
}

// NewWMSU4 returns wmsu4 with default options.
func NewWMSU4(o opt.Options) *WMSU4 { return &WMSU4{Opts: o} }

// Name implements opt.Solver.
func (m *WMSU4) Name() string { return "wmsu4" }

// Solve implements opt.Solver. Handles weighted partial MaxSAT.
func (m *WMSU4) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
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
	weightOf := make(map[*softClause]cnf.Weight, len(softs))
	for _, c := range softs {
		weightOf[c] = w.Clauses[c.index].Weight
	}

	var (
		bestCost = cnf.Weight(math.MaxInt64) // BV analog: best model cost
		lb       cnf.Weight                  // Σ min-weight over disjoint cores
		relaxed  []*softClause               // VB
		assumps  []cnf.Lit
	)

	for {
		if ctx.Err() != nil {
			finishUnknown(&res, lb)
			return res
		}
		if adoptClosed(shared, &res, lb) {
			return res
		}
		// An externally improved model tightens BV like a local one.
		if cost, ok := adoptBetterUB(shared, &res); ok && cost < bestCost {
			bestCost = cost
			if bestCost == 0 || lb >= bestCost {
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}
		}
		assumps = assumps[:0]
		for _, c := range softs {
			if !c.relaxed {
				assumps = append(assumps, c.assumption())
			}
		}
		st := s.Solve(assumps...)
		res.Iterations++
		res.Observe(s.Stats())

		switch st {
		case sat.Unknown:
			finishUnknown(&res, lb)
			return res

		case sat.Unsat:
			res.UnsatCalls++
			coreSels := s.Core()
			if len(coreSels) == 0 {
				if res.Model == nil {
					res.Status = opt.StatusUnsat
					return res
				}
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}
			newBlocking := make([]cnf.Lit, 0, len(coreSels))
			minW := cnf.Weight(0)
			for _, sel := range coreSels {
				c := owner[sel.Var()]
				c.relaxed = true
				relaxed = append(relaxed, c)
				newBlocking = append(newBlocking, c.blocking())
				if cw := weightOf[c]; minW == 0 || cw < minW {
					minW = cw
				}
			}
			s.AddClause(newBlocking...)
			lb += minW
			// Under the line-30 bound Σ w·b ≤ bestCost−1 a core can carry
			// lb past the optimum, which bestCost then is: publish no more.
			shared.PublishLB(min(lb, bestCost))
			if res.Model != nil && lb >= bestCost {
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}

		case sat.Sat:
			res.SatCalls++
			model := s.Model()
			cost := weightedModelCost(softs, weightOf, model)
			if cost < bestCost {
				bestCost = cost
				res.Cost = cost
				res.Model = snapshotModel(model, w.NumVars)
				shared.PublishUB(res.Cost, res.Model)
			}
			if cost == 0 {
				res.Status = opt.StatusOptimal
				res.LowerBound = 0
				return res
			}
			if lb >= bestCost {
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return res
			}
			// Weighted line 30: Σ w·b <= bestCost - 1 over all blocking
			// variables so far, via the BDD PB translation.
			terms := make([]pb.Term, len(relaxed))
			for i, c := range relaxed {
				terms[i] = pb.Term{Coef: int64(weightOf[c]), Lit: c.blocking()}
			}
			constraint := &pb.LinearLE{Terms: terms, Bound: int64(bestCost) - 1}
			constraint.Encode(s)
		}
	}
}

// weightedModelCost sums the weights of soft clauses falsified by the model.
func weightedModelCost(softs []*softClause, weightOf map[*softClause]cnf.Weight, model cnf.Assignment) cnf.Weight {
	var cost cnf.Weight
	for _, c := range softs {
		sat := false
		for _, l := range c.lits {
			if model.Lit(l) {
				sat = true
				break
			}
		}
		if !sat {
			cost += weightOf[c]
		}
	}
	return cost
}
