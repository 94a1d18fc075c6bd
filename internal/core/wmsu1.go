package core

import (
	"context"
	"time"

	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// WMSU1 is the weighted extension of Fu & Malik's algorithm (the WPM1/WBO
// scheme of Ansótegui, Bonet & Levy and Manquinho, Marques-Silva & Planes,
// both 2009) — the "interplay between different algorithms based on
// unsatisfiable core identification should be further developed" line of
// the paper's conclusions, carried to weighted partial MaxSAT.
//
// Each UNSAT core raises the optimum by the minimum weight wmin among its
// soft clauses. Every core clause is split: a copy carrying weight wmin
// gets a fresh relaxation variable, while the original keeps the residual
// weight w−wmin (dropping it entirely when the residual is zero). An
// exactly-one constraint over the new relaxation variables closes the
// iteration.
type WMSU1 struct {
	Opts opt.Options
}

// NewWMSU1 returns wmsu1 with the ladder AMO encoding.
func NewWMSU1(o opt.Options) *WMSU1 {
	return &WMSU1{Opts: o}
}

// Name implements opt.Solver.
func (m *WMSU1) Name() string { return "wmsu1" }

// softItem is one weighted soft clause copy inside the wmsu1 loop.
type softItem struct {
	lits     cnf.Clause // clause literals including accumulated relax vars
	weight   cnf.Weight
	selector cnf.Var
}

// Solve implements opt.Solver. Handles weighted partial MaxSAT.
func (m *WMSU1) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()

	s := sat.New()
	m.Opts.ConfigureSolver(ctx, s)
	s.EnsureVars(w.NumVars)

	items := make(map[cnf.Var]*softItem)
	var order []*softItem // stable iteration for assumptions
	addItem := func(lits cnf.Clause, weight cnf.Weight) *softItem {
		sel := s.NewVar()
		shell := append(lits.Clone(), cnf.NegLit(sel))
		s.AddClause(shell...)
		it := &softItem{lits: lits, weight: weight, selector: sel}
		items[sel] = it
		order = append(order, it)
		return it
	}

	for _, c := range w.Clauses {
		if c.Hard() {
			if !s.AddClauseFrom(c.Clause) {
				res.Status = opt.StatusUnsat
				return res
			}
			continue
		}
		addItem(c.Clause.Clone(), c.Weight)
	}

	var cost cnf.Weight
	var assumps []cnf.Lit
	for {
		if ctx.Err() != nil {
			finishUnknown(&res, cost)
			return res
		}
		// cost (the sum of per-core minimum weights) is a valid global lower
		// bound; when it meets an externally published model's cost that
		// model is optimal.
		if adoptClosed(shared, &res, cost) {
			return res
		}
		assumps = assumps[:0]
		for _, it := range order {
			if it.weight > 0 {
				assumps = append(assumps, cnf.PosLit(it.selector))
			}
		}
		st := s.Solve(assumps...)
		res.Iterations++
		res.Observe(s.Stats())

		switch st {
		case sat.Unknown:
			finishUnknown(&res, cost)
			return res

		case sat.Sat:
			res.SatCalls++
			model := s.Model()
			res.Status = opt.StatusOptimal
			res.Cost = cost
			res.LowerBound = cost
			res.Model = snapshotModel(model, w.NumVars)
			shared.PublishUB(res.Cost, res.Model)
			return res

		case sat.Unsat:
			res.UnsatCalls++
			coreSels := s.Core()
			if len(coreSels) == 0 {
				res.Status = opt.StatusUnsat
				return res
			}
			// Minimum weight in the core.
			wmin := cnf.Weight(0)
			for _, sel := range coreSels {
				it := items[sel.Var()]
				if wmin == 0 || it.weight < wmin {
					wmin = it.weight
				}
			}
			cost += wmin
			shared.PublishLB(cost)
			newRelax := make([]cnf.Lit, 0, len(coreSels))
			for _, sel := range coreSels {
				it := items[sel.Var()]
				// Split: relaxed copy at weight wmin …
				r := cnf.PosLit(s.NewVar())
				relaxedLits := append(it.lits.Clone(), r)
				addItem(relaxedLits, wmin)
				newRelax = append(newRelax, r)
				// … residual weight stays on the original (or the original
				// is disabled when fully consumed).
				it.weight -= wmin
				if it.weight == 0 {
					s.AddClause(cnf.NegLit(it.selector))
				}
			}
			card.Exactly(s, card.Ladder, newRelax, 1)
		}
	}
}
