package core

import (
	"context"
	"time"

	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// MSU2 is the non-incremental sibling of MSU3, matching the pre-incremental
// style of the companion report's intermediate algorithms: the same
// UNSAT-driven lower-bound search, but each round rebuilds the SAT instance
// from scratch and re-encodes the cardinality constraint with the
// sequential ("linear") encoding the report introduces for msu2/msu3.
// Comparing MSU2 against MSU3 isolates the value of incremental solving and
// incremental cardinality encodings (ablation A1/A3 territory).
type MSU2 struct {
	Opts opt.Options
}

// NewMSU2 returns msu2 with the sequential encoding.
func NewMSU2(o opt.Options) *MSU2 {
	return &MSU2{Opts: o}
}

// Name implements opt.Solver.
func (m *MSU2) Name() string { return "msu2" }

// Solve implements opt.Solver. Soft clauses must have unit weight.
func (m *MSU2) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	requireUnweighted(w, "msu2")
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()

	// relaxedIdx records which soft clauses have been relaxed so far; the
	// rest are enforced each round.
	relaxed := make([]bool, w.NumClauses())
	lb := 0

	for {
		if ctx.Err() != nil {
			finishUnknown(&res, cnf.Weight(lb))
			return res
		}
		if adoptClosed(shared, &res, cnf.Weight(lb)) {
			return res
		}
		s := sat.New()
		m.Opts.ConfigureSolver(ctx, s)
		s.EnsureVars(w.NumVars)

		// Rebuild: hard clauses, enforced soft clauses with selectors (for
		// core extraction), relaxed soft clauses with blocking variables.
		type enforcedRef struct {
			sel cnf.Var
			idx int
		}
		var (
			enforced []enforcedRef
			blits    []cnf.Lit
			bIdx     []int
			hardBad  bool
		)
		for i, c := range w.Clauses {
			switch {
			case c.Hard():
				if !s.AddClauseFrom(c.Clause) {
					hardBad = true
				}
			case relaxed[i]:
				b := cnf.PosLit(s.NewVar())
				s.AddClause(append(c.Clause.Clone(), b)...)
				blits = append(blits, b)
				bIdx = append(bIdx, i)
			default:
				sel := s.NewVar()
				s.AddClause(append(c.Clause.Clone(), cnf.NegLit(sel))...)
				enforced = append(enforced, enforcedRef{sel, i})
			}
		}
		if hardBad {
			res.Status = opt.StatusUnsat
			return res
		}
		if len(blits) > 0 {
			card.AtMost(s, card.Sequential, blits, lb)
		}

		assumps := make([]cnf.Lit, len(enforced))
		selOwner := make(map[cnf.Var]int, len(enforced))
		for i, e := range enforced {
			assumps[i] = cnf.PosLit(e.sel)
			selOwner[e.sel] = e.idx
		}
		st := s.Solve(assumps...)
		res.Iterations++
		res.Conflicts += s.Stats().Conflicts

		switch st {
		case sat.Unknown:
			finishUnknown(&res, cnf.Weight(lb))
			return res

		case sat.Sat:
			res.SatCalls++
			model := s.Model()
			cost := 0
			for _, c := range w.Clauses {
				if !c.Hard() && !model[:w.NumVars].Satisfies(c.Clause) {
					cost++
				}
			}
			res.Status = opt.StatusOptimal
			res.Cost = cnf.Weight(cost)
			res.LowerBound = res.Cost
			res.Model = snapshotModel(model, w.NumVars)
			shared.PublishUB(res.Cost, res.Model)
			return res

		case sat.Unsat:
			res.UnsatCalls++
			coreLits := s.Core()
			newClauses := 0
			for _, l := range coreLits {
				if idx, ok := selOwner[l.Var()]; ok {
					relaxed[idx] = true
					newClauses++
				}
			}
			switch {
			case newClauses > 0:
				// Retry at the same bound with the new clauses relaxed.
			case len(blits) > 0 && lb < len(blits):
				// Core involves only the cardinality constraint and
				// context: the bound is too tight.
				lb++
				shared.PublishLB(cnf.Weight(lb))
			default:
				// No enforced soft clause and no effective bound in the
				// conflict: the hard clauses are unsatisfiable.
				res.Status = opt.StatusUnsat
				return res
			}
		}
	}
}
