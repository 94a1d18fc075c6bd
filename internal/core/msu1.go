package core

import (
	"context"
	"time"

	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// MSU1 is Fu & Malik's core-guided algorithm ("On Solving the Partial
// MAX-SAT Problem", SAT 2006) — reference [11] of the paper and the point
// of departure for msu4. Every UNSAT core raises the optimum by one: each
// soft clause in the core receives a fresh relaxation variable, an
// exactly-one constraint over the new variables is added, and the search
// repeats until the formula is satisfiable. A clause that appears in k
// cores accumulates k relaxation variables — the drawback msu4 §2.3
// discusses (at most one blocking variable per clause in msu4 versus up to
// |φ| in msu1).
type MSU1 struct {
	Opts opt.Options
	// AMOEncoding selects the at-most-one encoding of the per-core
	// exactly-one constraint (A3 ablation). The zero value (BDD) is valid;
	// NewMSU1 picks Ladder, the customary choice for AMO.
	AMOEncoding card.Encoding
}

// NewMSU1 returns msu1 with the ladder AMO encoding.
func NewMSU1(o opt.Options) *MSU1 {
	return &MSU1{Opts: o, AMOEncoding: card.Ladder}
}

// Name implements opt.Solver.
func (m *MSU1) Name() string { return "msu1" }

// Solve implements opt.Solver. Soft clauses must have unit weight.
func (m *MSU1) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	requireUnweighted(w, "msu1")
	amo := m.AMOEncoding
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
	// content[i] carries the clause literals plus accumulated relaxation
	// variables; the original lits stay in softs for cost verification.
	content := make(map[*softClause]cnf.Clause, len(softs))
	for _, c := range softs {
		content[c] = c.lits.Clone()
	}

	cost := 0
	var assumps []cnf.Lit
	for {
		if ctx.Err() != nil {
			finishUnknown(&res, cnf.Weight(cost))
			return res
		}
		// cost is a valid global lower bound (each core raises the optimum
		// by one); if it meets an externally published model's cost, that
		// model is optimal and the remaining SAT call is unnecessary.
		if adoptClosed(shared, &res, cnf.Weight(cost)) {
			return res
		}
		assumps = assumps[:0]
		for _, c := range softs {
			assumps = append(assumps, c.assumption())
		}
		st := s.Solve(assumps...)
		res.Iterations++
		res.Observe(s.Stats())

		switch st {
		case sat.Unknown:
			finishUnknown(&res, cnf.Weight(cost))
			return res

		case sat.Sat:
			res.SatCalls++
			model := s.Model()
			res.Status = opt.StatusOptimal
			res.Cost = cnf.Weight(cost)
			res.LowerBound = res.Cost
			res.Model = snapshotModel(model, w.NumVars)
			shared.PublishUB(res.Cost, res.Model)
			return res

		case sat.Unsat:
			res.UnsatCalls++
			coreSels := s.Core()
			if len(coreSels) == 0 {
				// Unsatisfiable without assumptions: the hard side
				// (original hard clauses plus exactly-one constraints,
				// which are always extendable) conflicts — only possible
				// if the hard clauses themselves are unsatisfiable.
				res.Status = opt.StatusUnsat
				return res
			}
			cost++
			shared.PublishLB(cnf.Weight(cost))
			newRelax := make([]cnf.Lit, 0, len(coreSels))
			for _, sel := range coreSels {
				c := owner[sel.Var()]
				// Disable the current shell by fixing its selector false …
				s.AddClause(cnf.NegLit(c.selector))
				// … extend the clause with a fresh relaxation variable …
				r := cnf.PosLit(s.NewVar())
				content[c] = append(content[c], r)
				newRelax = append(newRelax, r)
				// … and re-add it under a fresh selector.
				c.selector = s.NewVar()
				owner[c.selector] = c
				shell := append(content[c].Clone(), cnf.NegLit(c.selector))
				s.AddClause(shell...)
			}
			// Fu & Malik's exactly-one over the new relaxation variables.
			card.Exactly(s, amo, newRelax, 1)
		}
	}
}
