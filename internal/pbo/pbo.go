// Package pbo implements the PBO formulation of MaxSAT evaluated as the
// "pbo" baseline in the DATE 2008 paper (its Section 2.2 and Example 1):
// every clause ωᵢ receives a fresh blocking variable bᵢ, making the formula
// satisfiable, and the optimizer minimizes Σ wᵢ·bᵢ the way minisat+ does —
// by iterated SAT calls that tighten an objective-bounding constraint after
// every model (linear SAT-UNSAT search). A binary-search variant is provided
// as an extension.
//
// The paper observes that this formulation "does not scale for industrial
// problems, since the large number of clauses results in a large number of
// blocking variables, and corresponding larger search space" — the
// experiment harness reproduces exactly that effect against msu4.
package pbo

import (
	"context"
	"time"

	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/pb"
	"repro/internal/sat"
)

// Linear is the minisat+-style linear SAT-UNSAT PBO optimizer.
type Linear struct {
	Opts opt.Options
}

// Name implements opt.Solver.
func (l *Linear) Name() string { return "pbo" }

// KeepSofts asks opt.Preprocessed to leave the soft clauses verbatim: pbo
// adds its own blocking variables over them.
func (l *Linear) KeepSofts() bool { return true }

// Solve implements opt.Solver.
func (l *Linear) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()

	s := sat.New()
	s.EnsureVars(w.NumVars)
	l.Opts.ConfigureSolver(ctx, s)

	var (
		blits    []cnf.Lit
		weights  []cnf.Weight
		baseCost cnf.Weight // weight of empty soft clauses, always falsified
		softIdx  []int      // original clause index per blocking variable
	)
	for i, c := range w.Clauses {
		if c.Hard() {
			if !s.AddClauseFrom(c.Clause) {
				res.Status = opt.StatusUnsat
				return res
			}
			continue
		}
		if len(c.Clause) == 0 {
			baseCost += c.Weight
			continue
		}
		var b cnf.Lit
		if len(c.Clause) == 1 {
			// A unit soft (l) needs no fresh blocking variable: ¬l is true
			// exactly when the soft is falsified.
			b = c.Clause[0].Neg()
		} else {
			b = cnf.PosLit(s.NewVar())
			s.AddClause(append(c.Clause.Clone(), b)...)
		}
		blits = append(blits, b)
		weights = append(weights, c.Weight)
		softIdx = append(softIdx, i)
	}
	weighted := w.Weighted()

	for {
		if ctx.Err() != nil {
			res.Status = opt.StatusUnknown
			if lb, ok := shared.LB(); ok && (res.Cost < 0 || lb <= res.Cost) {
				res.LowerBound = lb
			}
			return res
		}
		if shared.AdoptClosed(&res) {
			return res
		}
		st := s.Solve()
		res.Observe(s.Stats())
		res.Iterations++
		switch st {
		case sat.Unknown:
			res.Status = opt.StatusUnknown
			return res
		case sat.Unsat:
			res.UnsatCalls++
			if res.Model == nil {
				// Unsatisfiable before any objective bound: hard clauses
				// conflict.
				res.Status = opt.StatusUnsat
				return res
			}
			res.Status = opt.StatusOptimal
			res.LowerBound = res.Cost
			shared.PublishLB(res.Cost)
			return res
		case sat.Sat:
			res.SatCalls++
			model := s.Model()
			// Recompute the true cost from the soft clauses: the model may
			// set blocking variables gratuitously.
			cost := baseCost
			for _, ci := range softIdx {
				if !model.Satisfies(w.Clauses[ci].Clause) {
					cost += w.Clauses[ci].Weight
				}
			}
			res.Model = snapshot(model, w.NumVars)
			res.Cost = cost
			shared.PublishUB(res.Cost, res.Model)
			// An externally improved model lets the next bound cut deeper
			// than this round's local model would.
			if ext, extModel, ok := shared.Best(); ok && ext < cost {
				cost = ext
				res.Cost = ext
				res.Model = extModel
			}
			if cost == baseCost {
				// No soft clause beyond the unavoidable empty ones is
				// falsified; nothing to improve.
				res.Status = opt.StatusOptimal
				res.LowerBound = cost
				return res
			}
			// Require strictly better: Σ w·b <= cost - baseCost - 1.
			bound := int64(cost - baseCost - 1)
			if weighted {
				terms := make([]pb.Term, len(blits))
				for i := range blits {
					terms[i] = pb.Term{Coef: int64(weights[i]), Lit: blits[i]}
				}
				c := &pb.LinearLE{Terms: terms, Bound: bound}
				c.Encode(s)
			} else {
				card.AtMost(s, card.BDD, blits, int(bound))
			}
		}
	}
}

// BinarySearch is the binary-search variant of the PBO optimizer
// (unweighted instances only; weighted instances fall back to linear
// search). It keeps the bound as a per-call assumption over an incremental
// totalizer, so no constraint ever needs retracting.
type BinarySearch struct {
	Opts opt.Options
}

// Name implements opt.Solver.
func (b *BinarySearch) Name() string { return "pbo-bin" }

// KeepSofts asks opt.Preprocessed to leave the soft clauses verbatim (see
// Linear).
func (b *BinarySearch) KeepSofts() bool { return true }

// Solve implements opt.Solver.
func (b *BinarySearch) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	if w.Weighted() {
		l := &Linear{Opts: b.Opts}
		r := l.Solve(ctx, w, shared)
		return r
	}
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()

	s := sat.New()
	s.EnsureVars(w.NumVars)
	b.Opts.ConfigureSolver(ctx, s)

	var (
		blits    []cnf.Lit
		baseCost cnf.Weight
		softIdx  []int
	)
	for i, c := range w.Clauses {
		if c.Hard() {
			if !s.AddClauseFrom(c.Clause) {
				res.Status = opt.StatusUnsat
				return res
			}
			continue
		}
		if len(c.Clause) == 0 {
			baseCost += c.Weight
			continue
		}
		var bv cnf.Lit
		if len(c.Clause) == 1 {
			bv = c.Clause[0].Neg() // see Linear: unit softs block themselves
		} else {
			bv = cnf.PosLit(s.NewVar())
			s.AddClause(append(c.Clause.Clone(), bv)...)
		}
		blits = append(blits, bv)
		softIdx = append(softIdx, i)
	}

	// First call without a bound establishes feasibility and an upper bound.
	st := s.Solve()
	res.Iterations++
	res.Observe(s.Stats())
	switch st {
	case sat.Unknown:
		res.Status = opt.StatusUnknown
		return res
	case sat.Unsat:
		res.Status = opt.StatusUnsat
		return res
	}
	res.SatCalls++
	// evaluate maps a model to (witness, cost), the cost recomputed from
	// the soft clauses (see Linear).
	evaluate := func(model cnf.Assignment) (cnf.Assignment, cnf.Weight) {
		cost := baseCost
		for _, ci := range softIdx {
			if !model.Satisfies(w.Clauses[ci].Clause) {
				cost += w.Clauses[ci].Weight
			}
		}
		return snapshot(model, w.NumVars), cost
	}
	model, cost := evaluate(s.Model())
	ub := cost - baseCost
	res.Cost = cost
	res.Model = model
	shared.PublishUB(res.Cost, res.Model)

	tot := card.NewIncTotalizer(s, blits, len(blits))
	lb := cnf.Weight(-1) // largest bound proved infeasible
	for lb+1 < ub {
		if ctx.Err() != nil {
			res.Status = opt.StatusUnknown
			res.LowerBound = lb + 1 + baseCost
			return res
		}
		if shared.AdoptClosed(&res) {
			return res
		}
		// Adopt an externally improved model: it halves the remaining
		// search interval from above.
		if ext, extModel, ok := shared.Best(); ok && ext < res.Cost {
			ub = ext - baseCost
			res.Cost = ext
			res.Model = extModel
			if lb+1 >= ub {
				break
			}
		}
		mid := (lb + ub) / 2
		assump, ok := tot.Bound(int(mid))
		var st sat.Status
		if ok {
			st = s.Solve(assump)
		} else {
			st = s.Solve()
		}
		res.Iterations++
		res.Observe(s.Stats())
		switch st {
		case sat.Unknown:
			res.Status = opt.StatusUnknown
			res.LowerBound = lb + 1 + baseCost
			return res
		case sat.Unsat:
			res.UnsatCalls++
			lb = mid
			shared.PublishLB(lb + 1 + baseCost)
		case sat.Sat:
			res.SatCalls++
			model, cost := evaluate(s.Model())
			ub = cost - baseCost
			res.Cost = cost
			res.Model = model
			shared.PublishUB(res.Cost, res.Model)
		}
	}
	res.Status = opt.StatusOptimal
	res.LowerBound = res.Cost
	shared.PublishLB(res.Cost)
	return res
}

func snapshot(m cnf.Assignment, n int) cnf.Assignment {
	out := make(cnf.Assignment, n)
	copy(out, m[:n])
	return out
}
