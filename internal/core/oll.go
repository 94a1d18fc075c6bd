package core

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// OLL is the soft-cardinality core-guided optimizer of the post-2008
// lineage: OLL as introduced for ASP by Andrés, Kaufmann, Matheis & Schaub
// (2012) and recast for MaxSAT by Morgado, Dodaro & Marques-Silva,
// "Core-Guided MaxSAT with Soft Cardinality Constraints" (CP 2014) — the
// algorithm underneath RC2 and EvalMaxSAT, and the direct descendant of the
// msu family this repository reproduces.
//
// Where msu3/msu4 keep one global cardinality constraint over all blocking
// variables, OLL gives every UNSAT core its own incremental totalizer
// (package card) and turns the totalizer's *sum outputs into new soft
// literals*: the assumption ¬out[k] ("this core's clauses suffer at most k
// violations") carries a weight, can itself appear in later cores, and is
// then reformulated exactly like an original soft clause — cores over
// cores. Each core raises the proved lower bound by the minimum residual
// weight it contains; every member keeps its residual, and a member that is
// itself a sum advances its totalizer bound by one at that minimum weight
// (the weighted bookkeeping of RC2's process_core/process_sums). Bounds are
// imposed per Solve call through assumption literals, so the kept-trail
// reuse of the incremental SAT core applies, and the shared opt.Bounds is
// published after every core.
//
// Three weighted-instance staples ride on top:
//
//   - Stratification (Ansótegui, Bonet & Levy 2012): solve high-weight
//     strata first; a SAT outcome over a stratum yields an upper bound
//     early, and the next weight levels are merged in by the standard
//     diversity heuristic (see nextStratum).
//   - Hardening: once upper and lower bound are close, a soft whose
//     residual weight exceeds UB − LB cannot be violated by any model
//     beating the incumbent, so its assumption becomes a hard unit.
//   - Core exhaustion: a freshly created totalizer is re-assumed alone at
//     increasing bounds (under a conflict budget) until it stops being a
//     core on its own, raising the lower bound by its weight each round.
//
// OLL handles weighted and unweighted instances alike; on unit weights the
// stratification and weight bookkeeping degenerate and the loop is the
// classic unweighted OLL/MSCG scheme.
type OLL struct {
	Opts opt.Options
	// ExhaustConflicts caps each exhaustion probe; 0 means 4000.
	ExhaustConflicts int64
	// Probe, when non-nil, receives the mechanism counters of the last
	// Solve call (tests and diagnostics; not safe for concurrent reuse).
	Probe *OLLProbe
}

// OLLProbe counts the internal mechanisms of one OLL run.
type OLLProbe struct {
	// Strata is the number of weight strata actually solved (1 when the
	// instance is unweighted).
	Strata int
	// Hardened counts assumptions turned into hard units by the hardening
	// rule.
	Hardened int
	// Cores counts processed cores; SumCores counts how many of their
	// members were totalizer outputs (cores over cores).
	Cores, SumCores int
	// ExhaustRounds counts lower-bound increases proved by core exhaustion.
	ExhaustRounds int
}

// NewOLL returns oll with default options.
func NewOLL(o opt.Options) *OLL { return &OLL{Opts: o} }

// Name implements opt.Solver.
func (m *OLL) Name() string { return "oll" }

// ollItem is one weighted assumption of the OLL loop: either an original
// soft-clause selector or a totalizer output turned soft literal.
type ollItem struct {
	lit    cnf.Lit    // assumed (positively) while the item is active
	weight cnf.Weight // residual weight; 0 deactivates the item
	sum    *card.IncTotalizer
	bound  int  // sum != nil: lit is ¬out[bound], asserting sum ≤ bound
	hard   bool // asserted as a hard unit (hardening); never assumed again
}

const ollDefaultExhaustConflicts = 4000

// Solve implements opt.Solver. Handles weighted and unweighted partial
// MaxSAT.
func (m *OLL) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()
	probe := m.Probe
	if probe != nil {
		*probe = OLLProbe{}
	}

	s := sat.New()
	m.Opts.ConfigureSolver(ctx, s)
	softs, ok := loadSoft(s, w)
	if !ok {
		res.Status = opt.StatusUnsat
		return res
	}
	weightOf := make(map[*softClause]cnf.Weight, len(softs))
	for _, c := range softs {
		weightOf[c] = w.Clauses[c.index].Weight
	}

	run := &ollRun{
		m:        m,
		ctx:      ctx,
		s:        s,
		w:        w,
		shared:   shared,
		softs:    softs,
		weightOf: weightOf,
		res:      &res,
		probe:    probe,
		byLit:    make(map[cnf.Lit]*ollItem),
		bestCost: cnf.Weight(math.MaxInt64),
	}
	for _, c := range softs {
		run.addItem(c.assumption(), weightOf[c], nil, 0)
	}
	run.strat = 1
	if w.Weighted() {
		if next, ok := nextStratum(run.items, cnf.Weight(math.MaxInt64)); ok {
			run.strat = next
		}
	}
	if probe != nil {
		probe.Strata = 1
	}
	run.loop()
	return res
}

// ollRun is the mutable state of one OLL Solve call.
type ollRun struct {
	m        *OLL
	ctx      context.Context
	s        *sat.Solver
	w        *cnf.WCNF
	shared   *opt.Bounds
	softs    []*softClause
	weightOf map[*softClause]cnf.Weight
	res      *opt.Result
	probe    *OLLProbe

	items    []*ollItem // creation order: stable assumption prefix for trail reuse
	byLit    map[cnf.Lit]*ollItem
	bestCost cnf.Weight // incumbent model cost (MaxInt64 until a model exists)
	lb       cnf.Weight // Σ minimum residual weight over processed cores
	strat    cnf.Weight // active stratum boundary: assume items of weight ≥ strat
	assumps  []cnf.Lit
}

func (r *ollRun) addItem(l cnf.Lit, wt cnf.Weight, sum *card.IncTotalizer, bound int) *ollItem {
	it := &ollItem{lit: l, weight: wt, sum: sum, bound: bound}
	r.items = append(r.items, it)
	r.byLit[l] = it
	return it
}

// finishBest ends the run when the clause database (hard clauses plus
// hardened units and unit-core eliminations) admits no model: no assignment
// beats the incumbent. Without an incumbent the hard clauses themselves
// conflict — hardening and elimination only fire on proved consequences or
// with a model in hand.
func (r *ollRun) finishBest() {
	if r.res.Model == nil {
		r.res.Status = opt.StatusUnsat
		return
	}
	r.res.Status = opt.StatusOptimal
	r.res.LowerBound = r.res.Cost
}

// harden turns every active assumption whose residual weight exceeds
// UB − LB into a hard unit: violating it would already cost more than the
// incumbent model. Returns false when a hardened unit conflicts at level 0
// (no model beats the incumbent — finish via finishBest).
func (r *ollRun) harden() bool {
	if r.res.Model == nil {
		return true
	}
	gap := r.bestCost - r.lb
	for _, it := range r.items {
		if it.weight > 0 && !it.hard && it.weight > gap {
			it.hard = true
			if r.probe != nil {
				r.probe.Hardened++
			}
			if !r.s.AddClause(it.lit) {
				return false
			}
		}
	}
	return true
}

// advanceSum registers bound `bound` of a totalizer at weight wt — the RC2
// process_sums step. An existing item for that bound absorbs the weight
// instead (reactivating it if its residual was spent); a hardened bound
// means no model beating the incumbent ever exceeds it, so the charge can
// never apply and the chain ends. Returns the item carrying the bound, or
// nil when the sum is saturated or hardened.
func (r *ollRun) advanceSum(sum *card.IncTotalizer, bound int, wt cnf.Weight) *ollItem {
	bl, need := sum.Bound(bound)
	if !need {
		return nil // saturated: every violation of this sum is paid for
	}
	if it, ok := r.byLit[bl]; ok {
		if it.hard {
			return nil
		}
		it.weight += wt
		return it
	}
	return r.addItem(bl, wt, sum, bound)
}

// exhaust probes a fresh totalizer alone at increasing bounds under a
// conflict budget: each UNSAT outcome proves every model exceeds the bound,
// so the lower bound rises by the sum's weight and the bound advances; a
// SAT outcome yields a full model and improves the incumbent for free.
// Returns false when a probe proved the clause database unsatisfiable
// (finish via finishBest).
func (r *ollRun) exhaust(it *ollItem) bool {
	outer := r.m.Opts.Budget(r.ctx)
	pb := outer
	pb.MaxConflicts = r.m.ExhaustConflicts
	if pb.MaxConflicts <= 0 {
		pb.MaxConflicts = ollDefaultExhaustConflicts
	}
	r.s.SetBudget(pb)
	defer r.s.SetBudget(outer)
	for it != nil && it.weight > 0 && r.ctx.Err() == nil {
		st := r.s.Solve(it.lit)
		r.res.Observe(r.s.Stats())
		switch st {
		case sat.Unknown:
			return true // probe budget spent; keep the current bound
		case sat.Sat:
			r.res.SatCalls++
			r.improveUB(r.s.Model())
			return true
		case sat.Unsat:
			r.res.UnsatCalls++
			if len(r.s.Core()) == 0 {
				return false
			}
			// The sum alone is a core: every model exceeds its bound.
			r.lb += it.weight
			r.shared.PublishLB(r.lb)
			if r.probe != nil {
				r.probe.ExhaustRounds++
			}
			wt := it.weight
			it.weight = 0
			if !r.s.AddClause(it.lit.Neg()) { // out[bound] is entailed
				return false
			}
			it = r.advanceSum(it.sum, it.bound+1, wt)
		}
	}
	return true
}

// improveUB rescores a model against the original soft clauses and adopts
// it when it beats the incumbent.
func (r *ollRun) improveUB(model cnf.Assignment) {
	cost := weightedModelCost(r.softs, r.weightOf, model)
	if cost < r.bestCost {
		r.bestCost = cost
		r.res.Cost = cost
		r.res.Model = snapshotModel(model, r.w.NumVars)
		r.shared.PublishUB(r.res.Cost, r.res.Model)
	}
}

// lowerStratum activates the next weight levels; ok is false when every
// active item is already in the current stratum (the final stratum).
func (r *ollRun) lowerStratum() bool {
	next, ok := nextStratum(r.items, r.strat)
	if !ok {
		return false
	}
	r.strat = next
	if r.probe != nil {
		r.probe.Strata++
	}
	return true
}

// loop is the main OLL loop; it fills r.res.
func (r *ollRun) loop() {
	res, s := r.res, r.s
	for {
		if r.ctx.Err() != nil {
			finishUnknown(res, r.lb)
			return
		}
		if adoptClosed(r.shared, res, r.lb) {
			return
		}
		// An externally improved model tightens the incumbent like a
		// local one (and may enable hardening).
		if cost, ok := adoptBetterUB(r.shared, res); ok && cost < r.bestCost {
			r.bestCost = cost
			if r.bestCost == 0 || r.lb >= r.bestCost {
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return
			}
			if !r.harden() {
				r.finishBest()
				return
			}
		}
		r.assumps = r.assumps[:0]
		for _, it := range r.items {
			if it.weight > 0 && !it.hard && it.weight >= r.strat {
				r.assumps = append(r.assumps, it.lit)
			}
		}
		st := s.Solve(r.assumps...)
		res.Iterations++
		res.Observe(s.Stats())

		switch st {
		case sat.Unknown:
			finishUnknown(res, r.lb)
			return

		case sat.Sat:
			res.SatCalls++
			r.improveUB(s.Model())
			if r.bestCost == 0 {
				res.Status = opt.StatusOptimal
				res.LowerBound = 0
				return
			}
			if r.lb >= r.bestCost {
				res.Status = opt.StatusOptimal
				res.LowerBound = res.Cost
				return
			}
			if r.lowerStratum() {
				if !r.harden() {
					r.finishBest()
					return
				}
				continue
			}
			// Every active assumption was satisfied: the model pays
			// exactly the exhausted core weights, cost = LB = optimum.
			res.Status = opt.StatusOptimal
			res.LowerBound = res.Cost
			return

		case sat.Unsat:
			res.UnsatCalls++
			if !r.processCore() {
				return
			}
		}
	}
}

// processCore reformulates one UNSAT core; it reports false when the run is
// finished (res filled in).
func (r *ollRun) processCore() bool {
	res, s := r.res, r.s
	coreLits := s.Core()
	if len(coreLits) == 0 {
		// Unsatisfiable with no assumption involved.
		r.finishBest()
		return false
	}
	if r.probe != nil {
		r.probe.Cores++
	}

	// The core's minimum residual weight is exhausted: every model
	// violates at least one member, so the optimum pays at least minw more
	// than previously proved.
	minw := cnf.Weight(0)
	for _, l := range coreLits {
		it := r.byLit[l]
		if minw == 0 || it.weight < minw {
			minw = it.weight
		}
	}
	r.lb += minw
	r.shared.PublishLB(r.lb)

	// Reformulate: every member keeps its residual weight; sum members
	// advance their totalizer bound by one at weight minw; the relaxation
	// literals (one violation is paid by the lower bound) feed a new
	// totalizer whose outputs are the next generation of soft literals.
	rels := make([]cnf.Lit, 0, len(coreLits))
	for _, l := range coreLits {
		it := r.byLit[l]
		rels = append(rels, l.Neg())
		it.weight -= minw
		if it.sum != nil {
			if r.probe != nil {
				r.probe.SumCores++
			}
			r.advanceSum(it.sum, it.bound+1, minw)
		}
	}
	if len(rels) == 1 {
		// Unit core: the assumption is false in every model; its full
		// weight is paid (minw equals it) and the unit is asserted.
		if !s.AddClause(rels[0]) {
			r.finishBest()
			return false
		}
	} else {
		tot := card.NewIncTotalizer(s, rels, len(rels))
		if it := r.advanceSum(tot, 1, minw); it != nil {
			if !r.exhaust(it) {
				r.finishBest()
				return false
			}
		}
	}
	if r.res.Model != nil && r.lb >= r.bestCost {
		res.Status = opt.StatusOptimal
		res.LowerBound = res.Cost
		return false
	}
	if !r.harden() {
		r.finishBest()
		return false
	}
	return true
}

// nextStratum lowers the stratum boundary below cur over the active items'
// residual weights: the next distinct weight level always joins, and
// further levels keep joining while the admitted slice stays "diverse" —
// more than half as many distinct weights as items — the standard
// stratification heuristic (Ansótegui, Bonet & Levy 2012): near-singleton
// levels are merged together (one SAT call per level would cost more than
// the pruning buys), while broad levels get their own stratum. Returns
// ok=false when no active item has weight below cur.
func nextStratum(items []*ollItem, cur cnf.Weight) (cnf.Weight, bool) {
	counts := make(map[cnf.Weight]int)
	for _, it := range items {
		if it.weight > 0 && !it.hard && it.weight < cur {
			counts[it.weight]++
		}
	}
	if len(counts) == 0 {
		return 0, false
	}
	levels := make([]cnf.Weight, 0, len(counts))
	for wt := range counts {
		levels = append(levels, wt)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] > levels[j] })
	total, distinct := 0, 0
	for i, wt := range levels {
		total += counts[wt]
		distinct++
		if i+1 == len(levels) {
			return wt, true
		}
		if 2*distinct <= total {
			return wt, true // slice no longer diverse: stop merging
		}
	}
	return levels[len(levels)-1], true
}
