package core

import (
	"context"
	"time"

	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// Inc is the one msu3 engine (MSU3 documents the search and its soundness):
// one CDCL solver, one selector per soft clause, and one growing totalizer.
// MSU3.Solve runs it once; a serving session keeps it across delta solves of
// a growing formula, each SolveDelta resuming from the relaxed set, lower
// bound, learnt clauses and kept trail of the previous one — sound because
// Absorb only ever adds clauses (see opt.Incremental).
//
// Variable layout: base variables keep their numbers and the base selectors
// follow in soft order, the layout loadSoft gives msu4. Delta clauses
// interleave with selectors and totalizer variables, so vmap gives an
// external variable first seen in a delta a fresh solver variable, and
// externalModel translates the witness back.
//
// Totalizer growth: the totalizer is built with headroom for the soft count
// at the time of its construction. When later deltas add enough soft clauses
// that the climbing bound reaches the old output truncation, a fresh
// totalizer is rebuilt over the full relaxed set — the superseded encoding's
// clauses remain in the solver as sound garbage (they are definitional over
// their own variables), exactly like a one-shot totalizer that was built too
// small would be unsound to keep querying.
type Inc struct {
	opts  opt.Options
	s     *sat.Solver
	vmap  []cnf.Var // external formula var → solver var
	softs []*softClause
	owner map[cnf.Var]*softClause

	tot       *card.IncTotalizer
	totLimit  int
	relaxedIn []cnf.Lit // blocking literals already fed to tot

	lb      int
	broken  bool // poisoned by a recovered panic, a weighted soft or Close
	assumps []cnf.Lit
	scratch cnf.Clause
}

// NewInc returns an engine loaded with the base formula (nil starts empty).
// Soft clauses must have unit weight; the caller routes weighted instances
// away from the retained path. The engine copies what it keeps, so the
// caller may reuse base afterwards.
func NewInc(o opt.Options, base *cnf.WCNF) *Inc {
	m := &Inc{
		opts:  o,
		s:     sat.New(),
		owner: make(map[cnf.Var]*softClause),
	}
	if base == nil {
		return m
	}
	m.s.EnsureVars(base.NumVars)
	m.vmap = make([]cnf.Var, base.NumVars)
	for v := range m.vmap {
		m.vmap[v] = cnf.Var(v)
	}
	for _, c := range base.Clauses {
		m.add(c.Clause, c.Weight)
	}
	return m
}

// Name implements opt.Incremental.
func (m *Inc) Name() string { return "msu3-inc" }

// solverLit translates an external literal into solver space, allocating a
// fresh solver variable the first time an external variable is seen.
func (m *Inc) solverLit(l cnf.Lit) cnf.Lit {
	v := l.Var()
	for int(v) >= len(m.vmap) {
		m.vmap = append(m.vmap, cnf.VarUndef)
	}
	if m.vmap[v] == cnf.VarUndef {
		m.vmap[v] = m.s.NewVar()
	}
	return cnf.NewLit(m.vmap[v], l.Sign())
}

// add loads one base or delta clause: a hard clause as it is, a unit-weight
// soft clause as a selector-guarded shell (ω ∨ ¬sel).
func (m *Inc) add(c cnf.Clause, w cnf.Weight) {
	if m.broken {
		return
	}
	if w != cnf.HardWeight && w != 1 {
		// The retained search is unweighted: a weighted soft poisons the
		// engine, so Absorb reports false and the caller falls back for good.
		m.broken = true
		return
	}
	m.scratch = m.scratch[:0]
	for _, l := range c {
		m.scratch = append(m.scratch, m.solverLit(l))
	}
	if w == cnf.HardWeight {
		// A level-0 conflict is permanent under add-only deltas; the solver
		// keeps it (sat.Solver.Okay).
		m.s.AddClause(m.scratch...)
		return
	}
	sc := &softClause{lits: m.scratch.Clone(), selector: m.s.NewVar()}
	// A shell can never conflict: ¬sel is fresh and unassigned.
	m.s.AddClause(append(m.scratch, sc.blocking())...)
	m.softs = append(m.softs, sc)
	m.owner[sc.selector] = sc
}

// Absorb implements opt.Incremental: it adds the delta's hard clauses and
// unit-weight soft shells to the retained solver. Adding clauses backtracks
// the solver to level 0 internally, which safely discards the kept trail for
// the next solve while keeping every learnt clause.
func (m *Inc) Absorb(hards []cnf.Clause, softs []cnf.WClause) bool {
	for _, c := range hards {
		m.add(c, cnf.HardWeight)
	}
	for _, c := range softs {
		m.add(c.Clause, c.Weight)
	}
	return !m.broken
}

// externalModel translates a solver-space model back to the external
// variable space of the accumulated formula. Declared-but-unconstrained
// external variables (never seen in any clause) default to false — they
// appear in no clause, so any value is consistent.
func (m *Inc) externalModel(model cnf.Assignment, n int) cnf.Assignment {
	out := make(cnf.Assignment, n)
	for v := 0; v < n && v < len(m.vmap); v++ {
		if sv := m.vmap[v]; sv != cnf.VarUndef && int(sv) < len(model) {
			out[v] = model[sv]
		}
	}
	return out
}

// SolveDelta implements opt.Incremental: the msu3 loop resumed from the
// retained relaxed set and lower bound. Result.Solver stays empty, as it
// does from MSU3.Solve: the caller knows which engine it ran. A panic
// anywhere inside is recovered into StatusUnknown and poisons the engine
// (the serving layer then falls back to from-scratch solves and retires it
// at the next Absorb).
func (m *Inc) SolveDelta(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() {
		if p := recover(); p != nil {
			m.broken = true
			res.Status = opt.StatusUnknown
			res.Cost = -1
		}
		res.Elapsed = time.Since(start)
	}()
	if !m.broken {
		m.solve(ctx, w, shared, &res)
	}
	return res
}

// solve is the msu3 main loop over the accumulated formula, sized by w.
func (m *Inc) solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, res *opt.Result) {
	if !m.s.Okay() {
		res.Status = opt.StatusUnsat
		return
	}
	m.opts.ConfigureSolver(ctx, m.s)
	for {
		if ctx.Err() != nil {
			finishUnknown(res, cnf.Weight(m.lb))
			return
		}
		if adoptClosed(shared, res, cnf.Weight(m.lb)) {
			return
		}
		// The totalizer must be able to express the current bound whenever a
		// bound is genuinely needed (lb < relaxed count). If soft growth has
		// pushed lb to the old truncation limit, rebuild with fresh headroom.
		if m.tot != nil && m.lb >= m.totLimit && m.lb < len(m.relaxedIn) {
			m.totLimit = len(m.softs) + 1
			m.tot = card.NewIncTotalizer(m.s, m.relaxedIn, m.totLimit)
		}
		// Enforced selectors first (in stable soft order), the bound literal
		// last: when only the bound moves between calls, within a solve or
		// between session solves, the solver's kept trail carries the
		// propagated selector prefix over.
		m.assumps = m.assumps[:0]
		for _, c := range m.softs {
			if !c.relaxed {
				m.assumps = append(m.assumps, c.assumption())
			}
		}
		boundLit := cnf.LitUndef
		if m.tot != nil {
			if bl, need := m.tot.Bound(m.lb); need {
				boundLit = bl
				m.assumps = append(m.assumps, bl)
			}
		}
		st := m.s.Solve(m.assumps...)
		res.Iterations++
		res.Observe(m.s.Stats())

		switch st {
		case sat.Unknown:
			finishUnknown(res, cnf.Weight(m.lb))
			return

		case sat.Sat:
			res.SatCalls++
			model := m.s.Model()
			res.Status = opt.StatusOptimal
			res.Cost = cnf.Weight(modelCost(m.softs, model))
			res.LowerBound = res.Cost
			res.Model = m.externalModel(model, w.NumVars)
			shared.PublishUB(res.Cost, res.Model)
			return

		case sat.Unsat:
			res.UnsatCalls++
			var newBlocking []cnf.Lit
			sawBound := false
			for _, l := range m.s.Core() {
				if l == boundLit {
					sawBound = true
					continue
				}
				c := m.owner[l.Var()]
				c.relaxed = true
				newBlocking = append(newBlocking, c.blocking())
			}
			switch {
			case len(newBlocking) > 0:
				// Fresh soft clauses entered a core: relax them and retry
				// at the same bound.
				if m.tot == nil {
					m.totLimit = len(m.softs) + 1
					m.tot = card.NewIncTotalizer(m.s, nil, m.totLimit)
				}
				m.tot.AddInputs(newBlocking)
				m.relaxedIn = append(m.relaxedIn, newBlocking...)
			case sawBound:
				// Core is {bound} (possibly with hard/relaxed context):
				// the bound itself is too tight.
				m.lb++
				shared.PublishLB(cnf.Weight(m.lb))
			default:
				// Unsatisfiable without any assumption: hard clauses
				// conflict.
				res.Status = opt.StatusUnsat
				return
			}
		}
	}
}

// Close implements opt.Incremental: the retained solver state is dropped.
func (m *Inc) Close() { *m = Inc{broken: true} }

// TrailReused exposes the solver's cumulative trail-reuse counter — the
// levels of propagation carried between consecutive solves — for tests and
// reuse reporting.
func (m *Inc) TrailReused() int64 {
	if m.s == nil {
		return 0
	}
	return m.s.Stats().TrailReused
}
