package opt

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/simp"
)

// Preprocessed returns s behind the soft-aware preprocessing stage, the one
// place the stage runs. Each Solve rewrites the formula once (see prep),
// hands s the rewritten formula, and restores the result to the original
// variables, with Elapsed covering the stage. The stage keeps the soft
// clauses verbatim when s has a KeepSofts method that returns true, and
// puts each behind a selector otherwise.
//
// Bounds cross the boundary in original terms. s gets nil bounds when the
// caller passes nil, and private bounds over the rewritten formula
// otherwise: their lower bounds reach shared unchanged, because the two
// optima coincide, and their models reach it restored and rescored. So s
// searches one variable space, and runs the same search whether or not
// anyone observes its bounds. Bounds that others publish into shared do not
// reach s.
func Preprocessed(s Solver) Solver { return preprocessed{s} }

// softKeeper is implemented by optimizers whose search reads the soft
// clauses themselves (branch and bound, PBO): Preprocessed leaves their
// soft clauses verbatim.
type softKeeper interface{ KeepSofts() bool }

type preprocessed struct{ Solver }

// Solve implements Solver.
func (p preprocessed) Solve(ctx context.Context, w *cnf.WCNF, shared *Bounds) Result {
	start := time.Now()
	mode := selectors
	if k, ok := p.Solver.(softKeeper); ok && k.KeepSofts() {
		mode = keepSofts
	}
	res := Result{Status: StatusUnsat, Cost: -1}
	if pr := newPrep(w, mode); !pr.unsat {
		res = p.Solver.Solve(ctx, pr.out, pr.bounds(shared))
		pr.finish(&res, shared)
	}
	res.Elapsed = time.Since(start)
	return res
}

// prep is the soft-aware preprocessing stage. It rewrites a weighted
// formula so that the SatELite-style simplifier in internal/simp can be
// applied soundly:
//
//   - every non-unit soft clause ω gets a fresh selector s, the hard shell
//     ω ∨ ¬s, and is replaced by the unit soft clause (s) of the same
//     weight — the soft constraint is then expressed entirely through s,
//     and ω's own variables become fair game for variable elimination;
//   - unit softs keep their literal (no indirection needed) and the
//     literal's variable is frozen instead;
//   - the hard clauses plus shells are preprocessed with all selectors and
//     unit-soft variables frozen (simp.Options.Frozen), so the variables the
//     optimizer will later assume, relax, or encode constraints over
//     survive;
//   - softs whose selector (or unit literal) was fixed by level-0 unit
//     propagation are folded: fixed true drops the soft (it can never be
//     falsified under the hard clauses), fixed false turns it into an empty
//     soft clause whose weight is always paid.
//
// The optimum of the rewritten formula equals the original optimum: any
// model of one instance extends/restores to a model of the other with no
// higher cost. Models found on the rewritten formula are lifted back with
// restore (simp model reconstruction plus truncation to the original
// variables) and rescored against the original soft clauses. Once built, a
// prep is read-only, so restore and score are safe for concurrent use by
// the racing members of a portfolio.
type prep struct {
	origVars int
	softs    []cnf.WClause // original soft clauses, for rescoring
	simp     *simp.Result  // nil when preprocessing proved hard-UNSAT early
	out      *cnf.WCNF     // the rewritten formula
	unsat    bool          // the hard clauses alone are unsatisfiable
}

// preprocessors recycles simp.Preprocessor buffers across prep calls, so a
// harness sweep or repeated portfolio launches stay allocation-light.
var preprocessors = sync.Pool{New: func() any { return simp.NewPreprocessor() }}

// prepMode selects how the preprocessing stage treats soft clauses.
type prepMode int8

// Preprocessing modes.
const (
	// selectors rewrites every non-unit soft clause behind a fresh frozen
	// selector, so the soft clauses' own variables can be eliminated. The
	// right mode for the core-guided optimizers, which immediately
	// re-express softs through selectors anyway.
	selectors prepMode = iota
	// keepSofts leaves soft clauses verbatim and freezes every variable
	// they mention; only hard-clause structure is simplified. The right
	// mode for optimizers whose bounding reads the soft clauses directly
	// (branch and bound, PBO) and goes blind behind selector indirection.
	keepSofts
)

// newPrep builds the preprocessing stage for w. The prep references w's
// soft clauses for rescoring and must not outlive the Solve call it serves.
func newPrep(w *cnf.WCNF, mode prepMode) *prep {
	p := &prep{origVars: w.NumVars}

	// Assemble the hard side: hard clauses plus, in Selectors mode, a
	// selector shell per non-unit soft. Selectors are allocated directly
	// above the original variables so Restore can truncate at origVars.
	type softKind int8
	const (
		softEmpty softKind = iota // always falsified: weight is a constant
		softUnit                  // kept as-is; its variable is frozen
		softSel                   // replaced by a selector unit
		softKeep                  // kept verbatim; all its variables frozen
	)
	type softRec struct {
		kind softKind
		lit  cnf.Lit // unit literal or positive selector literal
	}

	hard := cnf.NewFormula(w.NumVars)
	var (
		recs   []softRec
		frozen []cnf.Var
	)
	next := cnf.Var(w.NumVars)
	for _, c := range w.Clauses {
		if c.Hard() {
			hard.Clauses = append(hard.Clauses, c.Clause.Clone())
			continue
		}
		p.softs = append(p.softs, c)
		switch {
		case len(c.Clause) == 0:
			recs = append(recs, softRec{kind: softEmpty})
		case len(c.Clause) == 1:
			l := c.Clause[0]
			frozen = append(frozen, l.Var())
			recs = append(recs, softRec{kind: softUnit, lit: l})
		case mode == keepSofts:
			for _, l := range c.Clause {
				frozen = append(frozen, l.Var())
			}
			recs = append(recs, softRec{kind: softKeep})
		default:
			sel := next
			next++
			shell := append(c.Clause.Clone(), cnf.NegLit(sel))
			hard.Clauses = append(hard.Clauses, shell)
			frozen = append(frozen, sel)
			recs = append(recs, softRec{kind: softSel, lit: cnf.PosLit(sel)})
		}
	}
	hard.NumVars = int(next)

	pre := preprocessors.Get().(*simp.Preprocessor)
	sr := pre.Preprocess(hard, simp.Options{Frozen: frozen})
	preprocessors.Put(pre)
	if sr.Unsat {
		p.unsat = true
		return p
	}
	p.simp = sr

	out := cnf.NewWCNF(int(next))
	out.Clauses = make([]cnf.WClause, 0, len(sr.Formula.Clauses)+len(recs))
	for _, c := range sr.Formula.Clauses {
		out.Clauses = append(out.Clauses, cnf.WClause{Clause: c, Weight: cnf.HardWeight})
	}
	for i, r := range recs {
		weight := p.softs[i].Weight
		switch r.kind {
		case softEmpty:
			out.Clauses = append(out.Clauses, cnf.WClause{Weight: weight})
		case softKeep:
			// Apply level-0 fixed values so the kept soft never mentions a
			// variable the simplified hards no longer constrain (the
			// optimizer would otherwise "satisfy" it with a value that
			// reconstruction overwrites). Frozen variables cannot be
			// eliminated, so fixing is the only rewrite to track.
			kept := make(cnf.Clause, 0, len(p.softs[i].Clause))
			satisfied := false
			for _, l := range p.softs[i].Clause {
				if value, fixed := sr.Fixed(l.Var()); fixed {
					if value != l.Sign() {
						satisfied = true
						break
					}
					continue // literal fixed false: drop it
				}
				kept = append(kept, l)
			}
			if satisfied {
				continue
			}
			out.Clauses = append(out.Clauses, cnf.WClause{Clause: kept, Weight: weight})
		default:
			if value, fixed := sr.Fixed(r.lit.Var()); fixed {
				if value == r.lit.Sign() {
					// The unit literal (or selector) is forced false: the
					// soft clause is unsatisfiable under the hard clauses
					// and its weight is always paid.
					out.Clauses = append(out.Clauses, cnf.WClause{Weight: weight})
				}
				// Forced true: the soft clause is free; drop it.
				continue
			}
			out.Clauses = append(out.Clauses, cnf.WClause{Clause: cnf.Clause{r.lit}, Weight: weight})
		}
	}
	p.out = out
	return p
}

// restore lifts a model of the rewritten formula back to the original
// variable space: simp reconstruction recovers eliminated and fixed
// variables, then the selector tail is dropped. The input is not modified.
func (p *prep) restore(model cnf.Assignment) cnf.Assignment {
	return p.simp.Reconstruct(model)[:p.origVars]
}

// score returns the original-formula cost of an original-space model: the
// total weight of original soft clauses it falsifies.
func (p *prep) score(model cnf.Assignment) cnf.Weight {
	var cost cnf.Weight
	for _, c := range p.softs {
		if !model.Satisfies(c.Clause) {
			cost += c.Weight
		}
	}
	return cost
}

// bounds returns the bounds the optimizer solves against: nil when the
// caller passed none, otherwise private bounds over the rewritten formula
// whose observer lifts every improvement into shared. Lower bounds pass
// unchanged; a model is restored and rescored first, which can only lower
// its cost.
func (p *prep) bounds(shared *Bounds) *Bounds {
	if shared == nil {
		return nil
	}
	inner := NewBounds()
	var (
		mu     sync.Mutex
		lifted = cnf.Weight(math.MaxInt64) // best inner cost lifted so far
	)
	inner.SetObserver(func(e BoundsEvent) {
		if e.HasLB {
			shared.PublishLB(e.LB)
		}
		// Every event carries the upper bound; lift each model once.
		mu.Lock()
		fresh := e.HasUB && e.UB < lifted
		if fresh {
			lifted = e.UB
		}
		mu.Unlock()
		if !fresh {
			return
		}
		_, model, _ := inner.Best()
		m := p.restore(model)
		shared.PublishUB(p.score(m), m)
	})
	return inner
}

// finish rewrites a result of the rewritten formula into original terms:
// the model is restored and rescored against the original softs, and the
// lower bound is clamped to the cost. Lower bounds proved on the rewritten
// formula hold as they are, because the two optima coincide. An unproved
// result takes shared's best model when that one is cheaper: a model lifted
// earlier can rescore below the optimizer's final incumbent.
func (p *prep) finish(res *Result, shared *Bounds) {
	if res.Model != nil {
		res.Model = p.restore(res.Model)
		res.Cost = p.score(res.Model)
	}
	if cost, model, ok := shared.Best(); ok && res.Status == StatusUnknown && (res.Model == nil || cost < res.Cost) {
		res.Cost, res.Model = cost, model
	}
	if res.Model != nil {
		res.LowerBound = min(res.LowerBound, res.Cost)
	}
}
