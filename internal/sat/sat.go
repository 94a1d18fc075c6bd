// Package sat implements a conflict-driven clause-learning (CDCL) SAT solver
// in the architecture of MiniSat 1.14/2.2, the solver underlying the msu4
// algorithm of Marques-Silva & Planes (DATE 2008).
//
// Features: two-watched-literal propagation with blocker literals and a
// dedicated binary-clause watch list, VSIDS variable activities with phase
// saving, Luby restarts, first-UIP clause learning with recursive
// minimization, activity-based learnt-clause deletion, incremental solving
// under assumptions, and extraction of a subset of the assumptions
// responsible for unsatisfiability (the mechanism the MaxSAT algorithms in
// this repository use to obtain unsatisfiable cores).
//
// Clauses are stored in a flat []uint32 arena addressed by integer CRef
// handles (see arena.go), so the hot propagate/analyze loop is free of
// pointer chasing and steady-state heap allocation.
//
// The solver is resource-bounded: a Budget can cap conflicts, wall-clock
// time, and clause-storage bytes, in which case Solve returns Unknown. This
// is how the experiment harness emulates the per-instance timeout of the
// paper's evaluation, and how the serving layer keeps a pathological
// instance from OOM-killing the daemon.
package sat

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
)

// Status is a solver verdict.
type Status int8

// Solver verdicts.
const (
	Unknown Status = iota // budget exhausted or interrupted
	Sat
	Unsat
)

// String returns the conventional solver-output name of the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SATISFIABLE"
	case Unsat:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Budget bounds a Solve call. The zero value means "no limit".
type Budget struct {
	// Deadline, when non-zero, aborts the search once passed. It is checked
	// every few hundred conflicts, so overshoot is bounded by the time the
	// solver spends on that many conflicts.
	Deadline time.Time
	// MaxConflicts, when positive, caps the number of conflicts of one
	// Solve call.
	MaxConflicts int64
	// MaxMemory, when positive, caps the solver's clause-storage footprint
	// in bytes (see MemoryFootprint). Learnt-clause growth is what makes a
	// CDCL run's memory unbounded, so a byte cap turns a pathological
	// instance into an Unknown verdict instead of an OOM kill. The cap is
	// checked alongside the deadline — every few hundred conflicts and at
	// Solve entry — so overshoot is bounded by that many learnt clauses.
	MaxMemory int64
	// Stop, when non-nil, aborts the search as soon as it is observed true.
	Stop *atomic.Bool
	// Ctx, when non-nil, aborts the search once the context is cancelled or
	// its deadline passes. Like Deadline it is polled every few hundred
	// conflicts, so cancellation latency is bounded by that much search work.
	Ctx context.Context
}

// Stats are cumulative solver statistics across all Solve calls.
type Stats struct {
	Solves       int64
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	MinimizedLit int64 // literals deleted by conflict-clause minimization
	ArenaGCs     int64 // compacting collections of the clause arena
	// TrailReused counts decision levels carried over between consecutive
	// Solve calls by assumption-prefix trail reuse — the solver-warmth signal
	// the serving layer's incremental sessions report.
	TrailReused int64
}

// watcher is one entry of a watch list: the watched clause plus a blocker
// literal whose truth lets propagate skip the clause without touching the
// arena. For binary clauses the blocker is the clause's other literal, so
// binary propagation never dereferences the arena at all. The struct is
// 8 bytes and pointer-free.
type watcher struct {
	cref    CRef
	blocker cnf.Lit
}

// Solver is an incremental CDCL SAT solver. The zero value is not usable;
// construct with New.
type Solver struct {
	ok      bool // false once the clause set is known unsat at level 0
	ca      arena
	clauses []CRef
	learnts []CRef

	watches    [][]watcher // long clauses; indexed by literal p: clauses watching ¬p
	watchesBin [][]watcher // binary clauses; blocker is the implied literal

	assigns  []lbool // per variable
	level    []int32
	reason   []CRef // CRefUndef for decisions and unassigned variables
	polarity []bool // saved phase: sign to use on next decision
	activity []float64
	order    varHeap

	trail    []cnf.Lit
	trailLim []int
	qhead    int

	seen           []byte
	analyzeToClear []cnf.Lit
	analyzeStack   []cnf.Lit
	analyzeLearnt  []cnf.Lit // reused backing for the learnt clause under construction

	varInc   float64
	varDecay float64
	claInc   float64
	claDecay float64

	restartFirst  int
	maxLearnts    float64
	learntAdjust  float64
	learntAdjustC float64

	assumptions []cnf.Lit
	prevAssumps []cnf.Lit // previous Solve's assumptions, for trail reuse
	conflictSet []cnf.Lit // failed assumptions from last Unsat-under-assumptions

	model    cnf.Assignment
	modelBuf cnf.Assignment // reused backing for model

	budget Budget
	pulse  *atomic.Int64 // liveness heartbeat from Budget.Ctx (see progress.go)
	stats  Stats

	lbdStamp   []uint32
	lbdCounter uint32

	restartPolicy   RestartPolicy
	defaultPolarity bool    // phase a fresh variable is first decided with
	lbdEmaFast      float64 // recent learnt-LBD average (Glucose restarts)
	lbdTotal        float64 // sum of all learnt LBDs
	lbdCount        int64
	trailEma        float64 // running trail size at conflicts (restart blocking)

	proof    Proof     // nil unless SetProof attached a sink
	proofBuf []cnf.Lit // scratch for deletion logging
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ok:              true,
		varInc:          1,
		varDecay:        0.95,
		claInc:          1,
		claDecay:        0.999,
		restartFirst:    100,
		defaultPolarity: true, // negative-first, MiniSat default
	}
}

// NumVars returns the number of variables allocated so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates and returns a fresh variable.
func (s *Solver) NewVar() cnf.Var {
	v := cnf.Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, CRefUndef)
	s.polarity = append(s.polarity, s.defaultPolarity)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.lbdStamp = append(s.lbdStamp, 0)
	s.watches = append(s.watches, nil, nil)
	s.watchesBin = append(s.watchesBin, nil, nil)
	s.order.insert(v, s.activity)
	return v
}

// EnsureVars allocates variables until at least n exist.
func (s *Solver) EnsureVars(n int) {
	for len(s.assigns) < n {
		s.NewVar()
	}
}

// Okay reports whether the clause set is still possibly satisfiable. Once it
// returns false the solver is permanently unsat and Solve returns Unsat
// immediately.
func (s *Solver) Okay() bool { return s.ok }

// Stats returns cumulative statistics.
func (s *Solver) Stats() Stats { return s.stats }

// SetBudget installs the budget used by subsequent Solve calls. If the
// budget's context carries a progress counter (WithProgress), the search
// ticks it on every conflict so an external watchdog can tell a stuck solver
// from a slow one.
func (s *Solver) SetBudget(b Budget) {
	s.budget = b
	s.pulse = ProgressFrom(b.Ctx)
}

func (s *Solver) value(l cnf.Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals (copied). It returns false
// if the clause set became trivially unsatisfiable at level 0. Variables are
// allocated on demand.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	tmp := make(cnf.Clause, len(lits))
	copy(tmp, lits)
	return s.addClauseOwned(tmp)
}

// AddClauseFrom adds a copy of c.
func (s *Solver) AddClauseFrom(c cnf.Clause) bool {
	return s.AddClause(c...)
}

// addClauseOwned takes ownership of tmp.
func (s *Solver) addClauseOwned(tmp cnf.Clause) bool {
	if !s.ok {
		return false
	}
	// Clauses attach at level 0. The trail may still hold the previous
	// Solve's assumption levels (kept for reuse); adding a clause
	// invalidates them, so backtrack first.
	s.cancelUntil(0)
	if mv := tmp.MaxVar(); mv != cnf.VarUndef {
		s.EnsureVars(int(mv) + 1)
	}
	tmp, taut := tmp.Normalize()
	if taut {
		return true
	}
	// A clause added while a proof sink is attached is not a lemma the
	// search derived — it is new input, logged as an explicit axiom.
	s.proofAxiom(tmp)
	// Strip literals already false at level 0; drop clause if one is true.
	j := 0
	for _, l := range tmp {
		switch {
		case s.value(l) == lTrue && s.level[l.Var()] == 0:
			return true
		case s.value(l) == lFalse && s.level[l.Var()] == 0:
			// drop
		default:
			tmp[j] = l
			j++
		}
	}
	tmp = tmp[:j]
	switch len(tmp) {
	case 0:
		s.ok = false
		s.proofLearn(nil) // empty clause: axiom + level-0 trail conflict
		return false
	case 1:
		s.uncheckedEnqueue(tmp[0], CRefUndef)
		if s.propagate() != CRefUndef {
			s.ok = false
			s.proofLearn(nil)
			return false
		}
		return true
	default:
		cr := s.ca.alloc(tmp, false)
		s.clauses = append(s.clauses, cr)
		s.attach(cr)
		return true
	}
}

func (s *Solver) attach(cr CRef) {
	lits := s.ca.lits(cr)
	l0, l1 := cnf.Lit(lits[0]), cnf.Lit(lits[1])
	if len(lits) == 2 {
		s.watchesBin[l0.Neg()] = append(s.watchesBin[l0.Neg()], watcher{cr, l1})
		s.watchesBin[l1.Neg()] = append(s.watchesBin[l1.Neg()], watcher{cr, l0})
		return
	}
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{cr, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{cr, l0})
}

// removeClause marks cr dead. Long clauses are detached lazily: propagate
// skips (and drops) watchers of dead clauses, and the next arena GC sweeps
// the rest, so deletion is O(1) with no watch-list scan. Binary watchers
// never consult the arena and so cannot observe the dead mark; they are
// detached eagerly, which only happens on the cold simplify path (reduceDB
// never deletes binary clauses).
func (s *Solver) removeClause(cr CRef) {
	s.proofDelete(cr)
	lits := s.ca.lits(cr)
	if len(lits) == 2 {
		s.removeWatchBin(cnf.Lit(lits[0]).Neg(), cr)
		s.removeWatchBin(cnf.Lit(lits[1]).Neg(), cr)
	}
	s.ca.free(cr)
	s.stats.Removed++
}

func (s *Solver) removeWatchBin(p cnf.Lit, cr CRef) {
	ws := s.watchesBin[p]
	for i := range ws {
		if ws[i].cref == cr {
			ws[i] = ws[len(ws)-1]
			s.watchesBin[p] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(p cnf.Lit, from CRef) {
	v := p.Var()
	if p.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, p)
}

// propagate performs unit propagation over the trail; it returns a
// conflicting clause or CRefUndef.
func (s *Solver) propagate() CRef {
	confl := CRefUndef
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.stats.Propagations++

		// Binary fast path: the blocker is the clause's only other literal,
		// so implication and conflict detection need no arena access.
		for _, w := range s.watchesBin[p] {
			switch s.value(w.blocker) {
			case lFalse:
				s.qhead = len(s.trail)
				return w.cref
			case lUndef:
				s.uncheckedEnqueue(w.blocker, w.cref)
			}
		}

		ws := s.watches[p]
		data := s.ca.data
		i, j := 0, 0
	nextWatcher:
		for i < len(ws) {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			h := data[w.cref]
			if h&hdrDead != 0 {
				i++ // lazily deleted clause: self-clean the watcher
				continue
			}
			base := int(w.cref) + hdrWords
			lits := data[base : base+int(h>>hdrSizeShift)]
			falseLit := uint32(p.Neg())
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// Invariant: lits[1] == falseLit.
			i++
			first := cnf.Lit(lits[0])
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if s.value(cnf.Lit(lits[k])) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					q := cnf.Lit(lits[1]).Neg()
					s.watches[q] = append(s.watches[q], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if s.value(first) == lFalse {
				confl = w.cref
				s.qhead = len(s.trail)
				for i < len(ws) {
					ws[j] = ws[i]
					j++
					i++
				}
			} else {
				s.uncheckedEnqueue(first, w.cref)
			}
		}
		s.watches[p] = ws[:j]
		if confl != CRefUndef {
			return confl
		}
	}
	return CRefUndef
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		p := s.trail[i]
		v := p.Var()
		s.polarity[v] = p.Sign()
		s.assigns[v] = lUndef
		s.reason[v] = CRefUndef
		s.order.insert(v, s.activity)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) varBumpActivity(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.increased(v, s.activity)
}

func (s *Solver) claBumpActivity(cr CRef) {
	act := s.ca.activity(cr) + float32(s.claInc)
	s.ca.setActivity(cr, act)
	if act > 1e20 {
		for _, lr := range s.learnts {
			s.ca.setActivity(lr, s.ca.activity(lr)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func abstractLevel(level int32) uint32 { return 1 << (uint(level) & 31) }

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level. The returned slice is
// scratch owned by the solver, valid until the next analyze call.
func (s *Solver) analyze(confl CRef) ([]cnf.Lit, int) {
	learnt := append(s.analyzeLearnt[:0], cnf.LitUndef)
	pathC := 0
	p := cnf.LitUndef
	index := len(s.trail) - 1

	for {
		if s.ca.learnt(confl) {
			s.claBumpActivity(confl)
		}
		for _, qw := range s.ca.lits(confl) {
			q := cnf.Lit(qw)
			if p != cnf.LitUndef && q.Var() == p.Var() {
				continue
			}
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.varBumpActivity(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[index].Var()] == 0 {
			index--
		}
		p = s.trail[index]
		index--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Recursive conflict-clause minimization (MiniSat "deep" mode).
	s.analyzeToClear = append(s.analyzeToClear[:0], learnt...)
	var levels uint32
	for _, l := range learnt[1:] {
		levels |= abstractLevel(s.level[l.Var()])
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		l := learnt[i]
		if s.reason[l.Var()] == CRefUndef || !s.litRedundant(l, levels) {
			learnt[j] = l
			j++
		} else {
			s.stats.MinimizedLit++
		}
	}
	learnt = learnt[:j]

	// Compute backtrack level; place a literal of that level at position 1.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}

	for _, l := range s.analyzeToClear {
		s.seen[l.Var()] = 0
	}
	s.analyzeToClear = s.analyzeToClear[:0]
	s.analyzeLearnt = learnt
	return learnt, btLevel
}

// computeLBD counts the distinct decision levels among the clause literals
// (the Glucose "literals blocks distance").
func (s *Solver) computeLBD(lits []cnf.Lit) int32 {
	s.lbdCounter++
	if s.lbdCounter == 0 {
		// The stamp counter wrapped: stale stamps from 2^32 calls ago would
		// now falsely match. Clear them and skip the ambiguous value 0.
		clear(s.lbdStamp)
		s.lbdCounter = 1
	}
	var lbd int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		if int(lv) < len(s.lbdStamp) && s.lbdStamp[lv] != s.lbdCounter {
			s.lbdStamp[lv] = s.lbdCounter
			lbd++
		}
	}
	return lbd
}

// litRedundant checks whether p is implied by other literals of the learnt
// clause (seen-marked) and can therefore be dropped.
func (s *Solver) litRedundant(p cnf.Lit, abstractLevels uint32) bool {
	s.analyzeStack = append(s.analyzeStack[:0], p)
	top := len(s.analyzeToClear)
	for len(s.analyzeStack) > 0 {
		q := s.analyzeStack[len(s.analyzeStack)-1]
		s.analyzeStack = s.analyzeStack[:len(s.analyzeStack)-1]
		for _, lw := range s.ca.lits(s.reason[q.Var()]) {
			l := cnf.Lit(lw)
			if l.Var() == q.Var() {
				continue
			}
			v := l.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] != CRefUndef && abstractLevel(s.level[v])&abstractLevels != 0 {
				s.seen[v] = 1
				s.analyzeStack = append(s.analyzeStack, l)
				s.analyzeToClear = append(s.analyzeToClear, l)
			} else {
				for k := top; k < len(s.analyzeToClear); k++ {
					s.seen[s.analyzeToClear[k].Var()] = 0
				}
				s.analyzeToClear = s.analyzeToClear[:top]
				return false
			}
		}
	}
	return true
}

// analyzeFinal computes the subset of assumptions responsible for forcing p
// false; p itself is the failed assumption.
func (s *Solver) analyzeFinal(p cnf.Lit) {
	s.conflictSet = append(s.conflictSet[:0], p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == CRefUndef {
			// A decision inside the assumption prefix is an assumption.
			s.conflictSet = append(s.conflictSet, s.trail[i])
		} else {
			for _, lw := range s.ca.lits(s.reason[v]) {
				l := cnf.Lit(lw)
				if l.Var() != v && s.level[l.Var()] > 0 {
					s.seen[l.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

// locked reports whether cr is the reason of one of its watched literals.
// Long clauses keep the implied literal at index 0 (propagate maintains it);
// binary implications enqueue the blocker without reordering the clause, so
// either position may hold the implied literal.
func (s *Solver) locked(cr CRef) bool {
	l0 := s.ca.lit(cr, 0)
	if s.value(l0) == lTrue && s.reason[l0.Var()] == cr {
		return true
	}
	if s.ca.size(cr) == 2 {
		l1 := s.ca.lit(cr, 1)
		if s.value(l1) == lTrue && s.reason[l1.Var()] == cr {
			return true
		}
	}
	return false
}

// reduceDB removes roughly half of the learnt clauses, keeping binary,
// locked, and high-activity ones.
func (s *Solver) reduceDB() {
	extraLim := s.claInc / float64(len(s.learnts)+1)
	ls := s.learnts
	// Sort ascending: clauses to delete first.
	s.quickSortLearnts(ls, 0, len(ls)-1)
	j := 0
	for i, cr := range ls {
		if s.ca.size(cr) > 2 && !s.locked(cr) && (i < len(ls)/2 || float64(s.ca.activity(cr)) < extraLim) {
			s.removeClause(cr)
		} else {
			ls[j] = cr
			j++
		}
	}
	s.learnts = ls[:j]
	s.checkGarbage()
}

// learntLess orders learnt clauses for deletion, clauses to delete first:
// MiniSat's order, long low-activity clauses first.
func (s *Solver) learntLess(a, b CRef) bool {
	ab := s.ca.size(a) > 2
	bb := s.ca.size(b) > 2
	if ab != bb {
		return ab // long clauses sort first (deleted first)
	}
	return s.ca.activity(a) < s.ca.activity(b)
}

func (s *Solver) quickSortLearnts(ls []CRef, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				c := ls[i]
				j := i - 1
				for j >= lo && s.learntLess(c, ls[j]) {
					ls[j+1] = ls[j]
					j--
				}
				ls[j+1] = c
			}
			return
		}
		p := ls[(lo+hi)/2]
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if !s.learntLess(ls[i], p) {
					break
				}
			}
			for {
				j--
				if !s.learntLess(p, ls[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			ls[i], ls[j] = ls[j], ls[i]
		}
		s.quickSortLearnts(ls, lo, j)
		lo = j + 1
	}
}

// simplify removes satisfied clauses at decision level 0.
func (s *Solver) simplify() {
	if s.decisionLevel() != 0 || !s.ok {
		return
	}
	s.learnts = s.removeSatisfied(s.learnts)
	s.clauses = s.removeSatisfied(s.clauses)
	s.checkGarbage()
}

func (s *Solver) removeSatisfied(cs []CRef) []CRef {
	j := 0
	for _, cr := range cs {
		sat := false
		for _, lw := range s.ca.lits(cr) {
			l := cnf.Lit(lw)
			if s.value(l) == lTrue && s.level[l.Var()] == 0 {
				sat = true
				break
			}
		}
		if sat && !s.locked(cr) {
			s.removeClause(cr)
		} else {
			cs[j] = cr
			j++
		}
	}
	return cs[:j]
}

// checkGarbage compacts the arena once at least 20% of it is dead words.
func (s *Solver) checkGarbage() {
	if s.ca.wasted*5 > len(s.ca.data) {
		s.garbageCollect()
	}
}

// garbageCollect copies the live clauses into a fresh arena and remaps every
// stored CRef: watch lists (dropping watchers of dead clauses — this is
// where lazily deleted clauses finally disappear), trail reasons, and the
// clause lists.
func (s *Solver) garbageCollect() {
	to := arena{data: make([]uint32, 0, len(s.ca.data)-s.ca.wasted)}
	for li := range s.watches {
		s.watches[li] = s.relocWatchers(s.watches[li], &to)
		s.watchesBin[li] = s.relocWatchers(s.watchesBin[li], &to)
	}
	for _, p := range s.trail {
		v := p.Var()
		cr := s.reason[v]
		if cr == CRefUndef {
			continue
		}
		if s.ca.dead(cr) {
			// A satisfied level-0 reason may have been deleted by simplify;
			// such reasons are never dereferenced again.
			s.reason[v] = CRefUndef
		} else {
			s.reason[v] = s.ca.reloc(cr, &to)
		}
	}
	s.clauses = s.relocCRefs(s.clauses, &to)
	s.learnts = s.relocCRefs(s.learnts, &to)
	s.ca = to
	s.stats.ArenaGCs++
}

func (s *Solver) relocWatchers(ws []watcher, to *arena) []watcher {
	j := 0
	for _, w := range ws {
		if s.ca.dead(w.cref) {
			continue
		}
		ws[j] = watcher{s.ca.reloc(w.cref, to), w.blocker}
		j++
	}
	return ws[:j]
}

func (s *Solver) relocCRefs(cs []CRef, to *arena) []CRef {
	j := 0
	for _, cr := range cs {
		if s.ca.dead(cr) {
			continue
		}
		cs[j] = s.ca.reloc(cr, to)
		j++
	}
	return cs[:j]
}

func (s *Solver) pickBranchLit() cnf.Lit {
	for {
		v := s.order.removeMax(s.activity)
		if v == cnf.VarUndef {
			return cnf.LitUndef
		}
		if s.assigns[v] == lUndef {
			return cnf.NewLit(v, s.polarity[v])
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based spirit,
// 0-based argument) with base factor y.
func luby(y float64, x int) float64 {
	size, seq := 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x = x % size
	}
	r := 1.0
	for i := 0; i < seq; i++ {
		r *= y
	}
	return r
}

type searchOutcome int8

const (
	outSat searchOutcome = iota
	outUnsat
	outRestart
	outAborted
)

// search runs CDCL until a verdict, a restart point, or budget exhaustion.
func (s *Solver) search(nofConflicts int64, conflictBudget *int64) searchOutcome {
	var conflictC int64
	for {
		confl := s.propagate()
		if confl != CRefUndef {
			s.stats.Conflicts++
			conflictC++
			*conflictBudget--
			if s.pulse != nil {
				s.pulse.Add(1)
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				s.proofLearn(nil)
				return outUnsat
			}
			learnt, btLevel := s.analyze(confl)
			s.proofLearn(learnt)
			s.cancelUntil(btLevel)
			lbd := int32(1)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], CRefUndef)
			} else {
				if s.restartPolicy == RestartGlucose {
					// Before the enqueue: learnt[0] still carries its
					// conflict level.
					lbd = s.computeLBD(learnt)
				}
				cr := s.ca.alloc(learnt, true)
				s.learnts = append(s.learnts, cr)
				s.attach(cr)
				s.claBumpActivity(cr)
				s.stats.Learnt++
				s.uncheckedEnqueue(learnt[0], cr)
			}
			s.noteLearntLBD(lbd)
			s.varInc /= s.varDecay
			s.claInc /= s.claDecay

			s.learntAdjustC--
			if s.learntAdjustC <= 0 {
				s.learntAdjust *= 1.5
				s.learntAdjustC = s.learntAdjust
				s.maxLearnts *= 1.1
			}
			if conflictC&255 == 0 && s.budgetExhausted() {
				return outAborted
			}
			continue
		}
		// No conflict.
		if s.shouldRestart(nofConflicts, conflictC) {
			s.stats.Restarts++
			s.cancelUntil(0)
			return outRestart
		}
		if s.budget.MaxConflicts > 0 && *conflictBudget <= 0 {
			return outAborted
		}
		if s.decisionLevel() == 0 {
			s.simplify()
		}
		if float64(len(s.learnts)-len(s.trail)) >= s.maxLearnts {
			s.reduceDB()
		}
		next := cnf.LitUndef
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level: assumption already holds
			case lFalse:
				s.analyzeFinal(p)
				return outUnsat
			default:
				next = p
			}
			if next != cnf.LitUndef {
				break
			}
		}
		if next == cnf.LitUndef {
			s.stats.Decisions++
			next = s.pickBranchLit()
			if next == cnf.LitUndef {
				return outSat // all variables assigned
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, CRefUndef)
	}
}

func (s *Solver) budgetExhausted() bool {
	if s.budget.Stop != nil && s.budget.Stop.Load() {
		return true
	}
	if s.budget.Ctx != nil && s.budget.Ctx.Err() != nil {
		return true
	}
	if !s.budget.Deadline.IsZero() && time.Now().After(s.budget.Deadline) {
		return true
	}
	if s.budget.MaxMemory > 0 && s.MemoryFootprint() > s.budget.MaxMemory {
		return true
	}
	return false
}

// MemoryFootprint returns the solver's clause-storage footprint in bytes:
// the clause arena (problem and learnt clauses live inline in one []uint32,
// including the dead words awaiting GC) plus the two watcher entries each
// attached clause holds. Fixed per-variable state is excluded — it is set by
// EnsureVars, not by search, so it cannot grow without bound. This is the
// quantity Budget.MaxMemory caps.
func (s *Solver) MemoryFootprint() int64 {
	return 4*int64(cap(s.ca.data)) + 16*int64(len(s.clauses)+len(s.learnts))
}

// Solve determines satisfiability of the clause set under the given
// assumptions. On Sat, Model returns a satisfying assignment; on Unsat under
// assumptions, Core returns a subset of the assumptions that is already
// unsatisfiable together with the clauses. Unknown means the budget was
// exhausted.
//
// Between consecutive Solve calls the solver keeps the trail segment whose
// assumption prefix is unchanged: decision level i of a finished call holds
// assumption i's placement and everything it propagated, so a following
// call that repeats assumptions[0..k) resumes from level k instead of
// re-deciding and re-propagating the shared prefix. Core-guided MaxSAT
// loops, which mostly drop one selector or tighten one trailing bound
// literal per call, keep almost the whole trail. Adding a clause between
// calls backtracks to level 0 (see addClauseOwned), which safely disables
// the reuse for that transition.
func (s *Solver) Solve(assumps ...cnf.Lit) Status {
	s.stats.Solves++
	s.model = nil
	s.conflictSet = s.conflictSet[:0]
	if !s.ok {
		return Unsat
	}
	for _, a := range assumps {
		if int(a.Var()) >= s.NumVars() {
			s.EnsureVars(int(a.Var()) + 1)
		}
	}
	// Trail reuse: levels 1..decisionLevel() of the previous call (if still
	// standing) correspond one-to-one to its assumption prefix; keep the
	// longest prefix the new assumptions repeat verbatim.
	keep := s.decisionLevel()
	if len(s.prevAssumps) < keep {
		keep = len(s.prevAssumps)
	}
	if len(assumps) < keep {
		keep = len(assumps)
	}
	match := 0
	for match < keep && s.prevAssumps[match] == assumps[match] {
		match++
	}
	s.stats.TrailReused += int64(match)
	s.cancelUntil(match)
	s.assumptions = assumps

	s.maxLearnts = float64(len(s.clauses)) / 3
	if s.maxLearnts < 4000 {
		s.maxLearnts = 4000
	}
	s.learntAdjust = 100
	s.learntAdjustC = 100

	conflictBudget := s.budget.MaxConflicts
	if conflictBudget <= 0 {
		conflictBudget = 1 << 62
	}

	status := Unknown
	for curRestarts := 0; ; curRestarts++ {
		if s.budgetExhausted() {
			break
		}
		restartLim := int64(-1) // adaptive policies restart on their own
		if s.restartPolicy == RestartLuby {
			restartLim = int64(luby(2, curRestarts) * float64(s.restartFirst))
		}
		switch s.search(restartLim, &conflictBudget) {
		case outSat:
			n := s.NumVars()
			if cap(s.modelBuf) < n {
				s.modelBuf = make(cnf.Assignment, n)
			}
			m := s.modelBuf[:n]
			for v := range s.assigns {
				m[v] = s.assigns[v] == lTrue
			}
			s.model = m
			status = Sat
		case outUnsat:
			status = Unsat
		case outAborted:
			status = Unknown
		case outRestart:
			continue
		}
		break
	}
	// Do not backtrack to level 0: the assumption levels stay on the trail
	// for the next call's prefix reuse (s.prevAssumps records what they
	// mean). Every other entry point that needs level 0 backtracks itself.
	s.prevAssumps = append(s.prevAssumps[:0], assumps...)
	s.assumptions = nil
	return status
}

// Model returns the satisfying assignment found by the last Sat Solve call.
// The returned slice is owned by the solver until the next Solve.
func (s *Solver) Model() cnf.Assignment { return s.model }

// Core returns the failed assumptions from the last Unsat Solve call: a
// subset of the assumptions that, together with the clauses, is
// unsatisfiable. An empty core means the clause set is unsatisfiable without
// any assumptions.
func (s *Solver) Core() []cnf.Lit { return s.conflictSet }

// NumClauses returns the number of attached problem clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of currently retained learnt clauses.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// AddFormula adds every clause of f, returning false on level-0 conflict.
func (s *Solver) AddFormula(f *cnf.Formula) bool {
	s.EnsureVars(f.NumVars)
	for _, c := range f.Clauses {
		if !s.AddClauseFrom(c) {
			return false
		}
	}
	return true
}
