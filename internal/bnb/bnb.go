// Package bnb implements a branch-and-bound MaxSAT solver in the
// architecture of maxsatz (Li, Manyà & Planes), the best-performing solver
// of the 2007 MaxSAT evaluation and the "maxsatz" baseline of the DATE 2008
// paper's Table 1 and Figure 1.
//
// The solver is a DPLL-style depth-first search over variable assignments.
// At every node the falsified soft weight so far ("distance") is extended
// with an underestimation computed by detecting disjoint inconsistent
// subformulas through simulated unit propagation — the lower-bound technique
// of Li, Manyà & Planes (AAAI 2006), reference [17] of the paper. Branching
// uses a MOMS-style weighted-occurrence heuristic, hard clauses are enforced
// by genuine unit propagation, and the initial upper bound comes from a
// majority-polarity greedy assignment.
//
// As in the paper, this algorithm class is effective on small or random
// instances and collapses on large structured (industrial) instances, which
// is precisely the phenomenon Table 1 reports.
package bnb

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// BnB is the branch-and-bound MaxSAT optimizer. It supports weighted
// partial MaxSAT. It has no settings: the search ignores the memory budget
// and the SAT solver's knobs, and stops only when its context does.
type BnB struct{}

// New returns a maxsatz-style solver.
func New() *BnB { return &BnB{} }

// Name implements opt.Solver.
func (b *BnB) Name() string { return "maxsatz" }

// KeepSofts asks opt.Preprocessed to leave the soft clauses verbatim: the
// unit-propagation lower bound and MOMS branching read them directly, and
// selector indirection would blind both.
func (b *BnB) KeepSofts() bool { return true }

const (
	vUndef int8 = iota
	vTrue
	vFalse
)

const hardWeight int64 = -1

type bClause struct {
	lits   []cnf.Lit
	weight int64 // hardWeight for hard clauses
}

type searcher struct {
	clauses []bClause
	occPos  [][]int32 // clause indices per variable, positive occurrences
	occNeg  [][]int32
	nv      int

	val     []int8
	trail   []cnf.Var
	satCnt  []int32 // per clause: true literals under current assignment
	freeCnt []int32 // per clause: unassigned literals

	cost int64 // falsified soft weight under current partial assignment
	ub   int64 // best complete cost found so far (exclusive pruning bound)
	best cnf.Assignment

	// Bound exchange (nil-safe): improvements to ub are published, and an
	// externally improved model replaces ub/best at every budget check.
	shared   *opt.Bounds
	baseCost int64

	// Probe scratch (versioned to avoid clearing):
	vval      []int8
	vversion  []uint32
	version   uint32
	roundBase uint32 // version of the current underestimate() round
	vreason   []int32
	consumed  []uint32 // stamped with roundBase when used by an inconsistency

	nodes   int64
	ctx     context.Context
	pulse   *atomic.Int64 // liveness heartbeat (sat.WithProgress)
	aborted bool
	hardBad bool // hard clause falsified during the current assign batch
}

// Solve implements opt.Solver.
func (b *BnB) Solve(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) (res opt.Result) {
	start := time.Now()
	res = opt.Result{Cost: -1}
	defer func() { res.Elapsed = time.Since(start) }()

	s := &searcher{nv: w.NumVars, ctx: ctx, shared: shared, pulse: sat.ProgressFrom(ctx)}
	if s.expired() {
		res.Status = opt.StatusUnknown
		return res
	}
	var baseCost int64
	for _, c := range w.Clauses {
		norm, taut := c.Clause.Clone().Normalize()
		if taut {
			continue
		}
		weight := int64(c.Weight)
		if c.Hard() {
			weight = hardWeight
		}
		if len(norm) == 0 {
			if c.Hard() {
				res.Status = opt.StatusUnsat
				return res
			}
			baseCost += weight
			continue
		}
		s.clauses = append(s.clauses, bClause{lits: norm, weight: weight})
	}
	s.init()
	s.baseCost = baseCost

	// Greedy majority-polarity assignment provides the initial upper bound
	// (inclusive: the search only looks for strictly better assignments).
	greedy := s.majorityAssignment()
	gCost, gHardOK := w.CostOf(greedy)
	s.ub = int64(w.SoftWeightSum()) + 1 // sentinel: any feasible leaf beats it
	if gHardOK {
		s.ub = int64(gCost) - baseCost
		s.best = greedy
	}
	if s.best != nil {
		shared.PublishUB(cnf.Weight(s.ub+baseCost), s.best)
	}
	s.observeShared()

	s.dfs()

	res.Iterations = int(s.nodes)
	switch {
	case s.aborted:
		res.Status = opt.StatusUnknown
		if s.best != nil {
			res.Cost = cnf.Weight(s.ub + baseCost)
			res.Model = s.best
		}
	case s.best == nil:
		res.Status = opt.StatusUnsat
	default:
		res.Status = opt.StatusOptimal
		res.Cost = cnf.Weight(s.ub + baseCost)
		res.LowerBound = res.Cost
		res.Model = s.best
	}
	return res
}

func (s *searcher) init() {
	s.val = make([]int8, s.nv)
	s.occPos = make([][]int32, s.nv)
	s.occNeg = make([][]int32, s.nv)
	s.satCnt = make([]int32, len(s.clauses))
	s.freeCnt = make([]int32, len(s.clauses))
	for ci, c := range s.clauses {
		s.freeCnt[ci] = int32(len(c.lits))
		for _, l := range c.lits {
			v := l.Var()
			if l.Sign() {
				s.occNeg[v] = append(s.occNeg[v], int32(ci))
			} else {
				s.occPos[v] = append(s.occPos[v], int32(ci))
			}
		}
	}
	s.vval = make([]int8, s.nv)
	s.vversion = make([]uint32, s.nv)
	s.vreason = make([]int32, s.nv)
	s.consumed = make([]uint32, len(s.clauses))
}

// majorityAssignment sets every variable to its more frequent polarity.
func (s *searcher) majorityAssignment() cnf.Assignment {
	a := make(cnf.Assignment, s.nv)
	for v := 0; v < s.nv; v++ {
		a[v] = len(s.occPos[v]) >= len(s.occNeg[v])
	}
	return a
}

func (s *searcher) litVal(l cnf.Lit) int8 {
	v := s.val[l.Var()]
	if v == vUndef {
		return vUndef
	}
	if l.Sign() {
		if v == vTrue {
			return vFalse
		}
		return vTrue
	}
	return v
}

// assign sets l true, updating clause counters and the cost. It sets
// s.hardBad when a hard clause becomes falsified.
func (s *searcher) assign(l cnf.Lit) {
	v := l.Var()
	if l.Sign() {
		s.val[v] = vFalse
	} else {
		s.val[v] = vTrue
	}
	s.trail = append(s.trail, v)
	sameOcc, oppOcc := s.occPos[v], s.occNeg[v]
	if l.Sign() {
		sameOcc, oppOcc = oppOcc, sameOcc
	}
	for _, ci := range sameOcc {
		s.satCnt[ci]++
		s.freeCnt[ci]--
	}
	for _, ci := range oppOcc {
		s.freeCnt[ci]--
		if s.freeCnt[ci] == 0 && s.satCnt[ci] == 0 {
			if w := s.clauses[ci].weight; w == hardWeight {
				s.hardBad = true
			} else {
				s.cost += w
			}
		}
	}
}

// undoTo unassigns trail entries beyond mark, reversing assign exactly.
func (s *searcher) undoTo(mark int) {
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		neg := s.val[v] == vFalse
		sameOcc, oppOcc := s.occPos[v], s.occNeg[v]
		if neg {
			sameOcc, oppOcc = oppOcc, sameOcc
		}
		for _, ci := range sameOcc {
			s.satCnt[ci]--
			s.freeCnt[ci]++
		}
		for _, ci := range oppOcc {
			if s.freeCnt[ci] == 0 && s.satCnt[ci] == 0 {
				if w := s.clauses[ci].weight; w != hardWeight {
					s.cost -= w
				}
			}
			s.freeCnt[ci]++
		}
		s.val[v] = vUndef
	}
	s.hardBad = false
}

// propagateHard forces unit hard clauses until fixpoint; it reports false on
// a hard conflict.
func (s *searcher) propagateHard() bool {
	for {
		if s.hardBad {
			return false
		}
		progress := false
		for ci, c := range s.clauses {
			if c.weight != hardWeight || s.satCnt[ci] > 0 || s.freeCnt[ci] != 1 {
				continue
			}
			for _, l := range c.lits {
				if s.litVal(l) == vUndef {
					s.assign(l)
					progress = true
					break
				}
			}
			if s.hardBad {
				return false
			}
		}
		if !progress {
			return true
		}
	}
}

func (s *searcher) expired() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// observeShared adopts an externally published model when it beats the
// current upper bound, tightening the pruning threshold mid-search.
func (s *searcher) observeShared() {
	ext, ok := s.shared.UB()
	if !ok || int64(ext)-s.baseCost >= s.ub {
		return
	}
	if cost, model, ok := s.shared.Best(); ok && int64(cost)-s.baseCost < s.ub {
		s.ub = int64(cost) - s.baseCost
		s.best = model
	}
}

// dfs explores the subtree under the current partial assignment.
func (s *searcher) dfs() {
	s.nodes++
	if s.nodes&63 == 0 {
		if s.pulse != nil {
			s.pulse.Add(1)
		}
		if s.expired() {
			s.aborted = true
			return
		}
		s.observeShared()
	}
	if s.cost >= s.ub {
		return
	}
	mark := len(s.trail)
	if !s.propagateHard() {
		s.undoTo(mark)
		return
	}
	if s.cost >= s.ub {
		s.undoTo(mark)
		return
	}
	if s.cost+s.underestimate() >= s.ub {
		s.undoTo(mark)
		return
	}
	v := s.pickVar()
	if v == cnf.VarUndef {
		// Complete assignment: record the improvement.
		s.ub = s.cost
		s.best = make(cnf.Assignment, s.nv)
		for i := 0; i < s.nv; i++ {
			// Unassigned isolated variables default to false.
			s.best[i] = s.val[i] == vTrue
		}
		s.shared.PublishUB(cnf.Weight(s.ub+s.baseCost), s.best)
		s.undoTo(mark)
		return
	}
	first := cnf.PosLit(v)
	if len(s.occNeg[v]) > len(s.occPos[v]) {
		first = cnf.NegLit(v)
	}
	for _, l := range []cnf.Lit{first, first.Neg()} {
		m2 := len(s.trail)
		s.assign(l)
		if !s.hardBad {
			s.dfs()
		}
		s.undoTo(m2)
		if s.aborted {
			break
		}
	}
	s.undoTo(mark)
}

// pickVar returns the unassigned variable with the highest MOMS-style
// score over active clauses, or VarUndef when every active clause is
// decided. Variables in no active clause are skipped: their value cannot
// change the cost.
func (s *searcher) pickVar() cnf.Var {
	bestVar := cnf.VarUndef
	bestScore := int64(-1)
	for v := 0; v < s.nv; v++ {
		if s.val[v] != vUndef {
			continue
		}
		score := int64(0)
		for _, ci := range s.occPos[v] {
			score += s.clauseScore(ci)
		}
		for _, ci := range s.occNeg[v] {
			score += s.clauseScore(ci)
		}
		if score > bestScore && score > 0 {
			bestScore = score
			bestVar = cnf.Var(v)
		}
	}
	return bestVar
}

// clauseScore weights active short clauses higher (unit clauses dominate).
func (s *searcher) clauseScore(ci int32) int64 {
	if s.satCnt[ci] > 0 || s.freeCnt[ci] == 0 {
		return 0
	}
	switch s.freeCnt[ci] {
	case 1:
		return 64
	case 2:
		return 8
	default:
		return 1
	}
}

// underestimate lower-bounds the additional soft weight every extension of
// the current assignment must pay, by repeatedly finding disjoint
// inconsistent subformulas via simulated unit propagation.
func (s *searcher) underestimate() int64 {
	var total int64
	s.version++
	s.roundBase = s.version // consumption tags for this round
	for {
		set, minW := s.upProbe()
		if set == nil {
			return total
		}
		for _, ci := range set {
			s.consumed[ci] = s.roundBase
		}
		total += minW
		if s.cost+total >= s.ub {
			return total
		}
	}
}

// upProbe simulates unit propagation over the active, non-consumed clauses.
// On deriving a conflict it returns the clause indices of the inconsistent
// subformula and the minimum soft weight within it; otherwise it returns
// (nil, 0). Virtual assignments are version-stamped so each probe starts
// clean without clearing.
func (s *searcher) upProbe() ([]int32, int64) {
	s.version++
	probeVersion := s.version
	for {
		progress := false
		for ci, c := range s.clauses {
			if s.consumed[ci] == s.roundBase || s.satCnt[ci] > 0 {
				continue
			}
			free := cnf.LitUndef
			nFree := 0
			satisfied := false
			for _, l := range c.lits {
				switch s.probeVal(l, probeVersion) {
				case vTrue:
					satisfied = true
				case vUndef:
					nFree++
					free = l
				}
				if satisfied || nFree > 1 {
					break
				}
			}
			if satisfied || nFree > 1 {
				continue
			}
			if nFree == 0 {
				if s.freeCnt[ci] == 0 {
					// Falsified by the real assignment: already in cost.
					continue
				}
				return s.collectConflict(int32(ci), probeVersion)
			}
			// Unit: virtually assign.
			v := free.Var()
			s.vversion[v] = probeVersion
			if free.Sign() {
				s.vval[v] = vFalse
			} else {
				s.vval[v] = vTrue
			}
			s.vreason[v] = int32(ci)
			progress = true
		}
		if !progress {
			return nil, 0
		}
	}
}

func (s *searcher) probeVal(l cnf.Lit, probeVersion uint32) int8 {
	if rv := s.litVal(l); rv != vUndef {
		return rv
	}
	v := l.Var()
	if s.vversion[v] != probeVersion {
		return vUndef
	}
	val := s.vval[v]
	if l.Sign() {
		if val == vTrue {
			return vFalse
		}
		return vTrue
	}
	return val
}

// collectConflict walks reasons from the conflicting clause, gathering the
// inconsistent subformula and its minimum soft weight.
func (s *searcher) collectConflict(conflict int32, probeVersion uint32) ([]int32, int64) {
	set := []int32{conflict}
	seenClause := map[int32]bool{conflict: true}
	minW := int64(1) << 60
	if w := s.clauses[conflict].weight; w != hardWeight && w < minW {
		minW = w
	}
	queue := []int32{conflict}
	for len(queue) > 0 {
		ci := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, l := range s.clauses[ci].lits {
			v := l.Var()
			if s.val[v] != vUndef || s.vversion[v] != probeVersion {
				continue
			}
			r := s.vreason[v]
			if !seenClause[r] {
				seenClause[r] = true
				set = append(set, r)
				queue = append(queue, r)
				if w := s.clauses[r].weight; w != hardWeight && w < minW {
					minW = w
				}
			}
		}
	}
	if minW == int64(1)<<60 {
		// All-hard inconsistency: the real propagation will discover it;
		// claim no soft weight (the subformula may not cost anything).
		minW = 0
	}
	return set, minW
}
