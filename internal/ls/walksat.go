// Package ls provides stochastic local search for MaxSAT upper bounds — a
// WalkSAT-style optimizer in the tradition the paper's Section 2.1 calls
// "an alternative, in general incomplete, approach to MaxSAT".
//
// The searcher is used two ways in this repository: standalone, as an
// incomplete any-time MaxSAT solver, and inside the branch-and-bound
// baseline as a stronger initial upper bound than the greedy
// majority-polarity assignment.
package ls

import (
	"context"
	"math/rand"

	"repro/internal/cnf"
)

// Params tunes the walk.
type Params struct {
	// Seed makes the walk deterministic.
	Seed int64
	// MaxFlips per try. 0 means 10000.
	MaxFlips int
	// Tries (restarts). 0 means 10.
	Tries int
	// OnImprove, when non-nil, is called with every strict improvement of
	// the best hard-feasible assignment (cost, then the model, which the
	// callback must not retain past the call). The portfolio engine uses it
	// to seed the shared upper bound while the walk is still running.
	OnImprove func(cost cnf.Weight, model cnf.Assignment)
}

// Result is the best assignment found.
type Result struct {
	// Cost is the total weight of falsified soft clauses, or -1 when no
	// hard-feasible assignment was encountered.
	Cost cnf.Weight
	// Model achieves Cost (nil when Cost is -1).
	Model cnf.Assignment
	// Flips is the number of flips performed across all tries.
	Flips int
}

// noise is the random-walk probability: the chance that a flip picks a
// random literal of the falsified clause instead of the greedy best.
const noise = 0.2

type wClause struct {
	lits   []cnf.Lit
	weight cnf.Weight // effective weight during the walk
	soft   bool
}

// Minimize runs WalkSAT on the instance and returns the best hard-feasible
// assignment seen. It never proves optimality. Cancelling ctx stops the
// walk at the next flip-batch boundary.
func Minimize(ctx context.Context, w *cnf.WCNF, p Params) Result {
	if p.MaxFlips == 0 {
		p.MaxFlips = 10000
	}
	if p.Tries == 0 {
		p.Tries = 10
	}
	// Hard clauses weigh more than every soft clause together during the
	// walk, so any hard violation dominates.
	hardWeight := w.SoftWeightSum() + 1
	rng := rand.New(rand.NewSource(p.Seed))

	// Normalized clause set; empty soft clauses contribute a fixed cost.
	var clauses []wClause
	var baseCost cnf.Weight
	for _, c := range w.Clauses {
		norm, taut := c.Clause.Clone().Normalize()
		if taut {
			continue
		}
		if len(norm) == 0 {
			if c.Hard() {
				return Result{Cost: -1} // hard empty clause: infeasible
			}
			baseCost += c.Weight
			continue
		}
		wc := wClause{lits: norm, weight: hardWeight}
		if !c.Hard() {
			wc.weight = c.Weight
			wc.soft = true
		}
		clauses = append(clauses, wc)
	}
	n := w.NumVars

	occ := make([][]int32, 2*n)
	for ci, c := range clauses {
		for _, l := range c.lits {
			occ[l] = append(occ[l], int32(ci))
		}
	}

	best := Result{Cost: -1}
	a := make(cnf.Assignment, n)
	trueCnt := make([]int32, len(clauses))
	falseClauses := make([]int32, 0, len(clauses))
	falsePos := make([]int32, len(clauses)) // index in falseClauses, -1 if sat

	for try := 0; try < p.Tries; try++ {
		if ctx.Err() != nil {
			break
		}
		for v := range a {
			a[v] = rng.Intn(2) == 0
		}
		// Initialize counters.
		falseClauses = falseClauses[:0]
		var cur cnf.Weight // weighted cost incl. hard penalties
		for ci, c := range clauses {
			cnt := int32(0)
			for _, l := range c.lits {
				if a.Lit(l) {
					cnt++
				}
			}
			trueCnt[ci] = cnt
			if cnt == 0 {
				falsePos[ci] = int32(len(falseClauses))
				falseClauses = append(falseClauses, int32(ci))
				cur += c.weight
			} else {
				falsePos[ci] = -1
			}
		}
		record := func() {
			cost, hardOK := softCost(clauses, trueCnt, baseCost)
			if !hardOK {
				return
			}
			if best.Cost >= 0 && cost >= best.Cost {
				return
			}
			best.Cost = cost
			best.Model = append(cnf.Assignment{}, a...)
			if p.OnImprove != nil {
				p.OnImprove(best.Cost, best.Model)
			}
		}
		record()

		for flip := 0; flip < p.MaxFlips; flip++ {
			if len(falseClauses) == 0 {
				break // everything satisfied: cost == baseCost, can't improve
			}
			if flip&1023 == 0 && ctx.Err() != nil {
				break
			}
			best.Flips++
			c := clauses[falseClauses[rng.Intn(len(falseClauses))]]
			var v cnf.Var
			if rng.Float64() < noise {
				v = c.lits[rng.Intn(len(c.lits))].Var()
			} else {
				// Pick the literal with minimal weighted break.
				bestBreak := cnf.Weight(-1)
				for _, l := range c.lits {
					br := breakWeight(clauses, occ, trueCnt, a, l.Var())
					if bestBreak < 0 || br < bestBreak {
						bestBreak = br
						v = l.Var()
					}
				}
			}
			flipVar(clauses, occ, trueCnt, a, v, &falseClauses, falsePos)
			record()
		}
	}
	return best
}

// softCost computes the soft falsified weight and hard feasibility from the
// true-literal counters.
func softCost(clauses []wClause, trueCnt []int32, baseCost cnf.Weight) (cnf.Weight, bool) {
	cost := baseCost
	hardOK := true
	for ci, c := range clauses {
		if trueCnt[ci] > 0 {
			continue
		}
		if c.soft {
			cost += c.weight
		} else {
			hardOK = false
		}
	}
	return cost, hardOK
}

// breakWeight sums the weights of clauses that become falsified when v is
// flipped (clauses where v currently provides the only true literal).
func breakWeight(clauses []wClause, occ [][]int32, trueCnt []int32, a cnf.Assignment, v cnf.Var) cnf.Weight {
	cur := cnf.NewLit(v, !a[v]) // literal currently true
	var br cnf.Weight
	for _, ci := range occ[cur] {
		if trueCnt[ci] == 1 {
			br += clauses[ci].weight
		}
	}
	return br
}

// flipVar flips v and maintains counters and the false-clause worklist.
func flipVar(clauses []wClause, occ [][]int32, trueCnt []int32, a cnf.Assignment, v cnf.Var, falseClauses *[]int32, falsePos []int32) {
	wasTrue := cnf.NewLit(v, !a[v])
	a[v] = !a[v]
	nowTrue := wasTrue.Neg()
	for _, ci := range occ[wasTrue] {
		trueCnt[ci]--
		if trueCnt[ci] == 0 {
			falsePos[ci] = int32(len(*falseClauses))
			*falseClauses = append(*falseClauses, ci)
		}
	}
	for _, ci := range occ[nowTrue] {
		trueCnt[ci]++
		if trueCnt[ci] == 1 {
			// Remove from false worklist (swap-delete).
			pos := falsePos[ci]
			last := (*falseClauses)[len(*falseClauses)-1]
			(*falseClauses)[pos] = last
			falsePos[last] = pos
			*falseClauses = (*falseClauses)[:len(*falseClauses)-1]
			falsePos[ci] = -1
		}
	}
}
