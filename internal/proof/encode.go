package proof

import (
	"cmp"
	"slices"

	"repro/internal/cnf"
)

// BoundFormula builds, deterministically, the CNF formula
//
//	hards(w)  ∧  ⋀_i (ω_i ∨ r_i)  ∧  Σ weight_i·r_i ≤ bound
//
// over fresh relaxation variables r_i (one per soft clause, in clause
// order). An assignment of w with cost ≤ bound extends to a model of the
// result by setting r_i exactly on the falsified softs, and conversely any
// model restricted to w's variables has cost ≤ bound — so the formula is
// unsatisfiable iff every assignment satisfying the hards costs more than
// bound. A DRAT refutation of it is therefore a machine-checkable lower
// bound, which is how certificates witness optimality (see certificate.go).
//
// Both the certificate producer (internal/opt) and the checker call this
// same function: the checker never trusts clauses stored in a certificate,
// it rebuilds the formula from (instance, bound) and checks the trace
// against its own copy. The encoder is part of the trusted base and is kept
// deliberately simple: a generalized totalizer (sums materialized as one
// variable per achievable value, capped at bound+1) with implication-only
// clauses, after normalizing weights by their GCD. Capping keeps the size
// O(softs · bound/gcd) in the worst case — fine for the small bounds
// core-guided optima have on this repo's workloads.
//
// The clauses share backing buffers: each is a view capped at its own end,
// so building a formula costs a few allocations rather than one per
// clause, and appending to a clause copies it instead of overwriting the
// next one.
func BoundFormula(w *cnf.WCNF, bound cnf.Weight) *cnf.Formula {
	f := cnf.NewFormula(w.NumVars)
	f.Clauses = make([]cnf.Clause, 0, len(w.Clauses))
	// add appends the clause head ∨ tail, carved from the current buffer.
	var buf []cnf.Lit
	add := func(head []cnf.Lit, tail ...cnf.Lit) {
		n := len(head) + len(tail)
		if cap(buf)-len(buf) < n {
			buf = make([]cnf.Lit, 0, max(n, 2*cap(buf), 256))
		}
		at := len(buf)
		buf = append(append(buf, head...), tail...)
		f.Clauses = append(f.Clauses, buf[at:len(buf):len(buf)])
	}
	type soft struct {
		weight cnf.Weight
		relax  cnf.Lit
	}
	var softs []soft
	next := cnf.Var(w.NumVars)
	for _, c := range w.Clauses {
		if c.Hard() {
			add(c.Clause)
			continue
		}
		r := cnf.PosLit(next)
		next++
		add(c.Clause, r)
		softs = append(softs, soft{weight: c.Weight, relax: r})
	}
	if len(softs) == 0 || bound < 0 {
		f.NumVars = int(next)
		return f
	}

	// Normalize by the GCD of the soft weights: Σ w_i·r_i ≤ B is
	// equivalent to Σ (w_i/g)·r_i ≤ ⌊B/g⌋ when g divides every w_i.
	g := cnf.Weight(0)
	for _, s := range softs {
		g = gcd(g, s.weight)
	}
	b := bound / g
	if b == 0 {
		// Cost ≤ 0: no soft may be relaxed.
		for _, s := range softs {
			add(nil, s.relax.Neg())
		}
		f.NumVars = int(next)
		return f
	}
	cap := b + 1

	// A node maps each achievable (capped) partial sum to the literal
	// asserting "the relaxed weight in this subtree reaches at least this
	// value". Leaves use the relaxation literal directly.
	type out struct {
		val cnf.Weight
		lit cnf.Lit
	}
	// at returns the literal of value v in a node, which is sorted by value.
	at := func(node []out, v cnf.Weight) cnf.Lit {
		i, _ := slices.BinarySearchFunc(node, v, func(o out, v cnf.Weight) int { return cmp.Compare(o.val, v) })
		return node[i].lit
	}
	nodes := make([][]out, len(softs))
	for i, s := range softs {
		v := s.weight / g
		if v > cap {
			v = cap
		}
		nodes[i] = []out{{val: v, lit: s.relax}}
	}
	// Balanced binary merge, left to right, until one root remains.
	var vals []cnf.Weight // a merge's achievable sums; scratch, reused
	for len(nodes) > 1 {
		merged := make([][]out, 0, (len(nodes)+1)/2)
		for i := 0; i+1 < len(nodes); i += 2 {
			a, bn := nodes[i], nodes[i+1]
			vals = vals[:0]
			for _, x := range a {
				vals = append(vals, x.val)
			}
			for _, y := range bn {
				vals = append(vals, y.val)
			}
			for _, x := range a {
				for _, y := range bn {
					s := x.val + y.val
					if s > cap {
						s = cap
					}
					vals = append(vals, s)
				}
			}
			slices.Sort(vals)
			vals = slices.Compact(vals)
			node := make([]out, 0, len(vals))
			for _, v := range vals {
				node = append(node, out{val: v, lit: cnf.PosLit(next)})
				next++
			}
			for _, x := range a {
				add(nil, x.lit.Neg(), at(node, x.val))
			}
			for _, y := range bn {
				add(nil, y.lit.Neg(), at(node, y.val))
			}
			for _, x := range a {
				for _, y := range bn {
					s := x.val + y.val
					if s > cap {
						s = cap
					}
					add(nil, x.lit.Neg(), y.lit.Neg(), at(node, s))
				}
			}
			merged = append(merged, node)
		}
		if len(nodes)%2 == 1 {
			merged = append(merged, nodes[len(nodes)-1])
		}
		nodes = merged
	}
	// Forbid every root sum exceeding the bound (with capping, exactly
	// the cap output when present).
	for _, o := range nodes[0] {
		if o.val > b {
			add(nil, o.lit.Neg())
		}
	}
	f.NumVars = int(next)
	return f
}

func gcd(a, b cnf.Weight) cnf.Weight {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
