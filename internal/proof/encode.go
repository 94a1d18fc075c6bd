package proof

import (
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
	var e encoder
	f := *e.build(w, bound) // a copy: the formula does not keep e's scratch alive
	return &f
}

// encoder holds the buffers a bound formula is built in. BoundFormula uses
// a fresh one for every formula, which it hands to the caller (opt.Certify
// gives it to a SAT solver); a Checker reuses its encoder across steps and
// certificates, since its formulas never leave the check.
type encoder struct {
	f      cnf.Formula
	lits   []cnf.Lit // the clause buffer being carved
	softs  []soft
	outs   []out // the buffer the nodes are carved from
	nodes  [][]out
	merged [][]out
	vals   []cnf.Weight // a merge's achievable sums
}

type soft struct {
	weight cnf.Weight
	relax  cnf.Lit
}

// out is one output of a totalizer node: the literal asserting "the relaxed
// weight in this subtree reaches at least val".
type out struct {
	val cnf.Weight
	lit cnf.Lit
}

// add appends the clause head ∨ tail, carved from the current buffer.
func (e *encoder) add(head []cnf.Lit, tail ...cnf.Lit) {
	n := len(head) + len(tail)
	if cap(e.lits)-len(e.lits) < n {
		e.lits = make([]cnf.Lit, 0, max(n, 2*cap(e.lits), 256))
	}
	at := len(e.lits)
	e.lits = append(append(e.lits, head...), tail...)
	e.f.Clauses = append(e.f.Clauses, e.lits[at:len(e.lits):len(e.lits)])
}

// node carves a node of n outputs from the current buffer.
func (e *encoder) node(n int) []out {
	if cap(e.outs)-len(e.outs) < n {
		e.outs = make([]out, 0, max(n, 2*cap(e.outs), 256))
	}
	at := len(e.outs)
	e.outs = e.outs[:at+n]
	return e.outs[at : at+n : at+n]
}

// build builds BoundFormula(w, bound) in e's buffers; the result is valid
// until e builds the next one.
func (e *encoder) build(w *cnf.WCNF, bound cnf.Weight) *cnf.Formula {
	f := &e.f
	f.NumVars = w.NumVars
	f.Clauses = slices.Grow(f.Clauses[:0], len(w.Clauses))
	e.lits, e.outs = e.lits[:0], e.outs[:0]
	softs := e.softs[:0]
	next := cnf.Var(w.NumVars)
	for _, c := range w.Clauses {
		if c.Hard() {
			e.add(c.Clause)
			continue
		}
		r := cnf.PosLit(next)
		next++
		e.add(c.Clause, r)
		softs = append(softs, soft{weight: c.Weight, relax: r})
	}
	e.softs = softs
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
			e.add(nil, s.relax.Neg())
		}
		f.NumVars = int(next)
		return f
	}
	limit := b + 1

	// A node maps each achievable (capped) partial sum to the literal
	// asserting "the relaxed weight in this subtree reaches at least this
	// value", sorted by value. Leaves use the relaxation literal directly.
	nodes := e.nodes[:0]
	for _, s := range softs {
		leaf := e.node(1)
		leaf[0] = out{val: min(s.weight/g, limit), lit: s.relax}
		nodes = append(nodes, leaf)
	}
	// seek returns the index of value v in node, which holds it at k or
	// after: the sums each loop below looks up never decrease, so every
	// lookup walks on from the last one.
	seek := func(node []out, k int, v cnf.Weight) int {
		for node[k].val < v {
			k++
		}
		return k
	}
	// Balanced binary merge, left to right, until one root remains.
	merged := e.merged
	for len(nodes) > 1 {
		merged = merged[:0]
		for i := 0; i+1 < len(nodes); i += 2 {
			a, bn := nodes[i], nodes[i+1]
			vals := e.vals[:0]
			for _, x := range a {
				vals = append(vals, x.val)
			}
			for _, y := range bn {
				vals = append(vals, y.val)
			}
			for _, x := range a {
				for _, y := range bn {
					vals = append(vals, min(x.val+y.val, limit))
				}
			}
			slices.Sort(vals)
			vals = slices.Compact(vals)
			e.vals = vals
			node := e.node(len(vals))
			for j, v := range vals {
				node[j] = out{val: v, lit: cnf.PosLit(next)}
				next++
			}
			k := 0
			for _, x := range a {
				k = seek(node, k, x.val)
				e.add(nil, x.lit.Neg(), node[k].lit)
			}
			k = 0
			for _, y := range bn {
				k = seek(node, k, y.val)
				e.add(nil, y.lit.Neg(), node[k].lit)
			}
			// Each row of pairs starts its walk at its first sum, which
			// never decreases from one row to the next.
			row := 0
			for _, x := range a {
				row = seek(node, row, min(x.val+bn[0].val, limit))
				k = row
				for _, y := range bn {
					k = seek(node, k, min(x.val+y.val, limit))
					e.add(nil, x.lit.Neg(), y.lit.Neg(), node[k].lit)
				}
			}
			merged = append(merged, node)
		}
		if len(nodes)%2 == 1 {
			merged = append(merged, nodes[len(nodes)-1])
		}
		nodes, merged = merged, nodes
	}
	e.nodes, e.merged = nodes, merged
	// Forbid every root sum exceeding the bound (with capping, exactly
	// the limit output when present).
	for _, o := range nodes[0] {
		if o.val > b {
			e.add(nil, o.lit.Neg())
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
