package serve

import "repro/internal/cnf"

// Canonical formula fingerprinting: every literal is hashed through the
// SplitMix64 finalizer and the hashes are combined by addition, both within
// a clause and across clauses. Addition is commutative — two copies of the
// same formula fingerprint identically regardless of clause order or of
// literal order inside a clause — but, unlike XOR, it is
// duplicate-sensitive: a repeated literal (DIMACS parsing does not dedup) or
// a repeated clause changes the fingerprint instead of cancelling out.
// Cancellation would be fatal here, because two *different* formulas
// colliding on the cache key could serve a wrong UNSAT verdict (UNSAT
// carries no model to re-verify).
//
// The fingerprint is a cache key, not a proof of identity: a 64-bit collision
// between two different formulas is possible, and since the finalizer is
// invertible and the combine is a sum, one can be crafted. The cache keys on
// the formula's shape too (variable count, clause count, soft-weight sum),
// which a crafted collision can match as well. What a collision costs
// depends on the verdict it hits (see verifiedStore.lookup): a certified
// verdict is re-proved against the submitted formula, so the collision costs
// a miss; an uncertified OPTIMAL verdict's model is re-checked for its cost
// on the submitted formula, not for being optimal there, and an uncertified
// UNSAT verdict is not re-checked at all, so a collision on either can serve
// a wrong answer.

// splitmix64 is the SplitMix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fingerprint returns the canonical fingerprint of w: invariant under clause
// reordering and under literal reordering inside a clause, sensitive to
// weights, duplicate clauses, and the declared variable count.
func Fingerprint(w *cnf.WCNF) uint64 {
	var sum uint64
	for _, c := range w.Clauses {
		ch := splitmix64(uint64(len(c.Clause))) + splitmix64(uint64(c.Weight))
		for _, l := range c.Clause {
			ch += splitmix64(uint64(uint32(l)))
		}
		sum += splitmix64(ch)
	}
	return splitmix64(sum + splitmix64(uint64(w.NumVars)))
}

// formulaKey is the result-cache key: the canonical fingerprint hardened with
// the formula's shape. Options are deliberately absent — a verified OPTIMAL
// (or UNSATISFIABLE) verdict is a fact about the formula alone, so a result
// proved by one algorithm answers a resubmission under any other.
type formulaKey struct {
	fp      uint64
	numVars int
	clauses int
	softSum cnf.Weight
}

// jobKey identifies an in-flight submission for coalescing: the formula plus
// the caller's canonical options string. Unlike the cache, coalescing joins a
// *running* job, so the options must match — racing msu4 and racing the
// portfolio are different work even on the same formula.
type jobKey struct {
	formulaKey
	opts string
}

func keyFor(w *cnf.WCNF) formulaKey {
	return formulaKey{
		fp:      Fingerprint(w),
		numVars: w.NumVars,
		clauses: len(w.Clauses),
		softSum: w.SoftWeightSum(),
	}
}
