package proof_test

// Deletion semantics of the checker, and a differential fuzz target that
// holds it against the test-only oracle (oracle_test.go): the checker as it
// stood before it kept the units' fixpoint across lemma checks and built its
// deletion index on demand.

import (
	"context"
	"slices"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/proof"
	"repro/internal/sat"
)

// dimacs builds a clause from 1-based signed DIMACS literals.
func dimacs(ls ...int) []cnf.Lit {
	out := make([]cnf.Lit, len(ls))
	for i, l := range ls {
		out[i] = cnf.FromDIMACS(l)
	}
	return out
}

func formulaOf(nv int, clauses ...[]int) *cnf.Formula {
	f := cnf.NewFormula(nv)
	for _, c := range clauses {
		f.AddClause(dimacs(c...)...)
	}
	return f
}

func learn(ls ...int) proof.Record { return proof.Record{Op: proof.OpLearn, Lits: dimacs(ls...)} }
func del(ls ...int) proof.Record   { return proof.Record{Op: proof.OpDelete, Lits: dimacs(ls...)} }

func trace(recs ...proof.Record) *proof.Trace { return &proof.Trace{Records: recs} }

func TestDeletionSemantics(t *testing.T) {
	// x1, ¬x2 and (¬x1 ∨ x2) conflict by unit propagation, and only
	// through the binary clause.
	chain := formulaOf(2, []int{1}, []int{-2}, []int{-1, 2})
	// The four binary clauses over x1, x2: refuted by the lemma x2, whose
	// check needs (x1 ∨ x2) and (¬x1 ∨ x2).
	square := formulaOf(2, []int{1, 2}, []int{-1, 2}, []int{1, -2}, []int{-1, -2})

	t.Run("matches-the-literal-set", func(t *testing.T) {
		if err := proof.CheckTrace(chain, trace(learn())); err != nil {
			t.Fatalf("refutation without the deletion rejected: %v", err)
		}
		for _, d := range []proof.Record{del(2, -1), del(-1, 2, 2), del(2, -1, -1, 2)} {
			if err := proof.CheckTrace(chain, trace(d, learn())); err == nil {
				t.Errorf("deleting %v did not delete (¬x1 ∨ x2): the refutation still checked", d.Lits)
			}
		}
	})

	t.Run("most-recent-active-copy", func(t *testing.T) {
		// The lemma repeats the formula's clause in another order. One
		// deletion removes the lemma (the most recent copy), so the final
		// conflict runs through the formula's copy and Trim drops the
		// lemma; deleting the older copy would leave the lemma as the only
		// one, marked and kept.
		tr := trace(learn(2, -1), del(-1, 2), learn())
		for name, trim := range map[string]func(*cnf.Formula, *proof.Trace) (*proof.Trace, error){
			"checker": proof.Trim, "oracle": proof.OracleTrim,
		} {
			got, err := trim(chain, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got.Records) != 1 {
				t.Errorf("%s kept %d records, want only the empty clause: %+v", name, len(got.Records), got.Records)
			}
		}
		// Two deletions remove both copies.
		if err := proof.CheckTrace(chain, trace(learn(2, -1), del(-1, 2), del(-1, 2), learn())); err == nil {
			t.Error("two deletions left a copy of the clause active")
		}
	})

	t.Run("delete-before-a-lemma-that-needs-it", func(t *testing.T) {
		if err := proof.CheckTrace(square, trace(learn(2), learn())); err != nil {
			t.Fatalf("refutation rejected: %v", err)
		}
		if err := proof.CheckTrace(square, trace(learn(2), del(-1, 2), learn())); err != nil {
			t.Fatalf("deleting (¬x1 ∨ x2) after its last use rejected the refutation: %v", err)
		}
		if err := proof.CheckTrace(square, trace(del(-1, 2), learn(2), learn())); err == nil {
			t.Fatal("lemma x2 accepted after the deletion of a clause its check needs")
		}
		// A lemma added after the first deletion (here of a clause never
		// added) can be deleted too.
		if err := proof.CheckTrace(square, trace(del(1), learn(2), del(2), learn())); err == nil {
			t.Fatal("empty clause accepted after the deletion of the lemma x2 it needs")
		}
	})

	t.Run("undelete-restores-the-clause", func(t *testing.T) {
		// Variables: a=1 h=2 c=3 z=4 p=5 b=6 q=7. The lemma (c ∨ z) needs
		// C = (¬a ∨ ¬h ∨ b), which the next record deletes. M = (q)'s check
		// derives the units' fixpoint {a, h} while C is deleted, so C's two
		// watches, ¬a and ¬h, are both false there. When the backward
		// sweep undeletes C, C is unit under that fixpoint without any
		// watch left to notice; only a rebuilt fixpoint derives b, then c,
		// and lets (c ∨ z) pass.
		f := formulaOf(7,
			[]int{1}, []int{2}, // a, h
			[]int{-1, -2, 6},            // C
			[]int{-6, 3},                // b → c
			[]int{7, -3},                // c → q
			[]int{-4, 7},                // z → q
			[]int{5, -7}, []int{-5, -7}, // q refuted
		)
		tr := trace(learn(3, 4), del(-1, -2, 6), learn(7), learn())
		if err := proof.OracleCheckTrace(f, tr); err != nil {
			t.Fatalf("oracle rejected the refutation: %v", err)
		}
		if err := proof.CheckTrace(f, tr); err != nil {
			t.Fatalf("checker rejected the refutation: %v", err)
		}
		trimmed, err := proof.Trim(f, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(trimmed.Records) != 3 {
			t.Fatalf("trim kept %d records, want (c ∨ z), (q) and the empty clause", len(trimmed.Records))
		}
	})
}

// TestRetiringDropsFixpoint feeds the checker bogus refutations of
// satisfiable formulas whose final conflict runs through the kept
// fixpoint. Each must be rejected: the sweep has to drop the fixpoint when
// it retires the clause the fixpoint conflicts on, or the reason of one of
// its literals, or the lemmas before it would be checked against clauses
// that come after them.
func TestRetiringDropsFixpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		tr   *proof.Trace
	}{
		// The unit lemma ¬a conflicts with the formula's unit a, so the
		// fixpoint conflicts on ¬a itself; a alone does not refute ¬a.
		{"retired-conflict", formulaOf(1, []int{1}), trace(learn(-1), learn())},
		// The lemma b is bogus (¬b propagates only ¬a). The lemma a is
		// RUP given b, and the fixpoint {b, a} conflicts on (¬a ∨ ¬b) with
		// the lemmas as reasons of its literals.
		{"retired-reason", formulaOf(2, []int{-1, 2}, []int{1, -2}, []int{-1, -2}), trace(learn(2), learn(1), learn())},
		// The binary lemma (a ∨ b) is bogus. Under the formula's unit ¬a
		// it implies b through its second literal, and b conflicts on
		// (¬b ∨ c) and (¬b ∨ ¬c), so the fixpoint conflicts with the lemma
		// as the reason of b.
		{"retired-binary-reason", formulaOf(3, []int{-1}, []int{-2, 3}, []int{-2, -3}), trace(learn(1, 2), learn())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if sat, _ := brute.SAT(tc.f); !sat {
				t.Fatal("the formula must be satisfiable")
			}
			if err := proof.OracleCheckTrace(tc.f, tc.tr); err == nil {
				t.Error("oracle accepted a refutation of a satisfiable formula")
			}
			if err := proof.CheckTrace(tc.f, tc.tr); err == nil {
				t.Error("checker accepted a refutation of a satisfiable formula")
			}
		})
	}
}

// TestCheckAllocs checks a fixed certificate, the OLL certificate of
// PHP(7, 6), and requires fewer allocations than the clauses the check
// installs: the bound formula's clauses are carved from shared buffers and
// the checker copies every clause into one arena, so what still allocates
// is the watch lists, about one per watched literal. A checker or encoder
// that allocates once per clause fails.
func TestCheckAllocs(t *testing.T) {
	in := gen.Pigeonhole(6)
	r := core.NewOLL(opt.Options{}).Solve(context.Background(), in.W, nil)
	data, err := opt.Certify(context.Background(), in.W, r, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := proof.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	installed := 0
	for _, st := range cert.Steps {
		installed += len(proof.BoundFormula(in.W, st.Bound).Clauses) + len(st.Trace.Records)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := proof.Check(in.W, cert); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= float64(installed) {
		t.Errorf("checking the certificate allocated %.0f times for %d installed clauses", allocs, installed)
	}
}

// fuzzFormula builds a small CNF from a byte stream: each clause starts with
// a width byte (1 to 3 literals), followed by that many literal bytes
// (variable modulo nv, sign from the high bit).
func fuzzFormula(data []byte) *cnf.Formula {
	const nv, maxClauses = 5, 24
	f := cnf.NewFormula(nv)
	for i := 0; i < len(data) && len(f.Clauses) < maxClauses; {
		width := int(data[i]%3) + 1
		i++
		if i+width > len(data) {
			break
		}
		lits := make([]cnf.Lit, width)
		for j, b := range data[i : i+width] {
			lits[j] = cnf.PosLit(cnf.Var(b % nv))
			if b >= 128 {
				lits[j] = lits[j].Neg()
			}
		}
		i += width
		f.AddClause(lits...)
	}
	return f
}

// fuzzBytes encodes DIMACS clauses in fuzzFormula's byte format.
func fuzzBytes(clauses ...[]int) []byte {
	var b []byte
	for _, c := range clauses {
		b = append(b, byte(len(c)-1))
		for _, l := range c {
			if l > 0 {
				b = append(b, byte(l-1))
			} else {
				b = append(b, byte(128+(-l-1+2)%5)) // 128+k ≡ k+3 (mod 5)
			}
		}
	}
	return b
}

// solverRefutation returns a proof-logged solver's refutation of the
// unsatisfiable f, untrimmed: its deletions are kept.
func solverRefutation(t *testing.T, f *cnf.Formula) *proof.Trace {
	t.Helper()
	s := sat.New()
	s.EnsureVars(f.NumVars)
	for _, c := range f.Clauses {
		if !s.AddClauseFrom(c) {
			return trace(learn())
		}
	}
	rec := proof.NewRecorder()
	s.SetProof(rec)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("solver says %v on a formula brute force refutes", st)
	}
	return rec.Trace()
}

// mutate applies one fuzzer-chosen edit to a copy of tr: drop, duplicate or
// swap a record, flip a literal, insert a deletion of an earlier clause, or
// drop a deletion. Kind 0 (mod 7) leaves the trace as it is. A hint list
// moves with its record (a deletion gets none), so the ids in the lists
// keep naming records by their old positions.
func mutate(f *cnf.Formula, tr *proof.Trace, kind, pos, arg byte) *proof.Trace {
	recs := make([]proof.Record, len(tr.Records))
	for i, r := range tr.Records {
		recs[i] = proof.Record{Op: r.Op, Lits: slices.Clone(r.Lits)}
	}
	hints := slices.Clone(tr.Hints)
	for len(hints) < len(recs) {
		hints = append(hints, nil)
	}
	i := int(pos) % len(recs)
	switch kind % 7 {
	case 1:
		recs = slices.Delete(recs, i, i+1)
		hints = slices.Delete(hints, i, i+1)
	case 2:
		recs = slices.Insert(recs, i, recs[i])
		hints = slices.Insert(hints, i, hints[i])
	case 3:
		if i+1 < len(recs) {
			recs[i], recs[i+1] = recs[i+1], recs[i]
			hints[i], hints[i+1] = hints[i+1], hints[i]
		}
	case 4:
		if n := len(recs[i].Lits); n > 0 {
			recs[i].Lits[int(arg)%n] ^= 1
		}
	case 5:
		// Any formula clause or lemma before position i.
		var pool [][]cnf.Lit
		for _, c := range f.Clauses {
			pool = append(pool, c)
		}
		for _, r := range recs[:i] {
			if r.Op == proof.OpLearn {
				pool = append(pool, r.Lits)
			}
		}
		if len(pool) > 0 {
			d := proof.Record{Op: proof.OpDelete, Lits: slices.Clone(pool[int(arg)%len(pool)])}
			recs = slices.Insert(recs, i, d)
			hints = slices.Insert(hints, i, nil)
		}
	case 6:
		var dels []int
		for j, r := range recs {
			if r.Op == proof.OpDelete {
				dels = append(dels, j)
			}
		}
		if len(dels) > 0 {
			j := dels[int(arg)%len(dels)]
			recs = slices.Delete(recs, j, j+1)
			hints = slices.Delete(hints, j, j+1)
		}
	}
	if tr.Hints == nil {
		hints = nil
	}
	return &proof.Trace{Records: recs, Hints: hints}
}

// mutateHints applies one fuzzer-chosen edit to a copy of hints: set an id
// to arg−8 (negative, a later record or out of range as often as not), drop
// or duplicate an id, swap two neighbouring ids, or drop a whole list. Kind
// 0 (mod 6) leaves them as they are.
func mutateHints(hints [][]int32, kind, pos, arg byte) [][]int32 {
	out := make([][]int32, len(hints))
	for i, h := range hints {
		out[i] = slices.Clone(h)
	}
	if len(out) == 0 {
		return out
	}
	i := int(pos) % len(out)
	h := out[i]
	j := 0
	if len(h) > 0 {
		j = int(arg) % len(h)
	}
	switch kind % 6 {
	case 1:
		if len(h) > 0 {
			h[j] = int32(arg) - 8
		}
	case 2:
		if len(h) > 0 {
			out[i] = slices.Delete(h, j, j+1)
		}
	case 3:
		if len(h) > 0 {
			out[i] = slices.Insert(h, j, h[j])
		}
	case 4:
		if j+1 < len(h) {
			h[j], h[j+1] = h[j+1], h[j]
		}
	case 5:
		out = slices.Delete(out, i, i+1)
	}
	return out
}

// cube3 returns all eight ternary clauses over x1, x2, x3.
func cube3() [][]int {
	var cube [][]int
	for m := 0; m < 8; m++ {
		c := []int{1, 2, 3}
		for j := range c {
			if m&(1<<j) != 0 {
				c[j] = -c[j]
			}
		}
		cube = append(cube, c)
	}
	return cube
}

// lessOne returns base itself or, as drop chooses, base less one clause,
// which may be satisfiable and renumbers the clauses after it.
func lessOne(base *cnf.Formula, drop byte) *cnf.Formula {
	k := int(drop) % (len(base.Clauses) + 1)
	if k == len(base.Clauses) {
		return base
	}
	f := cnf.NewFormula(base.NumVars)
	for i, c := range base.Clauses {
		if i != k {
			f.AddClause(c...)
		}
	}
	return f
}

// FuzzCheckerVsOracle checks a solver's refutation of a fuzzer-chosen
// unsatisfiable formula, after a fuzzer-chosen mutation, with the checker
// and the oracle. The target is the formula itself or, as the fuzzer
// chooses, the formula less one clause, which may be satisfiable. Both
// checkers accept every unmutated refutation of the formula itself;
// whenever either accepts, brute force finds the target unsatisfiable; and
// whatever the checker's Trim returns verifies under the oracle.
func FuzzCheckerVsOracle(f *testing.F) {
	square := fuzzBytes([]int{1, 2}, []int{-1, 2}, []int{1, -2}, []int{-1, -2})
	chain := fuzzBytes([]int{1}, []int{-1, 2}, []int{-2, 3}, []int{-3, 4}, []int{-4})
	cube := cube3()
	f.Add(square, byte(0), byte(0), byte(0), byte(4))
	f.Add(chain, byte(5), byte(1), byte(2), byte(0))
	f.Add(fuzzBytes(cube...), byte(0), byte(0), byte(0), byte(8))
	f.Add(fuzzBytes(cube...), byte(6), byte(3), byte(0), byte(8))
	f.Add(fuzzBytes(append(cube, []int{4, 5}, []int{-4, 5})...), byte(4), byte(2), byte(1), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, kind, pos, arg, drop byte) {
		base := fuzzFormula(data)
		if len(base.Clauses) == 0 {
			t.Skip()
		}
		if sat, _ := brute.SAT(base); sat {
			t.Skip()
		}
		tr := mutate(base, solverRefutation(t, base), kind, pos, arg)
		target := lessOne(base, drop)
		errChecker := proof.CheckTrace(target, tr)
		errOracle := proof.OracleCheckTrace(target, tr)
		if kind%7 == 0 && target == base && (errChecker != nil || errOracle != nil) {
			t.Fatalf("unmutated refutation rejected: checker %v, oracle %v", errChecker, errOracle)
		}
		if errChecker == nil || errOracle == nil {
			if sat, model := brute.SAT(target); sat {
				t.Fatalf("a refutation of a satisfiable formula was accepted (model %v): checker %v, oracle %v",
					model, errChecker, errOracle)
			}
		}
		if errChecker != nil {
			return
		}
		trimmed, err := proof.Trim(target, tr)
		if err != nil {
			t.Fatalf("Trim rejected a trace CheckTrace accepted: %v", err)
		}
		if err := proof.OracleCheckTrace(target, trimmed); err != nil {
			t.Fatalf("the oracle rejected the trimmed trace: %v", err)
		}
	})
}

// FuzzHintedVsOracle checks Trim's hinted refutation of a fuzzer-chosen
// unsatisfiable formula, after a fuzzer-chosen mutation of its records
// (mutate) and one of its hints (mutateHints), with the hinted kernel alone,
// without CheckTrace's fallback, and with the oracle. The target is the
// formula itself or, as the fuzzer chooses, the formula less one clause,
// which renumbers the clauses after it. The kernel accepts every unmutated
// hinted refutation of the formula itself, and never accepts a trace the
// oracle rejects.
func FuzzHintedVsOracle(f *testing.F) {
	square := fuzzBytes([]int{1, 2}, []int{-1, 2}, []int{1, -2}, []int{-1, -2})
	chain := fuzzBytes([]int{1}, []int{-1, 2}, []int{-2, 3}, []int{-3, 4}, []int{-4})
	cube := cube3()
	f.Add(square, byte(0), byte(0), byte(0), byte(0), byte(0), byte(0), byte(4))
	f.Add(chain, byte(0), byte(0), byte(0), byte(1), byte(2), byte(9), byte(5))
	f.Add(fuzzBytes(cube...), byte(0), byte(0), byte(0), byte(0), byte(0), byte(0), byte(8))
	f.Add(fuzzBytes(cube...), byte(4), byte(2), byte(1), byte(0), byte(0), byte(0), byte(8))
	f.Add(fuzzBytes(cube...), byte(3), byte(1), byte(0), byte(4), byte(1), byte(0), byte(8))
	f.Add(fuzzBytes(append(cube, []int{4, 5}, []int{-4, 5})...), byte(0), byte(0), byte(0), byte(2), byte(3), byte(1), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, kind, pos, arg, hkind, hpos, harg, drop byte) {
		base := fuzzFormula(data)
		if len(base.Clauses) == 0 {
			t.Skip()
		}
		if sat, _ := brute.SAT(base); sat {
			t.Skip()
		}
		trimmed, err := proof.Trim(base, solverRefutation(t, base))
		if err != nil {
			t.Fatalf("Trim rejected a solver refutation: %v", err)
		}
		tr := mutate(base, trimmed, kind, pos, arg)
		tr.Hints = mutateHints(tr.Hints, hkind, hpos, harg)
		target := lessOne(base, drop)
		errHinted := proof.CheckHinted(target, tr)
		if kind%7 == 0 && hkind%6 == 0 && target == base && errHinted != nil {
			t.Fatalf("unmutated hinted refutation rejected: %v", errHinted)
		}
		if errHinted == nil {
			if err := proof.OracleCheckTrace(target, tr); err != nil {
				t.Fatalf("the hinted kernel accepted a trace the oracle rejects: %v", err)
			}
		}
	})
}

// TestHintedKernelRejects feeds the hinted kernel invalid traces whose hints
// look plausible. Five refute a satisfiable formula: a lemma that repeats a
// literal, taken for a tautology; a lemma proved by itself or by a later
// record; a hint with two unassigned literals; hints that end without a
// conflict. The sixth refutes an unsatisfiable formula after deleting a
// clause its empty clause needs, which the deletion's own hints "prove".
// The kernel rejects every one, and so does CheckTrace.
func TestHintedKernelRejects(t *testing.T) {
	// Satisfied by x1 = 1, x2 = 0. Clause ids: 0 is (x1 ∨ x2), 1 is (¬x2),
	// and record j is id 2+j.
	sat := formulaOf(2, []int{1, 2}, []int{-2})
	empty := []int32{1, 0, 2} // x2 false, then x1 true, then record 0 (¬x1) false
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		tr   *proof.Trace
	}{
		{"repeated-literal", sat, &proof.Trace{Records: []proof.Record{learn(-1, -1), learn()}, Hints: [][]int32{nil, empty}}},
		{"by-itself", sat, &proof.Trace{Records: []proof.Record{learn(-1), learn()}, Hints: [][]int32{{2}, empty}}},
		{"by-a-later-record", sat, &proof.Trace{Records: []proof.Record{learn(-1), learn()}, Hints: [][]int32{{3}, empty}}},
		{"not-unit", sat, &proof.Trace{Records: []proof.Record{learn()}, Hints: [][]int32{{0, 1}}}},
		{"no-conflict", sat, &proof.Trace{Records: []proof.Record{learn(-1), learn()}, Hints: [][]int32{{1, 0}, empty}}},
		{"deletion", formulaOf(1, []int{1}, []int{-1}),
			&proof.Trace{Records: []proof.Record{del(-1), learn()}, Hints: [][]int32{{1}, {0, 1}}}},
	} {
		if err := proof.CheckHinted(tc.f, tc.tr); err == nil {
			t.Errorf("%s: the hinted kernel accepted an invalid trace", tc.name)
		}
		if err := proof.CheckTrace(tc.f, tc.tr); err == nil {
			t.Errorf("%s: CheckTrace accepted an invalid trace", tc.name)
		}
	}
}
