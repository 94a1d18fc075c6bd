package proof_test

// Tests for the proof package's three layers — trace format, independent
// RUP checker, bound encoding — plus cross-checks of the producers
// (internal/sat proof logging, internal/simp rewrite logging) against the
// checker. The package under test is a leaf; the test package may import
// the producers because the dependency arrow still points the right way.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/proof"
	"repro/internal/sat"
	"repro/internal/simp"
)

// php builds the pigeonhole CNF PHP(pigeons, holes): unsatisfiable whenever
// pigeons > holes.
func php(pigeons, holes int) *cnf.Formula {
	f := cnf.NewFormula(pigeons * holes)
	v := func(p, h int) cnf.Lit { return cnf.PosLit(cnf.Var(p*holes + h)) }
	for p := 0; p < pigeons; p++ {
		c := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			c[h] = v(p, h)
		}
		f.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(v(p1, h).Neg(), v(p2, h).Neg())
			}
		}
	}
	return f
}

// refuteWithSolver runs a fresh proof-logged solver on f and returns the
// recorded trace (t.Fatal on a SAT or Unknown verdict).
func refuteWithSolver(t *testing.T, f *cnf.Formula) *proof.Trace {
	t.Helper()
	s := sat.New()
	s.EnsureVars(f.NumVars)
	for _, c := range f.Clauses {
		if !s.AddClauseFrom(c) {
			return &proof.Trace{Records: []proof.Record{{Op: proof.OpLearn}}}
		}
	}
	rec := proof.NewRecorder()
	s.SetProof(rec)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("expected UNSAT, got %v", st)
	}
	return rec.Trace()
}

func TestSolverTraceChecks(t *testing.T) {
	f := php(4, 3)
	tr := refuteWithSolver(t, f)
	if err := proof.CheckTrace(f, tr); err != nil {
		t.Fatalf("solver refutation rejected: %v", err)
	}
}

func TestCheckTraceRejectsAdversarial(t *testing.T) {
	f := php(4, 3)
	tr := refuteWithSolver(t, f)

	t.Run("truncated-before-empty", func(t *testing.T) {
		cut := *tr
		// Drop the final empty clause (and anything after it).
		for i, r := range cut.Records {
			if r.Op == proof.OpLearn && len(r.Lits) == 0 {
				cut.Records = cut.Records[:i]
				break
			}
		}
		if err := proof.CheckTrace(f, &cut); err == nil {
			t.Fatal("trace without an empty clause accepted")
		}
	})

	t.Run("non-rup-lemma", func(t *testing.T) {
		// A bare unit over a fresh-ish variable is not a consequence of
		// PHP's clauses, and the empty clause right after it does not
		// propagate to a conflict either.
		bogus := &proof.Trace{Records: []proof.Record{
			{Op: proof.OpLearn, Lits: []cnf.Lit{cnf.PosLit(0)}},
			{Op: proof.OpLearn},
		}}
		if err := proof.CheckTrace(f, bogus); err == nil {
			t.Fatal("non-RUP derivation accepted")
		}
	})

	t.Run("import-rejected-strict", func(t *testing.T) {
		// Op value 2 once tagged clauses imported from other solvers; it is
		// retired, and the checker rejects it like any unknown op.
		withRetired := &proof.Trace{Records: append([]proof.Record{
			{Op: proof.Op(2), Lits: []cnf.Lit{cnf.PosLit(0)}},
		}, tr.Records...)}
		err := proof.CheckTrace(f, withRetired)
		if err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op 2 record: got %v", err)
		}
	})

	t.Run("axiom-rejected-strict", func(t *testing.T) {
		withAxiom := &proof.Trace{Records: append([]proof.Record{
			{Op: proof.OpAxiom, Lits: []cnf.Lit{cnf.PosLit(0)}},
		}, tr.Records...)}
		err := proof.CheckTrace(f, withAxiom)
		if err == nil || !strings.Contains(err.Error(), "axiom") {
			t.Fatalf("axiom in strict mode: got %v", err)
		}
	})

	t.Run("deleting-needed-clause", func(t *testing.T) {
		// Deleting every original clause up front starves the final
		// propagation: nothing can conflict, so the trace must fail.
		var recs []proof.Record
		for _, c := range f.Clauses {
			recs = append(recs, proof.Record{Op: proof.OpDelete, Lits: append([]cnf.Lit(nil), c...)})
		}
		recs = append(recs, proof.Record{Op: proof.OpLearn})
		if err := proof.CheckTrace(f, &proof.Trace{Records: recs}); err == nil {
			t.Fatal("trace that deleted its own support accepted")
		}
	})
}

// TestSimpTraceChecks drives the preprocessor's proof sink: on a formula
// preprocessing alone refutes, the logged rewrites must form a checkable
// refutation.
func TestSimpTraceChecks(t *testing.T) {
	// Unit chain forcing a conflict: x1, x1→x2, x2→x3, ¬x3 ∨ ¬x1 plus x3→¬x1
	// style binary clauses. Unit propagation inside simp derives the empty
	// clause.
	f := cnf.NewFormula(3)
	f.AddClause(cnf.PosLit(0))
	f.AddClause(cnf.NegLit(0), cnf.PosLit(1))
	f.AddClause(cnf.NegLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(2), cnf.NegLit(0))

	rec := proof.NewRecorder()
	res := simp.Preprocess(f, simp.Options{Proof: rec})
	if !res.Unsat {
		t.Fatal("expected preprocessing to prove UNSAT")
	}
	if err := proof.CheckTrace(f, rec.Trace()); err != nil {
		t.Fatalf("simp refutation rejected: %v", err)
	}
}

// TestSimpPlusSolverTraceChecks replays the cmd/sat -simp -proof pipeline in
// memory: the preprocessor's rewrites followed by the solver's learnt
// clauses must check against the ORIGINAL formula.
func TestSimpPlusSolverTraceChecks(t *testing.T) {
	f := php(4, 3)
	rec := proof.NewRecorder()
	res := simp.Preprocess(f, simp.Options{Proof: rec})
	if res.Unsat {
		t.Skip("preprocessing alone refuted the instance; covered elsewhere")
	}
	s := sat.New()
	s.EnsureVars(f.NumVars)
	if !s.AddFormula(res.Formula) {
		rec.Learn(nil)
	} else {
		s.SetProof(rec)
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("expected UNSAT, got %v", st)
		}
	}
	if err := proof.CheckTrace(f, rec.Trace()); err != nil {
		t.Fatalf("simp+solver refutation rejected against the original formula: %v", err)
	}
}

// TestBoundFormulaSemantics checks the relaxation encoding against brute
// force: BoundFormula(w, b) must be satisfiable exactly when some
// assignment satisfies the hards with soft cost ≤ b.
func TestBoundFormulaSemantics(t *testing.T) {
	w := cnf.NewWCNF(4)
	w.AddHard(cnf.PosLit(0), cnf.PosLit(1))
	w.AddSoft(3, cnf.NegLit(0))
	w.AddSoft(4, cnf.NegLit(1))
	w.AddSoft(2, cnf.PosLit(2), cnf.PosLit(3))
	w.AddSoft(5, cnf.NegLit(2))

	minCost, _, feasible := brute.MinCostWCNF(w)
	if !feasible {
		t.Fatal("test instance should be feasible")
	}
	maxW := w.SoftWeightSum()
	for b := cnf.Weight(0); b <= maxW; b++ {
		f := proof.BoundFormula(w, b)
		s := sat.New()
		s.EnsureVars(f.NumVars)
		ok := true
		for _, c := range f.Clauses {
			if !s.AddClauseFrom(c) {
				ok = false
				break
			}
		}
		satisfiable := ok && s.Solve() == sat.Sat
		want := b >= minCost
		if satisfiable != want {
			t.Fatalf("bound %d: satisfiable=%v, want %v (min cost %d)", b, satisfiable, want, minCost)
		}
	}
}

func TestTraceBinaryRoundTrip(t *testing.T) {
	f := php(4, 3)
	tr := refuteWithSolver(t, f)
	cert := &proof.Certificate{
		Kind:    proof.KindUnsat,
		NumVars: f.NumVars,
		Steps:   []proof.Step{{Bound: -1, Trace: tr}},
	}
	enc := cert.Encode()
	dec, err := proof.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Kind != cert.Kind || dec.NumVars != cert.NumVars || len(dec.Steps) != 1 {
		t.Fatalf("round trip changed the header: %+v", dec)
	}
	if len(dec.Steps[0].Trace.Records) != len(tr.Records) {
		t.Fatalf("round trip changed the record count: %d vs %d",
			len(dec.Steps[0].Trace.Records), len(tr.Records))
	}
	for i, r := range tr.Records {
		got := dec.Steps[0].Trace.Records[i]
		if got.Op != r.Op || len(got.Lits) != len(r.Lits) {
			t.Fatalf("record %d changed: %+v vs %+v", i, got, r)
		}
	}
	// Truncations of the encoding must all fail to decode, not panic.
	for n := 0; n < len(enc); n++ {
		if _, err := proof.Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is rejected.
	if _, err := proof.Decode(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDRATOutput(t *testing.T) {
	tr := &proof.Trace{Records: []proof.Record{
		{Op: proof.OpLearn, Lits: []cnf.Lit{cnf.PosLit(0), cnf.NegLit(1)}},
		{Op: proof.OpDelete, Lits: []cnf.Lit{cnf.PosLit(0), cnf.NegLit(1)}},
		{Op: proof.OpLearn},
	}}
	var buf bytes.Buffer
	if err := tr.WriteDRAT(&buf); err != nil {
		t.Fatal(err)
	}
	want := "1 -2 0\nd 1 -2 0\n0\n"
	if buf.String() != want {
		t.Fatalf("DRAT output %q, want %q", buf.String(), want)
	}
}

// TestCertifyEndToEnd produces real certificates through opt.Certify and
// validates them with the independent checker.
func TestCertifyEndToEnd(t *testing.T) {
	ctx := context.Background()

	t.Run("unsat", func(t *testing.T) {
		f := php(4, 3)
		w := cnf.NewWCNF(f.NumVars)
		for _, c := range f.Clauses {
			w.AddHard(c...)
		}
		w.AddSoft(1, cnf.PosLit(0))
		r := opt.Result{Status: opt.StatusUnsat, Cost: -1}
		data, err := opt.Certify(ctx, w, r, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := proof.CheckBytes(w, data); err != nil {
			t.Fatalf("UNSAT certificate rejected: %v", err)
		}
	})

	t.Run("optimal-not-actually-optimal", func(t *testing.T) {
		// Claiming a cost above the optimum must fail certification: the
		// bound formula at claimed−1 is satisfiable.
		w := cnf.NewWCNF(2)
		w.AddSoft(1, cnf.PosLit(0))
		w.AddSoft(1, cnf.NegLit(0))
		w.AddSoft(1, cnf.PosLit(1))
		// True optimum is 1 (falsify one of the x0 units). Claim 2 with a
		// model that really costs 2.
		r := opt.Result{Status: opt.StatusOptimal, Cost: 2, Model: cnf.Assignment{true, false}}
		if _, err := opt.Certify(ctx, w, r, opt.Options{}); err == nil {
			t.Fatal("certified a non-optimal cost")
		}
	})

	t.Run("model-cost-mismatch", func(t *testing.T) {
		w := cnf.NewWCNF(1)
		w.AddSoft(1, cnf.PosLit(0))
		w.AddSoft(1, cnf.NegLit(0))
		r := opt.Result{Status: opt.StatusOptimal, Cost: 0, Model: cnf.Assignment{true}}
		if _, err := opt.Certify(ctx, w, r, opt.Options{}); err == nil {
			t.Fatal("certified a model that does not achieve the claimed cost")
		}
	})
}

// TestTrim asserts the backward-marking trim: the trimmed trace still
// verifies, is never larger than the original, drops all deletions, and on
// real solver refutations is materially smaller.
func TestTrim(t *testing.T) {
	f := php(5, 4)
	tr := refuteWithSolver(t, f)
	trimmed, err := proof.Trim(f, tr)
	if err != nil {
		t.Fatalf("Trim rejected a valid refutation: %v", err)
	}
	if err := proof.CheckTrace(f, trimmed); err != nil {
		t.Fatalf("trimmed trace no longer verifies: %v", err)
	}
	if len(trimmed.Records) > len(tr.Records) {
		t.Fatalf("trim grew the trace: %d -> %d", len(tr.Records), len(trimmed.Records))
	}
	for i, rec := range trimmed.Records {
		if rec.Op == proof.OpDelete {
			t.Fatalf("trimmed trace keeps a deletion at record %d", i)
		}
	}
	last := trimmed.Records[len(trimmed.Records)-1]
	if last.Op != proof.OpLearn || len(last.Lits) != 0 {
		t.Fatalf("trimmed trace does not end with the empty clause: %+v", last)
	}
	// Idempotence: trimming a trimmed trace changes nothing.
	again, err := proof.Trim(f, trimmed)
	if err != nil {
		t.Fatalf("re-trim failed: %v", err)
	}
	if len(again.Records) != len(trimmed.Records) {
		t.Fatalf("trim not idempotent: %d -> %d", len(trimmed.Records), len(again.Records))
	}
}

// TestTrimRejectsInvalid asserts Trim refuses what CheckTrace refuses.
func TestTrimRejectsInvalid(t *testing.T) {
	f := php(4, 3)
	// A trace that never derives the empty clause.
	tr := &proof.Trace{Records: []proof.Record{{Op: proof.OpLearn, Lits: []cnf.Lit{cnf.PosLit(0)}}}}
	if _, err := proof.Trim(f, tr); err == nil {
		t.Fatal("Trim accepted a trace with no empty clause")
	}
	// A non-RUP lemma on the path to the empty clause.
	sat := cnf.NewFormula(2)
	sat.AddClause(cnf.PosLit(0), cnf.PosLit(1))
	bogus := &proof.Trace{Records: []proof.Record{
		{Op: proof.OpLearn, Lits: []cnf.Lit{cnf.PosLit(0)}},
		{Op: proof.OpLearn},
	}}
	if _, err := proof.Trim(sat, bogus); err == nil {
		t.Fatal("Trim accepted a bogus refutation of a satisfiable formula")
	}
}

// TestCertifyTracesAreTrimmed asserts the certificate pipeline ships trimmed
// refutations: every step's trace is deletion-free and ends at its first
// empty clause.
func TestCertifyTracesAreTrimmed(t *testing.T) {
	w := cnf.NewWCNF(2)
	w.AddSoft(1, cnf.PosLit(0))
	w.AddSoft(1, cnf.NegLit(0))
	w.AddSoft(1, cnf.PosLit(1))
	w.AddSoft(1, cnf.NegLit(1))
	r := opt.Result{Status: opt.StatusOptimal, Cost: 2,
		Model: cnf.Assignment{true, true}}
	data, err := opt.Certify(context.Background(), w, r, opt.Options{})
	if err != nil {
		t.Fatalf("certification failed: %v", err)
	}
	cert, err := proof.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for si, st := range cert.Steps {
		for ri, rec := range st.Trace.Records {
			if rec.Op == proof.OpDelete {
				t.Fatalf("step %d record %d: certificate trace kept a deletion", si, ri)
			}
			if len(rec.Lits) == 0 && ri != len(st.Trace.Records)-1 {
				t.Fatalf("step %d: empty clause at %d is not the final record", si, ri)
			}
		}
	}
}

// TestCertifyHintsCheckForward certifies OLL's answers on the weighted
// suite: each hint section decodes back onto its certificate and encodes to
// the same bytes, and the hinted kernel alone accepts every step. Flipping
// one literal of the middle lemma of each step, it never accepts what the
// oracle rejects.
func TestCertifyHintsCheckForward(t *testing.T) {
	ctx := context.Background()
	for _, in := range gen.WeightedSuite(1) {
		r := core.NewOLL(opt.Options{}).Solve(ctx, in.W, nil)
		data, hints, err := opt.CertifyHinted(ctx, in.W, r, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		cert, err := proof.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(cert.Steps) == 0 {
			continue
		}
		if err := cert.AttachHints(hints); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if again := cert.EncodeHints(); !bytes.Equal(again, hints) {
			t.Fatalf("%s: the hint section does not round-trip", in.Name)
		}
		for _, st := range cert.Steps {
			f := proof.BoundFormula(in.W, st.Bound)
			if err := proof.CheckHinted(f, st.Trace); err != nil {
				t.Fatalf("%s bound %d: the hinted kernel rejects Certify's hints: %v", in.Name, st.Bound, err)
			}
			mid := &st.Trace.Records[len(st.Trace.Records)/2]
			if len(mid.Lits) == 0 {
				continue
			}
			mid.Lits[0] = mid.Lits[0].Neg()
			if proof.CheckHinted(f, st.Trace) == nil {
				if err := proof.OracleCheckTrace(f, st.Trace); err != nil {
					t.Fatalf("%s bound %d: the hinted kernel accepts a flipped lemma the oracle rejects: %v", in.Name, st.Bound, err)
				}
			}
		}
	}
}
