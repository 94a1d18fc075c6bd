package proof_test

// Adversarial certificate suite: every targeted mutation of a valid
// certificate — wrong costs, tampered models, dropped or altered proof
// steps — must be rejected by the independent checker, and arbitrary
// single-bit corruption must never let a certificate vouch for a wrong
// verdict.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/pbo"
	"repro/internal/proof"
)

// solveAndCertify solves w with the PBO optimizer (handles weights) and
// returns the decoded, known-good certificate plus its encoding.
func solveAndCertify(t *testing.T, w *cnf.WCNF) (*proof.Certificate, []byte) {
	t.Helper()
	s := &pbo.Linear{}
	r := s.Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal {
		t.Fatalf("solve: %v", r.Status)
	}
	data, err := opt.Certify(context.Background(), w, r, opt.Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	cert, err := proof.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := proof.Check(w, cert); err != nil {
		t.Fatalf("baseline certificate rejected: %v", err)
	}
	return cert, data
}

// adversarialInstance is a small weighted instance with a nonzero optimum
// (so certificates carry a real proof step).
func adversarialInstance() *cnf.WCNF {
	w := cnf.NewWCNF(4)
	w.AddHard(cnf.PosLit(0), cnf.PosLit(1))
	w.AddHard(cnf.NegLit(2), cnf.PosLit(3))
	w.AddSoft(2, cnf.NegLit(0))
	w.AddSoft(3, cnf.NegLit(1))
	w.AddSoft(1, cnf.PosLit(2))
	w.AddSoft(4, cnf.NegLit(3))
	return w
}

func TestCertificateAdversarialMutations(t *testing.T) {
	w := adversarialInstance()
	cert, _ := solveAndCertify(t, w)
	if len(cert.Steps) != 1 {
		t.Fatalf("expected one proof step, got %d", len(cert.Steps))
	}

	// clone deep-copies the parts each mutation touches.
	clone := func() *proof.Certificate {
		c := *cert
		c.Model = append(cnf.Assignment(nil), cert.Model...)
		c.Steps = make([]proof.Step, len(cert.Steps))
		for i, st := range cert.Steps {
			recs := make([]proof.Record, len(st.Trace.Records))
			for j, r := range st.Trace.Records {
				recs[j] = proof.Record{Op: r.Op, Lits: append([]cnf.Lit(nil), r.Lits...)}
			}
			c.Steps[i] = proof.Step{Bound: st.Bound, Trace: &proof.Trace{Records: recs}}
		}
		return &c
	}

	reject := func(t *testing.T, m *proof.Certificate, what string) {
		t.Helper()
		if err := proof.Check(w, m); err == nil {
			t.Fatalf("%s accepted", what)
		}
	}

	t.Run("cost-too-low", func(t *testing.T) {
		m := clone()
		m.Cost--
		reject(t, m, "understated cost") // model no longer achieves it
	})
	t.Run("cost-too-high", func(t *testing.T) {
		m := clone()
		m.Cost++
		reject(t, m, "overstated cost") // model cost mismatch
	})
	t.Run("model-bit-flip", func(t *testing.T) {
		for v := range cert.Model {
			m := clone()
			m.Model[v] = !m.Model[v]
			reject(t, m, "tampered model")
		}
	})
	t.Run("dropped-proof-step", func(t *testing.T) {
		m := clone()
		m.Steps = nil
		reject(t, m, "certificate without its lower-bound proof")
	})
	t.Run("loose-bound", func(t *testing.T) {
		// A valid refutation at a bound below Cost−1 proves a weaker lower
		// bound; the checker requires tightness.
		m := clone()
		m.Steps[0].Bound--
		reject(t, m, "non-tight bound step")
	})
	t.Run("bound-at-cost", func(t *testing.T) {
		// Bound == Cost would "refute" a formula that is satisfiable (the
		// model itself satisfies it), so the step must be out of range.
		m := clone()
		m.Steps[0].Bound = m.Cost
		reject(t, m, "bound ≥ cost")
	})
	t.Run("dropped-trace-records", func(t *testing.T) {
		// Removing any single Learn record either breaks a later RUP check
		// or removes the empty clause; the refutation must not survive
		// every such cut. (Some individual learnt clauses are redundant —
		// dropping an unused lemma legitimately still checks — so assert
		// the aggregate: at least the final empty-clause drop fails.)
		m := clone()
		recs := m.Steps[0].Trace.Records
		m.Steps[0].Trace.Records = recs[:len(recs)-1]
		reject(t, m, "trace truncated before the empty clause")
	})
	t.Run("imported-clause-in-certificate", func(t *testing.T) {
		// Op value 2 once tagged imported clauses. It is retired: a record
		// carrying it — even with a harmless clause — is rejected by the
		// checker and, once encoded, by the decoder.
		m := clone()
		recs := m.Steps[0].Trace.Records
		m.Steps[0].Trace.Records = append([]proof.Record{
			{Op: proof.Op(2), Lits: []cnf.Lit{cnf.PosLit(0)}},
		}, recs...)
		reject(t, m, "op 2 record inside a certificate trace")
		if _, err := proof.Decode(m.Encode()); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("decoding an op 2 record: got %v", err)
		}
	})
	t.Run("wrong-numvars", func(t *testing.T) {
		m := clone()
		m.NumVars++
		reject(t, m, "variable-count mismatch")
	})
	t.Run("model-too-short", func(t *testing.T) {
		m := clone()
		m.Model = m.Model[:len(m.Model)-1]
		reject(t, m, "truncated model")
	})
}

// TestCertificateBitFlipSoundness flips every bit of a serialized
// certificate and asserts the one property corruption must never break:
// an accepted certificate certifies the true optimum. (Many flips are
// rejected outright by the strict decoder; a flip that survives decoding
// and checking must not have changed the verdict.)
func TestCertificateBitFlipSoundness(t *testing.T) {
	w := adversarialInstance()
	_, data := solveAndCertify(t, w)
	trueCost, _, feasible := brute.MinCostWCNF(w)
	if !feasible {
		t.Fatal("instance must be feasible")
	}

	rejected := 0
	for bit := 0; bit < len(data)*8; bit++ {
		mut := append([]byte(nil), data...)
		mut[bit/8] ^= 1 << (bit % 8)
		cert, err := proof.Decode(mut)
		if err != nil {
			rejected++
			continue
		}
		if err := proof.Check(w, cert); err != nil {
			rejected++
			continue
		}
		// Survived: the certified verdict must still be the truth.
		if cert.Kind != proof.KindOptimal || cert.Cost != trueCost {
			t.Fatalf("bit %d: corrupted certificate verified a wrong verdict (kind=%d cost=%d, true cost %d)",
				bit, cert.Kind, cert.Cost, trueCost)
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was ever rejected — the checker is not looking at the bytes")
	}
	t.Logf("bit flips: %d/%d rejected, %d benign", rejected, len(data)*8, len(data)*8-rejected)
}
