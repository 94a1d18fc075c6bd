package opt

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/proof"
	"repro/internal/sat"
)

// Certify produces a serialized optimality (or unsatisfiability)
// certificate for a finished result, checkable by internal/proof against
// the original instance alone.
//
// The construction is a post-solve certification pass, uniform across every
// algorithm in the repo — branch and bound, the msu family, OLL, PBO
// search, portfolio winners and preprocessed runs alike:
//
//   - StatusOptimal with cost C: the model is the upper-bound witness; for
//     the lower bound a fresh solo solver (no preprocessing)
//     proof-logs a refutation of hards ∧ (cost ≤ C−1), built by
//     proof.BoundFormula. The checker rebuilds that formula itself, so the
//     certificate's validity never depends on the optimizer that found C —
//     if the optimizer was wrong, this pass fails (a better assignment
//     satisfies the bound formula) and no certificate is issued.
//   - StatusUnsat: the refutation is of the hard clauses alone.
//
// The pass re-proves one UNSAT result at the tightest bound rather than
// replaying the optimizer's own iteration-by-iteration reasoning; that one
// step subsumes the whole chain and keeps the checker's trusted base
// independent of all eleven algorithms' bookkeeping.
//
// The returned bytes have already been validated by the independent
// checker; Certify never returns an unverified certificate.
func Certify(ctx context.Context, w *cnf.WCNF, r Result, o Options) ([]byte, error) {
	cert, _, err := CertifyHinted(ctx, w, r, o)
	return cert, err
}

// CertifyHinted is Certify that also returns the certificate's proof hints
// (proof.Certificate.EncodeHints), nil when it has none: the conflict cones
// proof.Trim recorded, with which the self-check, and a durable store's
// re-proof at the next boot, verify the certificate without propagation
// search. The certificate bytes are Certify's.
func CertifyHinted(ctx context.Context, w *cnf.WCNF, r Result, o Options) (cert, hints []byte, err error) {
	c, err := buildCertificate(ctx, w, r, o)
	if err != nil {
		return nil, nil, err
	}
	if err := proof.Check(w, c); err != nil {
		return nil, nil, fmt.Errorf("opt: produced certificate failed self-check: %w", err)
	}
	return c.Encode(), c.EncodeHints(), nil
}

func buildCertificate(ctx context.Context, w *cnf.WCNF, r Result, o Options) (*proof.Certificate, error) {
	switch r.Status {
	case StatusUnsat:
		t, err := refute(ctx, w.Hards(), o)
		if err != nil {
			return nil, fmt.Errorf("opt: certifying UNSAT: %w", err)
		}
		return &proof.Certificate{
			Kind:    proof.KindUnsat,
			NumVars: w.NumVars,
			Steps:   []proof.Step{{Bound: -1, Trace: t}},
		}, nil
	case StatusOptimal:
		if !VerifyModel(w, r) {
			return nil, errors.New("opt: result model does not achieve the claimed cost")
		}
		cert := &proof.Certificate{
			Kind:    proof.KindOptimal,
			NumVars: w.NumVars,
			Cost:    r.Cost,
			Model:   append(cnf.Assignment(nil), r.Model[:w.NumVars]...),
		}
		if r.Cost == 0 {
			return cert, nil // the model alone certifies a zero-cost optimum
		}
		t, err := refute(ctx, proof.BoundFormula(w, r.Cost-1), o)
		if err != nil {
			return nil, fmt.Errorf("opt: certifying lower bound %d: %w", r.Cost, err)
		}
		cert.Steps = []proof.Step{{Bound: r.Cost - 1, Trace: t}}
		return cert, nil
	default:
		return nil, fmt.Errorf("opt: cannot certify a %v result", r.Status)
	}
}

// refute runs a fresh proof-logged solo solver on f and returns the trace
// deriving the empty clause.
func refute(ctx context.Context, f *cnf.Formula, o Options) (*proof.Trace, error) {
	s := sat.New()
	s.EnsureVars(f.NumVars)
	for _, c := range f.Clauses {
		if !s.AddClauseFrom(c) {
			// Conflict while loading: the formula refutes itself by unit
			// propagation, which is exactly what a lone empty-clause
			// record asks the checker to confirm.
			return &proof.Trace{Records: []proof.Record{{Op: proof.OpLearn}}}, nil
		}
	}
	rec := proof.NewRecorder()
	s.SetProof(rec)
	s.SetBudget(o.Budget(ctx))
	switch s.Solve() {
	case sat.Unsat:
		// Trim to the lemmas the checker's backward marking actually
		// consumed: certificates are stored durably and served over HTTP,
		// so the dead search effort (typically most of the trace) is pure
		// payload cost. Trim verifies as it marks, so a trimming failure
		// means the raw trace was already invalid; the trimmed trace
		// carries the hints of what it marked.
		t, err := proof.Trim(f, rec.Trace())
		if err != nil {
			return nil, fmt.Errorf("trimming refutation: %w", err)
		}
		return t, nil
	case sat.Sat:
		return nil, errors.New("bound formula is satisfiable — the claimed optimum is not optimal")
	default:
		return nil, fmt.Errorf("budget exhausted before the refutation completed: %w", ctx.Err())
	}
}
