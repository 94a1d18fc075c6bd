package proof

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/cnf"
)

// Kind distinguishes the two certificate shapes.
type Kind byte

const (
	// KindOptimal certifies an OPTIMAL MaxSAT answer: the model witnesses
	// the upper bound, the UNSAT steps witness the lower bound.
	KindOptimal Kind = 1
	// KindUnsat certifies that the hard clauses alone are unsatisfiable.
	KindUnsat Kind = 2
)

// Step is one lower-bound witness: a DRAT refutation of
// hards ∧ (cost ≤ Bound), i.e. a machine-checked proof that every
// assignment satisfying the hards costs more than Bound. For KindUnsat
// certificates Bound is -1 and the trace refutes the hards alone.
type Step struct {
	Bound cnf.Weight
	Trace *Trace
}

// Certificate is a self-contained, independently checkable record of a
// MaxSAT verdict. Check validates it against the original instance — not
// against anything the producing solver stored — so a certificate that
// passes vouches for the answer even if the solver, the preprocessor, or
// the cache that stored it misbehaved.
type Certificate struct {
	Kind    Kind
	NumVars int
	Cost    cnf.Weight
	Model   cnf.Assignment
	Steps   []Step
}

// Check validates cert against the instance w:
//
//   - KindOptimal: the model is total over w's variables, satisfies every
//     hard clause, and its soft cost equals cert.Cost; every step's trace
//     is a RUP refutation of hards ∧ (cost ≤ step.Bound); and
//     unless Cost is zero, some step has Bound = Cost−1 — together: no
//     assignment does better than the model, so Cost is the optimum.
//   - KindUnsat: at least one step refutes the hard clauses alone.
//
// The bound formulas are rebuilt here from (w, bound) by the same encoder
// the producer used; nothing clause-shaped inside the certificate is
// trusted without a RUP check. They are built in buffers reused from step
// to step, and never leave Check.
func Check(w *cnf.WCNF, cert *Certificate) error {
	var c Checker
	return c.Check(w, cert)
}

// A Checker validates certificates as Check does, and keeps the buffers it
// builds their bound formulas in from one call to the next, so a caller
// that checks many certificates in a row, such as a worker re-proving a
// durable store, allocates them once. The zero value is ready to use. A
// Checker must not be used by two goroutines at once.
type Checker struct {
	e encoder
}

// Check validates cert against w; see the function Check.
func (c *Checker) Check(w *cnf.WCNF, cert *Certificate) error {
	switch cert.Kind {
	case KindUnsat:
		if len(cert.Steps) == 0 {
			return fmt.Errorf("proof: UNSAT certificate has no refutation step")
		}
		hards := w.Hards()
		for i, st := range cert.Steps {
			if st.Bound != -1 {
				return fmt.Errorf("proof: UNSAT certificate step %d has bound %d (want -1)", i, st.Bound)
			}
			if err := checkStep(hards, st); err != nil {
				return fmt.Errorf("proof: step %d: %w", i, err)
			}
		}
		return nil
	case KindOptimal:
		if cert.NumVars != w.NumVars {
			return fmt.Errorf("proof: certificate is for %d variables, instance has %d", cert.NumVars, w.NumVars)
		}
		if len(cert.Model) < w.NumVars {
			return fmt.Errorf("proof: model covers %d of %d variables", len(cert.Model), w.NumVars)
		}
		cost, hardOK := w.CostOf(cert.Model)
		if !hardOK {
			return fmt.Errorf("proof: model violates a hard clause")
		}
		if cost != cert.Cost {
			return fmt.Errorf("proof: model costs %d, certificate claims %d", cost, cert.Cost)
		}
		if cert.Cost < 0 {
			return fmt.Errorf("proof: negative certified cost %d", cert.Cost)
		}
		tight := cert.Cost == 0
		for i, st := range cert.Steps {
			if st.Bound < 0 || st.Bound >= cert.Cost {
				return fmt.Errorf("proof: step %d bound %d outside [0, %d)", i, st.Bound, cert.Cost)
			}
			f := c.e.build(w, st.Bound)
			if err := checkStep(f, st); err != nil {
				return fmt.Errorf("proof: step %d (bound %d): %w", i, st.Bound, err)
			}
			if st.Bound == cert.Cost-1 {
				tight = true
			}
		}
		if !tight {
			return fmt.Errorf("proof: no step refutes bound %d; cost %d is not certified optimal", cert.Cost-1, cert.Cost)
		}
		return nil
	default:
		return fmt.Errorf("proof: unknown certificate kind %d", byte(cert.Kind))
	}
}

func checkStep(f *cnf.Formula, st Step) error {
	if st.Trace == nil {
		return fmt.Errorf("missing trace")
	}
	for i, rec := range st.Trace.Records {
		for _, l := range rec.Lits {
			if l < 0 || int(l.Var()) >= f.NumVars {
				return fmt.Errorf("record %d: literal %d outside the %d-variable bound formula", i, int32(l), f.NumVars)
			}
		}
	}
	return CheckTrace(f, st.Trace)
}

// CheckBytes decodes a serialized certificate and validates it against w.
// Any decode failure — including truncation and bit flips that corrupt the
// framing — is a rejection.
func CheckBytes(w *cnf.WCNF, data []byte) error {
	cert, err := Decode(data)
	if err != nil {
		return err
	}
	return Check(w, cert)
}

var certMagic = []byte("MXC1")

// Encode serializes the certificate to a compact binary blob.
func (c *Certificate) Encode() []byte {
	buf := append([]byte(nil), certMagic...)
	buf = append(buf, byte(c.Kind))
	buf = binary.AppendUvarint(buf, uint64(c.NumVars))
	if c.Kind == KindOptimal {
		buf = binary.AppendUvarint(buf, uint64(c.Cost))
		model := make([]byte, (c.NumVars+7)/8)
		for v := 0; v < c.NumVars && v < len(c.Model); v++ {
			if c.Model[v] {
				model[v/8] |= 1 << (v % 8)
			}
		}
		buf = append(buf, model...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Steps)))
	for _, st := range c.Steps {
		buf = binary.AppendUvarint(buf, uint64(st.Bound+1))
		buf = st.Trace.appendBinary(buf)
	}
	return buf
}

// maxTraceVars bounds literal values accepted while decoding a trace; the
// real bound (the rebuilt step formula's variable count) is enforced by
// Check before any propagation touches the literals.
const maxTraceVars = 1 << 28

// Decode parses a certificate produced by Encode. Decoding is strict:
// unknown kinds, truncated fields, out-of-range values, and trailing bytes
// are all errors. The records' literals share one buffer, each a view capped
// at its own end.
func Decode(data []byte) (*Certificate, error) {
	if !bytes.HasPrefix(data, certMagic) {
		return nil, fmt.Errorf("proof: bad certificate magic")
	}
	buf := data[len(certMagic):]
	if len(buf) == 0 {
		return nil, errTruncated
	}
	cert := &Certificate{Kind: Kind(buf[0])}
	buf = buf[1:]
	if cert.Kind != KindOptimal && cert.Kind != KindUnsat {
		return nil, fmt.Errorf("proof: unknown certificate kind %d", byte(cert.Kind))
	}
	nv, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if nv > maxTraceVars {
		return nil, fmt.Errorf("proof: implausible variable count %d", nv)
	}
	cert.NumVars = int(nv)
	if cert.Kind == KindOptimal {
		var cost uint64
		cost, buf, err = readUvarint(buf)
		if err != nil {
			return nil, err
		}
		cert.Cost = cnf.Weight(cost)
		nbytes := (cert.NumVars + 7) / 8
		if len(buf) < nbytes {
			return nil, errTruncated
		}
		cert.Model = make(cnf.Assignment, cert.NumVars)
		for v := 0; v < cert.NumVars; v++ {
			cert.Model[v] = buf[v/8]&(1<<(v%8)) != 0
		}
		buf = buf[nbytes:]
	}
	nsteps, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if nsteps > uint64(len(buf))+1 {
		return nil, fmt.Errorf("proof: implausible step count %d", nsteps)
	}
	// Every literal is a uvarint, so one buffer of that many literals holds
	// the records of every step.
	lits := make([]cnf.Lit, 0, uvarints(buf))
	for i := uint64(0); i < nsteps; i++ {
		var b uint64
		b, buf, err = readUvarint(buf)
		if err != nil {
			return nil, err
		}
		var t *Trace
		t, buf, lits, err = decodeTrace(buf, maxTraceVars, lits)
		if err != nil {
			return nil, err
		}
		cert.Steps = append(cert.Steps, Step{Bound: cnf.Weight(b) - 1, Trace: t})
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("proof: %d trailing bytes after certificate", len(buf))
	}
	return cert, nil
}
