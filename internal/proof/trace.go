// Package proof implements DRAT-style clausal proof logging and an
// independent checker for the solvers in this repository.
//
// The package is deliberately a leaf: it imports only internal/cnf and
// shares no propagation, clause storage, or watcher code with internal/sat.
// A certificate that passes this package's checker is therefore vouched for
// by a second, much smaller implementation — the trusted base is the RUP
// checker in check.go, the hinted kernel in hint.go and the bound encoder in
// encode.go, not the CDCL core, the preprocessor, or any of the eleven
// optimizers.
//
// Three layers:
//
//   - Trace: a compact record of clause additions and deletions (DRAT
//     form), produced by internal/sat via its Solver.SetProof sink and by
//     internal/simp during preprocessing. Traces serialize to a varint
//     binary format and render as standard ASCII DRAT for external
//     cross-checking with drat-trim.
//   - CheckTrace: backward RUP verification of a trace against a formula
//     (its own two-watched-literal propagation; see check.go), or forward
//     verification through the trace's hints when Trim recorded them (see
//     hint.go), falling back to the backward check when they fail.
//   - Certificate: an optimality certificate for a MaxSAT result — the
//     model witnesses the upper bound, and one or more UNSAT steps, each a
//     DRAT refutation of hards ∧ (cost ≤ bound), witness the lower bound
//     (see certificate.go).
package proof

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/cnf"
)

// Op tags one record in a trace.
type Op byte

const (
	// OpLearn adds a clause that must be RUP with respect to the formula
	// and the preceding additions (a learnt clause, a preprocessor
	// rewrite, or the final empty clause).
	OpLearn Op = iota
	// OpDelete removes a clause from the active set (reduceDB, satisfied
	// or subsumed clauses). Deleting a clause that is not active is
	// ignored by the checker: the active set stays a superset of what the
	// producer used, which keeps RUP checks sound.
	OpDelete
	// Op value 2 is retired: it once tagged clauses imported from other
	// solvers. Decoding and checking reject it as an unknown op.

	// OpAxiom adds a clause the producer asserts as given — a caller
	// AddClause issued after proof logging started. Certificate traces
	// must not contain axioms; the checker rejects them.
	OpAxiom Op = 3
)

func (o Op) String() string {
	switch o {
	case OpLearn:
		return "learn"
	case OpDelete:
		return "delete"
	case OpAxiom:
		return "axiom"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Record is one trace entry: an operation and its clause.
type Record struct {
	Op   Op
	Lits []cnf.Lit
}

// Trace is an ordered sequence of clause additions and deletions.
type Trace struct {
	Records []Record
	// Hints, when not nil, lets CheckTrace verify the trace forward
	// without propagation search. Hints[i] lists the clauses whose unit
	// propagation, in order, refutes the negation of record i, the last one
	// falsified: id k < len(f.Clauses) names formula clause k, and id
	// len(f.Clauses)+j names record j. Trim sets them; Certificate.
	// AttachHints decodes them. Wrong hints cost only the backward check
	// (see CheckTrace), never a verdict.
	Hints [][]int32
}

// Recorder accumulates a Trace. It satisfies the sat.Proof and simp proof
// sink interfaces structurally (Learn/Delete/Axiom), copying every
// literal slice it is handed — producers reuse their buffers.
type Recorder struct {
	t Trace
}

// NewRecorder returns an empty in-memory trace recorder.
func NewRecorder() *Recorder { return &Recorder{} }

func (r *Recorder) add(op Op, lits []cnf.Lit) {
	c := make([]cnf.Lit, len(lits))
	copy(c, lits)
	r.t.Records = append(r.t.Records, Record{Op: op, Lits: c})
}

// Learn records a clause addition that must be RUP.
func (r *Recorder) Learn(lits []cnf.Lit) { r.add(OpLearn, lits) }

// Delete records a clause deletion.
func (r *Recorder) Delete(lits []cnf.Lit) { r.add(OpDelete, lits) }

// Axiom records a clause added by the caller after logging started.
func (r *Recorder) Axiom(lits []cnf.Lit) { r.add(OpAxiom, lits) }

// Trace returns the recorded trace. The recorder keeps ownership; callers
// must not append further records through the recorder after using the
// returned trace.
func (r *Recorder) Trace() *Trace { return &r.t }

// Len returns the number of records accumulated so far.
func (r *Recorder) Len() int { return len(r.t.Records) }

// DRATWriter streams proof records as standard ASCII DRAT ("d" prefix for
// deletions, literals in DIMACS form, 0-terminated) to an io.Writer, for
// cross-checking with external tools such as drat-trim. Axioms are emitted
// as plain additions — external checkers treat them as lemmas.
type DRATWriter struct {
	w   *bufio.Writer
	err error
}

// NewDRATWriter wraps w in an ASCII DRAT emitter.
func NewDRATWriter(w io.Writer) *DRATWriter {
	return &DRATWriter{w: bufio.NewWriter(w)}
}

func (d *DRATWriter) line(prefix string, lits []cnf.Lit) {
	if d.err != nil {
		return
	}
	if prefix != "" {
		if _, d.err = d.w.WriteString(prefix); d.err != nil {
			return
		}
	}
	for _, l := range lits {
		if _, d.err = fmt.Fprintf(d.w, "%d ", l.DIMACS()); d.err != nil {
			return
		}
	}
	_, d.err = d.w.WriteString("0\n")
}

// Learn emits an addition line.
func (d *DRATWriter) Learn(lits []cnf.Lit) { d.line("", lits) }

// Delete emits a "d" deletion line.
func (d *DRATWriter) Delete(lits []cnf.Lit) { d.line("d ", lits) }

// Axiom emits an addition line (see the type comment).
func (d *DRATWriter) Axiom(lits []cnf.Lit) { d.line("", lits) }

// Flush drains buffered output and reports the first write error.
func (d *DRATWriter) Flush() error {
	if d.err != nil {
		return d.err
	}
	return d.w.Flush()
}

// WriteDRAT renders the trace as ASCII DRAT.
func (t *Trace) WriteDRAT(w io.Writer) error {
	d := NewDRATWriter(w)
	for _, rec := range t.Records {
		switch rec.Op {
		case OpDelete:
			d.Delete(rec.Lits)
		default:
			d.Learn(rec.Lits)
		}
	}
	return d.Flush()
}

// Binary trace format: each record is one op byte, a varint length, and
// that many varint literals (the raw non-negative 2v/2v+1 encoding).
// Decoding is strict — unknown ops, truncated records, and out-of-range
// literals are errors, so bit flips in stored certificates surface as
// decode failures rather than silently altered clauses.

var errTruncated = errors.New("proof: truncated trace")

func (t *Trace) appendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.Records)))
	for _, rec := range t.Records {
		buf = append(buf, byte(rec.Op))
		buf = binary.AppendUvarint(buf, uint64(len(rec.Lits)))
		for _, l := range rec.Lits {
			buf = binary.AppendUvarint(buf, uint64(uint32(l)))
		}
	}
	return buf
}

// decodeTrace decodes one trace from buf. Its records' literals are carved
// from lits, each a view capped at its own end, while lits has room; the
// grown buffer is returned for the next trace.
func decodeTrace(buf []byte, numVars int, lits []cnf.Lit) (*Trace, []byte, []cnf.Lit, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, nil, err
	}
	if n > uint64(len(buf)) { // each record is ≥ 2 bytes; cheap sanity cap
		return nil, nil, nil, fmt.Errorf("proof: implausible record count %d", n)
	}
	t := &Trace{Records: make([]Record, 0, n)}
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, nil, nil, errTruncated
		}
		op := Op(buf[0])
		buf = buf[1:]
		if op != OpLearn && op != OpDelete && op != OpAxiom {
			return nil, nil, nil, fmt.Errorf("proof: unknown op %d", byte(op))
		}
		var k uint64
		k, buf, err = readUvarint(buf)
		if err != nil {
			return nil, nil, nil, err
		}
		if k > uint64(len(buf)) {
			return nil, nil, nil, errTruncated
		}
		if uint64(cap(lits)-len(lits)) < k {
			lits = make([]cnf.Lit, 0, k)
		}
		at := len(lits)
		for range k {
			var u uint64
			u, buf, err = readUvarint(buf)
			if err != nil {
				return nil, nil, nil, err
			}
			if u >= uint64(numVars)*2 {
				return nil, nil, nil, fmt.Errorf("proof: literal %d out of range (%d vars)", u, numVars)
			}
			lits = append(lits, cnf.Lit(u))
		}
		t.Records = append(t.Records, Record{Op: op, Lits: lits[at:len(lits):len(lits)]})
	}
	return t, buf, lits, nil
}

// uvarints returns how many uvarints b holds at most: each one ends with
// its only byte below 0x80.
func uvarints(b []byte) int {
	n := 0
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return u, buf[n:], nil
}
