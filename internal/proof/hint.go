package proof

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/cnf"
)

// checkHinted verifies t forward through its hints, without propagation
// search, as an LRAT checker does (Cruz-Filipe et al., CADE 2017). For each
// record up to and including the first empty clause, it assigns the
// negation of the record's literals and walks the record's hints in order.
// A hint must name a formula clause or an earlier record. A hint with a
// true literal is passed over, one with a single unassigned literal assigns
// it, and one whose literals are all false is the conflict that proves the
// record. A hint with two unassigned literals, or hints that run out before
// a conflict, fail the check; so does any record before the empty clause
// that is not a learnt clause, and hints that do not match the records one
// to one.
//
// It accepts only what the backward check accepts: every record it passes
// is RUP over formula clauses and earlier records, all active at the
// record's position in a trace without deletions, and RUP is monotone in
// the clause set.
func checkHinted(f *cnf.Formula, t *Trace) error {
	end := -1
	for i, rec := range t.Records {
		if rec.Op != OpLearn {
			return fmt.Errorf("proof: hinted record %d: op %v", i, rec.Op)
		}
		if len(rec.Lits) == 0 {
			end = i
			break
		}
	}
	if end < 0 {
		return fmt.Errorf("proof: trace does not derive the empty clause")
	}
	if len(t.Hints) != len(t.Records) {
		return fmt.Errorf("proof: %d hint lists for %d records", len(t.Hints), len(t.Records))
	}
	m := len(f.Clauses)
	vals := make([]int8, 2*f.NumVars) // per literal: 1 true, -1 false, 0 unassigned
	var trail []cnf.Lit
	for i, rec := range t.Records[:end+1] {
		refuted := false
		for _, l := range rec.Lits {
			if l < 0 || int(l) >= len(vals) {
				return fmt.Errorf("proof: hinted record %d: literal %d out of range", i, int32(l))
			}
			if vals[l] == 1 {
				refuted = true // the record holds l and ¬l: a tautology
				break
			}
			if vals[l] == 0 {
				vals[l], vals[l.Neg()] = -1, 1
				trail = append(trail, l.Neg())
			}
		}
		for _, id := range t.Hints[i] {
			if refuted {
				break
			}
			if id < 0 || int(id) >= m+i {
				return fmt.Errorf("proof: hinted record %d: hint %d names no earlier clause", i, id)
			}
			var cl []cnf.Lit
			if int(id) < m {
				cl = f.Clauses[id]
			} else {
				cl = t.Records[int(id)-m].Lits
			}
			unit, free := cnf.Lit(0), 0 // free: distinct unassigned literals, -1 once one is true
			for _, l := range cl {
				if v := vals[l]; v == 1 {
					free = -1
					break
				} else if v == 0 && (free == 0 || l != unit) {
					unit = l
					free++
				}
			}
			switch free {
			case -1: // satisfied: passed over
			case 0:
				refuted = true
			case 1:
				vals[unit], vals[unit.Neg()] = 1, -1
				trail = append(trail, unit)
			default:
				return fmt.Errorf("proof: hinted record %d: hint %d is not unit", i, id)
			}
		}
		for _, l := range trail {
			vals[l], vals[l.Neg()] = 0, 0
		}
		trail = trail[:0]
		if !refuted {
			return fmt.Errorf("proof: hinted record %d: hints end without a conflict", i)
		}
	}
	return nil
}

// The hint section: "MXH1", the step count, then per step the number of
// hint lists (0 for a step without hints) and each list as its length and
// its ids, all uvarints.
var hintMagic = []byte("MXH1")

// EncodeHints serializes the hints of c's step traces: the section a
// durable store keeps beside the certificate, which Encode never includes.
// It returns nil when no step carries hints.
func (c *Certificate) EncodeHints() []byte {
	if !slices.ContainsFunc(c.Steps, func(st Step) bool { return st.Trace != nil && st.Trace.Hints != nil }) {
		return nil
	}
	buf := append([]byte(nil), hintMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(c.Steps)))
	for _, st := range c.Steps {
		var hints [][]int32
		if st.Trace != nil {
			hints = st.Trace.Hints
		}
		buf = binary.AppendUvarint(buf, uint64(len(hints)))
		for _, h := range hints {
			buf = binary.AppendUvarint(buf, uint64(len(h)))
			for _, id := range h {
				buf = binary.AppendUvarint(buf, uint64(uint32(id)))
			}
		}
	}
	return buf
}

// AttachHints decodes a section EncodeHints wrote for this certificate and
// attaches its hints to the step traces, so Check verifies them forward. A
// section that does not decode, or has another step count, is an error and
// attaches nothing. Hints that decode but are wrong cost the backward
// check, never a verdict.
func (c *Certificate) AttachHints(data []byte) error {
	if !bytes.HasPrefix(data, hintMagic) {
		return fmt.Errorf("proof: bad hint magic")
	}
	buf := data[len(hintMagic):]
	n, buf, err := readUvarint(buf)
	if err != nil {
		return err
	}
	if n != uint64(len(c.Steps)) {
		return fmt.Errorf("proof: hints for %d steps, certificate has %d", n, len(c.Steps))
	}
	// Every id is a uvarint, so one buffer of that many ids holds them all.
	ids := make([]int32, 0, uvarints(buf))
	hints := make([][][]int32, len(c.Steps))
	for i, st := range c.Steps {
		var lists uint64
		if lists, buf, err = readUvarint(buf); err != nil {
			return err
		}
		if lists > uint64(len(buf)) || lists > 0 && st.Trace == nil {
			return fmt.Errorf("proof: step %d: implausible hint list count %d", i, lists)
		}
		if lists == 0 {
			continue
		}
		hints[i] = make([][]int32, lists)
		for j := range hints[i] {
			var k uint64
			if k, buf, err = readUvarint(buf); err != nil {
				return err
			}
			if k > uint64(len(buf)) {
				return errTruncated
			}
			from := len(ids)
			for range k {
				u, n := binary.Uvarint(buf)
				if n <= 0 {
					return errTruncated
				}
				if u > math.MaxInt32 {
					return fmt.Errorf("proof: hint id %d out of range", u)
				}
				buf = buf[n:]
				ids = append(ids, int32(u))
			}
			hints[i][j] = ids[from:len(ids):len(ids)]
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("proof: %d trailing bytes after hints", len(buf))
	}
	for i, h := range hints {
		if h != nil {
			c.Steps[i].Trace.Hints = h
		}
	}
	return nil
}
