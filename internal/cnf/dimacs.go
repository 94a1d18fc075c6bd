package cnf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseError describes a syntax error in a DIMACS stream.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dimacs: line %d: %s", e.Line, e.Msg)
}

func parseErr(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// MaxDIMACSVar is the largest DIMACS variable index a Lit can encode: the
// negative literal of variable 2^30 is 2(2^30−1)+1, the largest int32.
// The parsers reject a larger literal or header variable count.
const MaxDIMACSVar = 1 << 30

// parseVarCount parses a header's variable count.
func parseVarCount(line int, tok string) (int, error) {
	nv, err := strconv.Atoi(tok)
	if err != nil || nv < 0 || nv > MaxDIMACSVar {
		return 0, parseErr(line, "bad variable count %q (want 0..%d)", tok, MaxDIMACSVar)
	}
	return nv, nil
}

// parseLit parses one DIMACS literal token; 0 is the clause terminator.
func parseLit[T string | []byte](line int, tok T) (int, error) {
	v, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, parseErr(line, "bad literal %q", tok)
	}
	if v > MaxDIMACSVar || v < -MaxDIMACSVar {
		return 0, parseErr(line, "literal %q out of range (variables are 1..%d)", tok, MaxDIMACSVar)
	}
	return v, nil
}

// field returns the first field of b, a run of bytes that are not white
// space, and what follows the white space rune ending it. White space is
// what unicode.IsSpace reports, so fields split as strings.Fields splits
// them, non-ASCII spaces such as U+00A0 included.
func field(b []byte) (tok, rest []byte) {
	start := -1
	for i := 0; i < len(b); {
		r, n := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(b[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				return b[start:i], b[i+n:]
			}
		} else if start < 0 {
			start = i
		}
		i += n
	}
	if start < 0 {
		return nil, nil
	}
	return b[start:], nil
}

// ParseDIMACS reads a DIMACS CNF formula. It tolerates comment lines anywhere,
// clauses spanning multiple lines, and clause/variable counts in the header
// that disagree with the body (the body wins for variables; a mismatched
// clause count is an error only if the body has more clauses than declared
// headroom allows — in practice we accept any count and record the larger).
// Lines are tokenized in the scanner's buffer, as ParseWCNF does.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from the scanner's 4 KB as lines need
	f := &Formula{}
	var cur Clause
	line := 0
	sawHeader := false
	declaredVars := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == 'c' {
			continue
		}
		if text[0] == 'p' {
			if sawHeader {
				return nil, parseErr(line, "duplicate p line")
			}
			text := string(text)
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, parseErr(line, "malformed header %q (want \"p cnf <vars> <clauses>\")", text)
			}
			nv, err := parseVarCount(line, fields[2])
			if err != nil {
				return nil, err
			}
			if _, err := strconv.Atoi(fields[3]); err != nil {
				return nil, parseErr(line, "bad clause count %q", fields[3])
			}
			declaredVars = nv
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, parseErr(line, "clause before p line")
		}
		for lits := text; ; {
			var tok []byte
			if tok, lits = field(lits); tok == nil {
				break
			}
			v, err := parseLit(line, tok)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				f.Clauses = append(f.Clauses, cur)
				cur = nil
				continue
			}
			cur = append(cur, FromDIMACS(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	if !sawHeader {
		return nil, parseErr(line, "missing p line")
	}
	if len(cur) > 0 {
		// Trailing clause without terminating 0: accept it, matching common
		// solver behaviour.
		f.Clauses = append(f.Clauses, cur)
	}
	f.NumVars = declaredVars
	if mv := f.MaxVar(); int(mv)+1 > f.NumVars {
		f.NumVars = int(mv) + 1
	}
	return f, nil
}

// ParseDIMACSFile reads a DIMACS CNF file from disk.
func ParseDIMACSFile(path string) (*Formula, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ParseDIMACS(fh)
}

// WriteDIMACS writes f in DIMACS CNF format.
func WriteDIMACS(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%d ", l.DIMACS()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseWCNF reads a weighted DIMACS formula. Three dialects are supported:
//
//   - classic:  "p wcnf <vars> <clauses> [top]" header; each clause line
//     starts with a weight; weight == top (when given) marks hard clauses.
//   - plain cnf: parsed as soft unit-weight clauses (plain MaxSAT reading).
//   - MaxSAT Evaluation 2022: no header at all; hard clauses start with the
//     letter "h", soft clauses with their (positive) weight. Detected by the
//     first content line not being a "p" header.
//
// Clause lines are tokenized in the scanner's buffer, and the clauses share
// backing buffers, each a view capped at its own end: parsing allocates a
// few times per formula rather than per line and literal.
func ParseWCNF(r io.Reader) (*WCNF, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from the scanner's 4 KB as lines need
	w := &WCNF{}
	var buf []Lit // the current literal buffer; the clause being read is buf[at:]
	line := 0
	sawHeader := false
	isWCNF := false
	is2022 := false
	var top int64 = -1
	declaredVars := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == 'c' {
			continue
		}
		if text[0] == 'p' {
			if is2022 {
				return nil, parseErr(line, "p line after headerless (2022-format) clauses")
			}
			if sawHeader {
				return nil, parseErr(line, "duplicate p line")
			}
			text := string(text)
			fields := strings.Fields(text)
			if len(fields) < 4 {
				return nil, parseErr(line, "malformed header %q", text)
			}
			switch fields[1] {
			case "wcnf":
				isWCNF = true
				if len(fields) == 5 {
					t, err := strconv.ParseInt(fields[4], 10, 64)
					if err != nil || t <= 0 {
						return nil, parseErr(line, "bad top weight %q", fields[4])
					}
					top = t
				} else if len(fields) != 4 {
					return nil, parseErr(line, "malformed wcnf header %q", text)
				}
			case "cnf":
				if len(fields) != 4 {
					return nil, parseErr(line, "malformed cnf header %q", text)
				}
			default:
				return nil, parseErr(line, "unknown format %q", fields[1])
			}
			nv, err := parseVarCount(line, fields[2])
			if err != nil {
				return nil, err
			}
			declaredVars = nv
			sawHeader = true
			continue
		}
		if !sawHeader {
			// A clause before any header: the MaxSAT Evaluation 2022
			// headerless dialect.
			is2022 = true
			sawHeader = true
		}
		// WCNF clauses must fit on one line (weight prefix is ambiguous
		// otherwise); CNF clauses may span lines but we handle the common
		// one-clause-per-line case here and multi-line via the 0 terminator.
		var weight Weight = 1
		lits := text
		if is2022 || isWCNF {
			var tok []byte
			tok, lits = field(text)
			switch {
			case is2022 && string(tok) == "h":
				weight = HardWeight
			case is2022:
				wt, err := strconv.ParseInt(string(tok), 10, 64)
				if err != nil || wt <= 0 {
					return nil, parseErr(line, "bad clause weight %q (2022 format: \"h\" or a positive weight)", tok)
				}
				weight = Weight(wt)
			default:
				wt, err := strconv.ParseInt(string(tok), 10, 64)
				if err != nil || wt < 0 {
					return nil, parseErr(line, "bad clause weight %q", tok)
				}
				if top > 0 && wt >= top {
					weight = HardWeight
				} else if wt == 0 {
					return nil, parseErr(line, "zero clause weight")
				} else {
					weight = Weight(wt)
				}
			}
		}
		at := len(buf)
		closed := false
		for len(lits) > 0 {
			var tok []byte
			if tok, lits = field(lits); tok == nil {
				break
			}
			v, err := parseLit(line, tok)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				closed = true
				break
			}
			if len(buf) == cap(buf) {
				// Move the clause read so far to a fresh, larger buffer.
				buf = append(make([]Lit, 0, max(2*cap(buf), 256)), buf[at:]...)
				at = 0
			}
			buf = append(buf, FromDIMACS(v))
		}
		if !closed {
			return nil, parseErr(line, "clause not terminated by 0")
		}
		var c Clause
		if len(buf) > at {
			c = buf[at:len(buf):len(buf)]
		}
		w.Clauses = append(w.Clauses, WClause{Clause: c, Weight: weight})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	if !sawHeader {
		return nil, parseErr(line, "missing p line")
	}
	w.NumVars = declaredVars
	for _, c := range w.Clauses {
		if mv := c.Clause.MaxVar(); int(mv)+1 > w.NumVars {
			w.NumVars = int(mv) + 1
		}
	}
	return w, nil
}

// ParseWCNFFile reads a WCNF (or CNF) file from disk.
func ParseWCNFFile(path string) (*WCNF, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ParseWCNF(fh)
}

// WriteWCNF2022 writes w in the MaxSAT Evaluation 2022 headerless format:
// hard clauses as "h <lits> 0", soft clauses as "<weight> <lits> 0".
// ParseWCNF reads the format back (the variable count round-trips through
// the literals actually used, since the format has no header to carry it).
func WriteWCNF2022(out io.Writer, w *WCNF) error {
	bw := bufio.NewWriter(out)
	for _, c := range w.Clauses {
		if c.Hard() {
			if _, err := fmt.Fprint(bw, "h "); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(bw, "%d ", int64(c.Weight)); err != nil {
				return err
			}
		}
		for _, l := range c.Clause {
			if _, err := fmt.Fprintf(bw, "%d ", l.DIMACS()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteWCNF writes w in classic "p wcnf" format. Hard clauses get weight
// top = 1 + total soft weight.
func WriteWCNF(out io.Writer, w *WCNF) error {
	bw := bufio.NewWriter(out)
	top := int64(w.SoftWeightSum()) + 1
	if _, err := fmt.Fprintf(bw, "p wcnf %d %d %d\n", w.NumVars, len(w.Clauses), top); err != nil {
		return err
	}
	for _, c := range w.Clauses {
		wt := int64(c.Weight)
		if c.Hard() {
			wt = top
		}
		if _, err := fmt.Fprintf(bw, "%d ", wt); err != nil {
			return err
		}
		for _, l := range c.Clause {
			if _, err := fmt.Fprintf(bw, "%d ", l.DIMACS()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
