package cnf_test

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// oracleParseWCNF is the WCNF parser as it was before ParseWCNF tokenized
// lines in place: one string per line, strings.Fields, strconv on every
// token and one growing slice per clause. FuzzParseWCNFVsOracle requires
// ParseWCNF to accept and reject what it does, with the same errors, and to
// read the same formula.
func oracleParseWCNF(r io.Reader) (*cnf.WCNF, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	w := &cnf.WCNF{}
	line := 0
	sawHeader := false
	isWCNF := false
	is2022 := false
	var top int64 = -1
	declaredVars := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		if strings.HasPrefix(text, "p") {
			if is2022 {
				return nil, oracleErr(line, "p line after headerless (2022-format) clauses")
			}
			if sawHeader {
				return nil, oracleErr(line, "duplicate p line")
			}
			fields := strings.Fields(text)
			if len(fields) < 4 {
				return nil, oracleErr(line, "malformed header %q", text)
			}
			switch fields[1] {
			case "wcnf":
				isWCNF = true
				if len(fields) == 5 {
					t, err := strconv.ParseInt(fields[4], 10, 64)
					if err != nil || t <= 0 {
						return nil, oracleErr(line, "bad top weight %q", fields[4])
					}
					top = t
				} else if len(fields) != 4 {
					return nil, oracleErr(line, "malformed wcnf header %q", text)
				}
			case "cnf":
				if len(fields) != 4 {
					return nil, oracleErr(line, "malformed cnf header %q", text)
				}
			default:
				return nil, oracleErr(line, "unknown format %q", fields[1])
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 || nv > cnf.MaxDIMACSVar {
				return nil, oracleErr(line, "bad variable count %q (want 0..%d)", fields[2], cnf.MaxDIMACSVar)
			}
			declaredVars = nv
			sawHeader = true
			continue
		}
		if !sawHeader {
			is2022 = true
			sawHeader = true
		}
		toks := strings.Fields(text)
		var weight cnf.Weight = 1
		start := 0
		switch {
		case is2022:
			if toks[0] == "h" {
				weight = cnf.HardWeight
			} else {
				wt, err := strconv.ParseInt(toks[0], 10, 64)
				if err != nil || wt <= 0 {
					return nil, oracleErr(line, "bad clause weight %q (2022 format: \"h\" or a positive weight)", toks[0])
				}
				weight = cnf.Weight(wt)
			}
			start = 1
		case isWCNF:
			wt, err := strconv.ParseInt(toks[0], 10, 64)
			if err != nil || wt < 0 {
				return nil, oracleErr(line, "bad clause weight %q", toks[0])
			}
			if top > 0 && wt >= top {
				weight = cnf.HardWeight
			} else if wt == 0 {
				return nil, oracleErr(line, "zero clause weight")
			} else {
				weight = cnf.Weight(wt)
			}
			start = 1
		}
		var cur cnf.Clause
		closed := false
		for _, tok := range toks[start:] {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, oracleErr(line, "bad literal %q", tok)
			}
			if v > cnf.MaxDIMACSVar || v < -cnf.MaxDIMACSVar {
				return nil, oracleErr(line, "literal %q out of range (variables are 1..%d)", tok, cnf.MaxDIMACSVar)
			}
			if v == 0 {
				closed = true
				break
			}
			cur = append(cur, cnf.FromDIMACS(v))
		}
		if !closed {
			return nil, oracleErr(line, "clause not terminated by 0")
		}
		w.Clauses = append(w.Clauses, cnf.WClause{Clause: cur, Weight: weight})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	if !sawHeader {
		return nil, oracleErr(line, "missing p line")
	}
	w.NumVars = declaredVars
	for _, c := range w.Clauses {
		if mv := c.Clause.MaxVar(); int(mv)+1 > w.NumVars {
			w.NumVars = int(mv) + 1
		}
	}
	return w, nil
}

// oracleParseDIMACS is the DIMACS CNF parser as it was before ParseDIMACS
// tokenized lines in place: one string per line, strings.Fields on every
// clause line and a 64 KB scanner buffer per call. FuzzParseDIMACSVsOracle
// requires ParseDIMACS to accept and reject what it does, with the same
// errors, and to read the same formula.
func oracleParseDIMACS(r io.Reader) (*cnf.Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	f := &cnf.Formula{}
	var cur cnf.Clause
	line := 0
	sawHeader := false
	declaredVars := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		if strings.HasPrefix(text, "p") {
			if sawHeader {
				return nil, oracleErr(line, "duplicate p line")
			}
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, oracleErr(line, "malformed header %q (want \"p cnf <vars> <clauses>\")", text)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 || nv > cnf.MaxDIMACSVar {
				return nil, oracleErr(line, "bad variable count %q (want 0..%d)", fields[2], cnf.MaxDIMACSVar)
			}
			if _, err := strconv.Atoi(fields[3]); err != nil {
				return nil, oracleErr(line, "bad clause count %q", fields[3])
			}
			declaredVars = nv
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, oracleErr(line, "clause before p line")
		}
		for _, tok := range strings.Fields(text) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, oracleErr(line, "bad literal %q", tok)
			}
			if v > cnf.MaxDIMACSVar || v < -cnf.MaxDIMACSVar {
				return nil, oracleErr(line, "literal %q out of range (variables are 1..%d)", tok, cnf.MaxDIMACSVar)
			}
			if v == 0 {
				f.Clauses = append(f.Clauses, cur)
				cur = nil
				continue
			}
			cur = append(cur, cnf.FromDIMACS(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	if !sawHeader {
		return nil, oracleErr(line, "missing p line")
	}
	if len(cur) > 0 {
		f.Clauses = append(f.Clauses, cur)
	}
	f.NumVars = declaredVars
	if mv := f.MaxVar(); int(mv)+1 > f.NumVars {
		f.NumVars = int(mv) + 1
	}
	return f, nil
}

func oracleErr(line int, format string, args ...any) error {
	return &cnf.ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}
