package cnf_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// suiteWCNF returns the classic WCNF text of every instance of gen.Suite(1)
// and gen.WeightedSuite(1).
func suiteWCNF(tb testing.TB) [][]byte {
	var out [][]byte
	for _, in := range append(gen.Suite(1), gen.WeightedSuite(1)...) {
		var b bytes.Buffer
		if err := cnf.WriteWCNF(&b, in.W); err != nil {
			tb.Fatal(err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

// FuzzParseWCNFVsOracle requires ParseWCNF to agree with the strings.Fields
// parser it replaced (oracleParseWCNF): the same accept or reject, the same
// *ParseError line and message, and the same clauses, weights and NumVars.
func FuzzParseWCNFVsOracle(f *testing.F) {
	for _, text := range suiteWCNF(f) {
		f.Add(text)
	}
	for _, s := range []string{
		// The cases of TestParseWCNFErrors.
		"p wcnf 2 1 10\nx 1 0\n",
		"p wcnf 2 1 10\n0 1 0\n",
		"p wcnf 2 1 10\n1 1\n",
		"p wcnf 2 1 0\n1 1 0\n",
		"1 1 0\np wcnf 2 1 10\n",
		"p wcnf 2 1 10 extra\n",
		"h 1\n",
		"0 1 0\n",
		"-3 1 0\n",
		"w 1 0\n",
		"p wcnf 5 1 10\n1 2147483648 0\n",
		"p wcnf 5 1 10\n1 -3000000000 0\n",
		"p wcnf 3000000000 1 10\n1 1 0\n",
		"p cnf 5 1\n3000000000 0\n",
		"p cnf 3000000000 1\n1 0\n",
		"h 3000000000 0\n",
		"1 -2147483648 0\n",
		// White space strings.Fields splits on beyond ASCII, invalid UTF-8,
		// signs, and numbers at the edges of int64.
		"p wcnf 3 2 10\n10 1 -2 0\n3 -1\u00850\n",
		" h 1 2 0　\n2 -1 0\n",
		"p cnf 3 2\n1  -2 0 junk\n 2 3 0\n",
		"p wcnf 2 1 10\n1 1\xa0 0\n",
		"h +1 -0\n1 +2 0\n",
		"p wcnf 2 2 9223372036854775807\n9223372036854775807 1 0\n9223372036854775806 -2 0\n",
		"p wcnf 2 1 10\n9223372036854775808 1 0\n",
		"p cnf 1 1\n9999999999999999999 0\n",
		"p cnf 1 1\n-9223372036854775809 0\n",
		"p cnf 2 1\n-1073741824 1073741824 0\n",
		"p cnf 2 1\n01 -002 00\n",
		"c only a comment\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := cnf.ParseWCNF(bytes.NewReader(data))
		want, werr := oracleParseWCNF(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseWCNF error %v, oracle error %v", err, werr)
		}
		if err != nil {
			var pe, wpe *cnf.ParseError
			if errors.As(err, &pe) != errors.As(werr, &wpe) || err.Error() != werr.Error() {
				t.Fatalf("ParseWCNF error %q, oracle error %q", err, werr)
			}
			if pe != nil && (pe.Line != wpe.Line || pe.Msg != wpe.Msg) {
				t.Fatalf("ParseWCNF error at line %d %q, oracle at line %d %q", pe.Line, pe.Msg, wpe.Line, wpe.Msg)
			}
			return
		}
		if got.NumVars != want.NumVars || len(got.Clauses) != len(want.Clauses) {
			t.Fatalf("ParseWCNF read %d variables and %d clauses, oracle %d and %d",
				got.NumVars, len(got.Clauses), want.NumVars, len(want.Clauses))
		}
		for i, c := range got.Clauses {
			if w := want.Clauses[i]; c.Weight != w.Weight || !slices.Equal(c.Clause, w.Clause) {
				t.Fatalf("clause %d: ParseWCNF read %v weight %d, oracle %v weight %d", i, c.Clause, c.Weight, w.Clause, w.Weight)
			}
		}
	})
}

// FuzzParseDIMACSVsOracle requires ParseDIMACS to agree with the
// strings.Fields parser it replaced (oracleParseDIMACS): the same accept or
// reject, the same *ParseError line and message, and the same clauses and
// NumVars.
func FuzzParseDIMACSVsOracle(f *testing.F) {
	for _, s := range []string{
		// The inputs of the TestParseDIMACS tests.
		"c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n",
		"p cnf 4 1\n1 2\n3 -4 0\n",
		"p cnf 1 1\n5 0\n",
		"p cnf 1 1\n-1073741824 0\n",
		"1 2 0\n",
		"p cnf x 2\n",
		"p cnf 2 x\n",
		"p dnf 2 2\n",
		"p cnf 2 1\n1 zero 0\n",
		"",
		"p cnf 1 1\np cnf 1 1\n",
		"c only a comment\n",
		"p cnf 1\n",
		"p cnf 1 1 1 1\n1 0\n",
		"p cnf 5 1\n2147483648 0\n",
		"p cnf 5 1\n3000000000 0\n",
		"p cnf 5 1\n-3000000000 0\n",
		"p cnf 3000000000 1\n1 0\n",
		"p cnf 2 1\n1 2",
		// A clause spanning lines, with a comment between them; a trailing
		// clause without its 0; white space strings.Fields splits on beyond
		// ASCII, U+00A0 between literals among it; invalid UTF-8.
		"p cnf 5 2\n1 -2\nc between\n 3\t4 0 5\n-5 0\n",
		"p cnf 3 2\n1 2 0\n-3 -1",
		"p cnf 3 2\n1\u00a0-2 0\n2\u30003\u00850\n",
		"p cnf 2 1\n1 2\xa0 0\n",
		"p cnf 2 1\n+1 -0 01 -002 00\n",
		"\u00a0p cnf 1 1\n1 0\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := cnf.ParseDIMACS(bytes.NewReader(data))
		want, werr := oracleParseDIMACS(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseDIMACS error %v, oracle error %v", err, werr)
		}
		if err != nil {
			var pe, wpe *cnf.ParseError
			if errors.As(err, &pe) != errors.As(werr, &wpe) || err.Error() != werr.Error() {
				t.Fatalf("ParseDIMACS error %q, oracle error %q", err, werr)
			}
			if pe != nil && (pe.Line != wpe.Line || pe.Msg != wpe.Msg) {
				t.Fatalf("ParseDIMACS error at line %d %q, oracle at line %d %q", pe.Line, pe.Msg, wpe.Line, wpe.Msg)
			}
			return
		}
		if got.NumVars != want.NumVars || len(got.Clauses) != len(want.Clauses) {
			t.Fatalf("ParseDIMACS read %d variables and %d clauses, oracle %d and %d",
				got.NumVars, len(got.Clauses), want.NumVars, len(want.Clauses))
		}
		for i, c := range got.Clauses {
			if !slices.Equal(c, want.Clauses[i]) {
				t.Fatalf("clause %d: ParseDIMACS read %v, oracle %v", i, c, want.Clauses[i])
			}
		}
	})
}

// BenchmarkParseWCNF parses the classic WCNF text of gen.Suite(1) and
// gen.WeightedSuite(1), one formula after another.
func BenchmarkParseWCNF(b *testing.B) {
	texts := suiteWCNF(b)
	size := 0
	for _, t := range texts {
		size += len(t)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range texts {
			if _, err := cnf.ParseWCNF(bytes.NewReader(t)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
