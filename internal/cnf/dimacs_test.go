package cnf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestParseDIMACSBasic(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("got %d vars %d clauses", f.NumVars, f.NumClauses())
	}
	if f.Clauses[0][0] != FromDIMACS(1) || f.Clauses[0][1] != FromDIMACS(-2) {
		t.Fatalf("clause 0 = %v", f.Clauses[0])
	}
}

func TestParseDIMACSMultiLineClause(t *testing.T) {
	in := "p cnf 4 1\n1 2\n3 -4 0\n"
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 4 {
		t.Fatalf("got %v", f.Clauses)
	}
}

func TestParseDIMACSBodyGrowsVars(t *testing.T) {
	in := "p cnf 1 1\n5 0\n"
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 5 {
		t.Fatalf("NumVars = %d, want 5", f.NumVars)
	}
}

// TestParseVarRange checks the largest variable index a Lit encodes,
// 2^30, in every dialect, and the line number of an out-of-range literal.
// It only parses: a solver sizes its per-variable state from NumVars.
func TestParseVarRange(t *testing.T) {
	for _, in := range []string{
		"p cnf 1073741824 1\n1073741824 0\n",
		"p wcnf 1073741824 1 10\n10 -1073741824 0\n",
		"1 1073741824 0\n",
	} {
		w, err := ParseWCNF(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if w.NumVars != MaxDIMACSVar {
			t.Fatalf("%q: NumVars %d, want %d", in, w.NumVars, MaxDIMACSVar)
		}
	}
	f, err := ParseDIMACS(strings.NewReader("p cnf 1 1\n-1073741824 0\n"))
	if err != nil || f.NumVars != MaxDIMACSVar || f.Clauses[0][0].Var() != MaxDIMACSVar-1 {
		t.Fatalf("largest literal: %v %+v", err, f)
	}
	_, err = ParseWCNF(strings.NewReader("p cnf 5 2\n1 0\n2 3000000000 0\n"))
	if pe, ok := err.(*ParseError); !ok || pe.Line != 3 {
		t.Fatalf("out-of-range literal: error %v, want a ParseError on line 3", err)
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"1 2 0\n",                // clause before header
		"p cnf x 2\n",            // bad var count
		"p cnf 2 x\n",            // bad clause count
		"p dnf 2 2\n",            // wrong format
		"p cnf 2 1\n1 zero 0\n",  // bad literal
		"",                       // empty
		"p cnf 1 1\np cnf 1 1\n", // duplicate header
		"c only a comment\n",     // missing header
		"p cnf 1\n",              // short header
		"p cnf 1 1 1 1\n1 0\n",   // long header
		// Beyond what a Lit encodes (MaxDIMACSVar).
		"p cnf 5 1\n2147483648 0\n",
		"p cnf 5 1\n3000000000 0\n",
		"p cnf 5 1\n-3000000000 0\n",
		"p cnf 3000000000 1\n1 0\n",
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestParseDIMACSTrailingClause(t *testing.T) {
	in := "p cnf 2 1\n1 2"
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("trailing clause not accepted: %v", f.Clauses)
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		f := NewFormula(1 + rng.Intn(20))
		nc := rng.Intn(30)
		for i := 0; i < nc; i++ {
			var c []Lit
			for j := 0; j <= rng.Intn(5); j++ {
				c = append(c, NewLit(Var(rng.Intn(f.NumVars)), rng.Intn(2) == 0))
			}
			f.AddClause(c...)
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, f); err != nil {
			t.Fatal(err)
		}
		g, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
			t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
				f.NumVars, f.NumClauses(), g.NumVars, g.NumClauses())
		}
		for i := range f.Clauses {
			if len(f.Clauses[i]) != len(g.Clauses[i]) {
				t.Fatalf("clause %d length mismatch", i)
			}
			for j := range f.Clauses[i] {
				if f.Clauses[i][j] != g.Clauses[i][j] {
					t.Fatalf("clause %d literal %d mismatch", i, j)
				}
			}
		}
	}
}

func TestParseWCNFClassic(t *testing.T) {
	in := `c weighted
p wcnf 3 3 10
10 1 2 0
3 -1 0
1 -2 3 0
`
	w, err := ParseWCNF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumVars != 3 || w.NumClauses() != 3 {
		t.Fatalf("got %d vars %d clauses", w.NumVars, w.NumClauses())
	}
	if !w.Clauses[0].Hard() {
		t.Fatal("clause 0 should be hard")
	}
	if w.Clauses[1].Weight != 3 || w.Clauses[2].Weight != 1 {
		t.Fatalf("weights = %d,%d", w.Clauses[1].Weight, w.Clauses[2].Weight)
	}
}

func TestParseWCNFNoTop(t *testing.T) {
	in := "p wcnf 2 2\n2 1 0\n5 -1 2 0\n"
	w, err := ParseWCNF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumHard() != 0 {
		t.Fatal("no top weight: all clauses soft")
	}
	if w.Clauses[1].Weight != 5 {
		t.Fatalf("weight = %d, want 5", w.Clauses[1].Weight)
	}
}

func TestParseWCNFPlainCNF(t *testing.T) {
	in := "p cnf 2 2\n1 2 0\n-1 -2 0\n"
	w, err := ParseWCNF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumSoft() != 2 || w.Weighted() {
		t.Fatalf("plain cnf should read as unit-weight soft: %+v", w)
	}
}

func TestParseWCNFErrors(t *testing.T) {
	cases := []string{
		"p wcnf 2 1 10\nx 1 0\n", // bad weight
		"p wcnf 2 1 10\n0 1 0\n", // zero weight
		"p wcnf 2 1 10\n1 1\n",   // unterminated clause
		"p wcnf 2 1 0\n1 1 0\n",  // bad top
		"1 1 0\np wcnf 2 1 10\n", // header after 2022-format clauses
		"p wcnf 2 1 10 extra\n",  // long header
		"h 1\n",                  // 2022: unterminated clause
		"0 1 0\n",                // 2022: zero weight
		"-3 1 0\n",               // 2022: negative weight
		"w 1 0\n",                // 2022: bad hard marker
		// Beyond what a Lit encodes (MaxDIMACSVar), in every dialect.
		"p wcnf 5 1 10\n1 2147483648 0\n",
		"p wcnf 5 1 10\n1 -3000000000 0\n",
		"p wcnf 3000000000 1 10\n1 1 0\n",
		"p cnf 5 1\n3000000000 0\n",
		"p cnf 3000000000 1\n1 0\n",
		"h 3000000000 0\n",
		"1 -2147483648 0\n",
	}
	for _, in := range cases {
		if _, err := ParseWCNF(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestWCNFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 30; iter++ {
		w := NewWCNF(1 + rng.Intn(10))
		for i := 0; i < rng.Intn(20); i++ {
			var c []Lit
			for j := 0; j <= rng.Intn(4); j++ {
				c = append(c, NewLit(Var(rng.Intn(w.NumVars)), rng.Intn(2) == 0))
			}
			if rng.Intn(3) == 0 {
				w.AddHard(c...)
			} else {
				w.AddSoft(Weight(1+rng.Intn(5)), c...)
			}
		}
		var buf bytes.Buffer
		if err := WriteWCNF(&buf, w); err != nil {
			t.Fatal(err)
		}
		g, err := ParseWCNF(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumClauses() != w.NumClauses() || g.NumHard() != w.NumHard() {
			t.Fatalf("round trip mismatch: %d/%d vs %d/%d clauses/hard",
				w.NumClauses(), w.NumHard(), g.NumClauses(), g.NumHard())
		}
		for i := range w.Clauses {
			if w.Clauses[i].Hard() != g.Clauses[i].Hard() {
				t.Fatalf("clause %d hardness mismatch", i)
			}
			if !w.Clauses[i].Hard() && w.Clauses[i].Weight != g.Clauses[i].Weight {
				t.Fatalf("clause %d weight mismatch", i)
			}
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := ParseDIMACS(strings.NewReader("p cnf 2 1\n1 bad 0\n"))
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T", err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("error message %q lacks line info", pe.Error())
	}
}

// TestParserNeverPanics mutates valid DIMACS bytes randomly and checks the
// parsers fail gracefully (error or success, never a panic or hang).
func TestParserNeverPanics(t *testing.T) {
	base := []byte("p cnf 4 3\n1 -2 0\n2 3 -4 0\n-1 4 0\n")
	baseW := []byte("p wcnf 3 2 10\n10 1 2 0\n3 -1 0\n")
	rng := rand.New(rand.NewSource(2718))
	chars := []byte("pcnfw 0123456789-\n\tx")
	for iter := 0; iter < 2000; iter++ {
		src := base
		if iter%2 == 1 {
			src = baseW
		}
		mut := append([]byte{}, src...)
		for k := 0; k < 1+rng.Intn(6); k++ {
			pos := rng.Intn(len(mut))
			switch rng.Intn(3) {
			case 0:
				mut[pos] = chars[rng.Intn(len(chars))]
			case 1:
				mut = append(mut[:pos], mut[pos+1:]...)
			case 2:
				mut = append(mut[:pos], append([]byte{chars[rng.Intn(len(chars))]}, mut[pos:]...)...)
			}
			if len(mut) == 0 {
				break
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", mut, r)
				}
			}()
			_, _ = ParseDIMACS(bytes.NewReader(mut))
			_, _ = ParseWCNF(bytes.NewReader(mut))
		}()
	}
}

// TestParseWCNF2022 parses the published example of the MaxSAT Evaluation
// 2022 format description: headerless, "h"-prefixed hard clauses, weight-
// prefixed soft clauses.
func TestParseWCNF2022(t *testing.T) {
	in := `c This is a comment
c MaxSAT Evaluation 2022 input format example
h 1 2 0
h -1 3 0
1 -3 0
2 4 0
`
	w, err := ParseWCNF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumVars != 4 || w.NumClauses() != 4 {
		t.Fatalf("got %d vars %d clauses, want 4/4", w.NumVars, w.NumClauses())
	}
	if w.NumHard() != 2 || w.NumSoft() != 2 {
		t.Fatalf("got %d hard %d soft, want 2/2", w.NumHard(), w.NumSoft())
	}
	if !w.Clauses[0].Hard() || !w.Clauses[1].Hard() {
		t.Fatal("h-prefixed clauses must be hard")
	}
	if w.Clauses[2].Weight != 1 || w.Clauses[3].Weight != 2 {
		t.Fatalf("soft weights = %d,%d, want 1,2", w.Clauses[2].Weight, w.Clauses[3].Weight)
	}
	if got := w.Clauses[1].Clause; len(got) != 2 || got[0] != FromDIMACS(-1) || got[1] != FromDIMACS(3) {
		t.Fatalf("clause 1 literals wrong: %v", got)
	}
}

// TestParseWCNF2022Unweighted checks the unweighted 2022 reading: every
// soft clause written with weight 1.
func TestParseWCNF2022Unweighted(t *testing.T) {
	in := "h 1 -2 0\n1 2 0\n1 -1 0\n"
	w, err := ParseWCNF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Weighted() {
		t.Fatal("unit-weight 2022 instance must read as unweighted")
	}
	if w.NumHard() != 1 || w.NumSoft() != 2 {
		t.Fatalf("got %d hard %d soft, want 1/2", w.NumHard(), w.NumSoft())
	}
}

// TestWCNF2022RoundTrip writes random instances in the 2022 format and
// parses them back; clauses, weights and hardness must survive. Variable
// counts round-trip through the literals used (the format has no header),
// so instances are built with their highest variable mentioned.
func TestWCNF2022RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 30; iter++ {
		w := NewWCNF(1 + rng.Intn(10))
		for i := 0; i < 1+rng.Intn(20); i++ {
			var c []Lit
			for j := 0; j <= rng.Intn(4); j++ {
				c = append(c, NewLit(Var(rng.Intn(w.NumVars)), rng.Intn(2) == 0))
			}
			if rng.Intn(3) == 0 {
				w.AddHard(c...)
			} else {
				w.AddSoft(Weight(1+rng.Intn(5)), c...)
			}
		}
		// Pin the variable count into the instance for the round trip.
		w.AddHard(PosLit(Var(w.NumVars-1)), NegLit(Var(w.NumVars-1)))
		var buf bytes.Buffer
		if err := WriteWCNF2022(&buf, w); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), "p ") {
			t.Fatal("2022 format must not contain a header")
		}
		g, err := ParseWCNF(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, buf.String())
		}
		if g.NumVars != w.NumVars || g.NumClauses() != w.NumClauses() {
			t.Fatalf("iter %d: size mismatch %d/%d vs %d/%d",
				iter, w.NumVars, w.NumClauses(), g.NumVars, g.NumClauses())
		}
		for i := range w.Clauses {
			if w.Clauses[i].Weight != g.Clauses[i].Weight {
				t.Fatalf("iter %d: clause %d weight %d vs %d",
					iter, i, w.Clauses[i].Weight, g.Clauses[i].Weight)
			}
			if len(w.Clauses[i].Clause) != len(g.Clauses[i].Clause) {
				t.Fatalf("iter %d: clause %d length mismatch", iter, i)
			}
			for j, l := range w.Clauses[i].Clause {
				if g.Clauses[i].Clause[j] != l {
					t.Fatalf("iter %d: clause %d literal %d mismatch", iter, i, j)
				}
			}
		}
	}
}
