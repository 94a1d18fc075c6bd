package core

import (
	"context"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/opt"
)

// FuzzOLLVsBrute differential-tests the OLL engine against exhaustive
// enumeration on fuzzer-chosen weighted partial MaxSAT instances.
//
// Input encoding (one byte stream, consumed clause by clause): each clause
// starts with a header byte h — width = h%3+1, weight = h/3%8 (0 marks the
// clause hard) — followed by width literal bytes (variable = byte % 5,
// negative if byte >= 128).
func FuzzOLLVsBrute(f *testing.F) {
	f.Add([]byte{4, 1, 4, 129, 0, 1, 0, 129}) // soft x2∨¬x2, hard x1, hard ¬x1
	f.Add([]byte{3, 0, 6, 1, 9, 129, 12, 2})  // weighted units over x1/x2
	f.Add([]byte{5, 1, 130, 8, 2, 1, 11, 3, 131, 14, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const fuzzVars = 5
		const maxClauses = 24
		w := cnf.NewWCNF(fuzzVars)
		i, clauses := 0, 0
		for i < len(data) && clauses < maxClauses {
			h := int(data[i])
			i++
			width := h%3 + 1
			if i+width > len(data) {
				break
			}
			c := make([]cnf.Lit, 0, width)
			for j := 0; j < width; j++ {
				b := data[i+j]
				c = append(c, cnf.NewLit(cnf.Var(int(b)%fuzzVars), b >= 128))
			}
			i += width
			if wt := h / 3 % 8; wt == 0 {
				w.AddHard(c...)
			} else {
				w.AddSoft(cnf.Weight(wt), c...)
			}
			clauses++
		}
		if clauses == 0 {
			return
		}
		want, _, feasible := brute.MinCostWCNF(w)
		for _, m := range []opt.Solver{NewOLL(opt.Options{}), opt.Preprocessed(NewOLL(opt.Options{}))} {
			r := m.Solve(context.Background(), w, nil)
			if !feasible {
				if r.Status != opt.StatusUnsat {
					t.Fatalf("status %v, want UNSAT\n%v", r.Status, w.Clauses)
				}
				continue
			}
			if r.Status != opt.StatusOptimal || r.Cost != want {
				t.Fatalf("got %v, want optimal %d\n%v", r, want, w.Clauses)
			}
			if !opt.VerifyModel(w, r) {
				t.Fatalf("model inconsistent\n%v", w.Clauses)
			}
		}
	})
}
