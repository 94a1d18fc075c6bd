package proof_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/proof"
)

// boundFormulaDigest is the SHA-256 of every clause BoundFormula emits, in
// order, over the instances and bounds TestBoundFormulaStable walks. Stored
// certificates refute exactly the formula BoundFormula builds, so a change
// of clause order or content rejects every stored record at the next boot.
const boundFormulaDigest = "7cebaf29705af6af1d355ea128f5368003ef44250a9a908f176701411f0a7335"

// TestBoundFormulaStable pins BoundFormula's output for every instance of
// gen.WeightedSuite(1) and gen.Suite(42) at bounds 0, 1 and cost−1, and
// checks that its clauses do not alias: appending to one leaves the next
// unchanged.
func TestBoundFormulaStable(t *testing.T) {
	h := sha256.New()
	var buf []byte
	put := func(x int) {
		buf = binary.AppendVarint(buf[:0], int64(x))
		h.Write(buf)
	}
	for _, in := range append(gen.WeightedSuite(1), gen.Suite(42)...) {
		cost := in.KnownCost
		if cost < 0 {
			r := core.NewOLL(opt.Options{}).Solve(context.Background(), in.W, nil)
			if r.Status != opt.StatusOptimal {
				t.Fatalf("%s: %v", in.Name, r.Status)
			}
			cost = r.Cost
		}
		for _, b := range []cnf.Weight{0, 1, cost - 1} {
			f := proof.BoundFormula(in.W, b)
			put(f.NumVars)
			put(len(f.Clauses))
			for _, c := range f.Clauses {
				put(len(c))
				for _, l := range c {
					put(int(l))
				}
			}
			for i := 0; i+1 < len(f.Clauses); i++ {
				next := slices.Clone(f.Clauses[i+1])
				_ = append(f.Clauses[i], cnf.PosLit(0))
				if !slices.Equal(f.Clauses[i+1], next) {
					t.Fatalf("%s bound %d: appending to clause %d changed clause %d", in.Name, b, i, i+1)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != boundFormulaDigest {
		t.Errorf("BoundFormula's clauses changed: digest %s, want %s", got, boundFormulaDigest)
	}
}

// certifyDigest is the SHA-256 of opt.Certify's output over the answers
// TestCertifyBytesStable certifies. Served certificates, the store's
// certificate sections and cache-hit re-checks all carry these bytes, so a
// change in the lemmas Trim keeps or in their order shows here first.
const certifyDigest = "1e0814c0ed66b56c15455d4c3bed0debd821156ea67e10719eca5203f0f18211"

// TestCertifyBytesStable pins the certificate bytes opt.Certify produces for
// OLL's answers on gen.WeightedSuite(1) and msu4-v2's on the unit-weight
// instances of gen.Suite(42).
func TestCertifyBytesStable(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()
	certify := func(in gen.Instance, s opt.Solver) {
		r := s.Solve(ctx, in.W, nil)
		data, err := opt.Certify(ctx, in.W, r, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		h.Write(binary.AppendUvarint(nil, uint64(len(data))))
		h.Write(data)
	}
	for _, in := range gen.WeightedSuite(1) {
		certify(in, core.NewOLL(opt.Options{}))
	}
	for _, in := range gen.Suite(42) {
		if !in.W.Weighted() {
			certify(in, core.NewMSU4V2(opt.Options{}))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != certifyDigest {
		t.Errorf("opt.Certify's bytes changed: digest %s, want %s", got, certifyDigest)
	}
}
