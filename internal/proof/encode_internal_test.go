package proof

import (
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// TestReusedEncoderMatches builds every bound formula TestBoundFormulaStable
// pins, and more bounds, in one encoder reused from formula to formula, as
// a Checker reuses its encoder, and requires each to equal BoundFormula's
// fresh build: buffers left over from a larger or smaller formula change
// nothing.
func TestReusedEncoderMatches(t *testing.T) {
	var e encoder
	for _, in := range append(gen.WeightedSuite(1), gen.Suite(42)...) {
		for _, b := range []cnf.Weight{0, 1, 2, 3, 5, 8, 13} {
			want := BoundFormula(in.W, b)
			got := e.build(in.W, b)
			if got.NumVars != want.NumVars || !slices.EqualFunc(got.Clauses, want.Clauses, slices.Equal) {
				t.Fatalf("%s bound %d: the reused encoder built another formula", in.Name, b)
			}
		}
	}
}
