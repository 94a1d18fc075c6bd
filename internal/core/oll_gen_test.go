package core

import (
	"context"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/opt"
)

// TestOLLWeightedFamilies is the gen-family differential suite: on every
// instance of the weighted suite, OLL (plain and preprocessed) must agree
// with the known optimum where one exists and with wmsu4 everywhere.
func TestOLLWeightedFamilies(t *testing.T) {
	for _, in := range gen.WeightedSuite(11) {
		want := in.KnownCost
		if want < 0 {
			ref := NewWMSU4(opt.Options{}).Solve(context.Background(), in.W, nil)
			if ref.Status != opt.StatusOptimal {
				t.Fatalf("%s: wmsu4 reference did not finish: %v", in.Name, ref.Status)
			}
			want = ref.Cost
		}
		for _, pre := range []bool{false, true} {
			var m opt.Solver = NewOLL(opt.Options{})
			if pre {
				m = opt.Preprocessed(m)
			}
			r := m.Solve(context.Background(), in.W, nil)
			if r.Status != opt.StatusOptimal || r.Cost != want {
				t.Fatalf("%s (pre=%v): got %v, want optimal %d", in.Name, pre, r, want)
			}
			if !opt.VerifyModel(in.W, r) {
				t.Fatalf("%s (pre=%v): model inconsistent", in.Name, pre)
			}
		}
	}
}

// TestOLLSelectionMechanisms pins the BLO showcase: on the selection family
// the top stratum is satisfiable alone, so stratification solves it first
// and hardening pins the heaviest option before the unit-weight levels are
// even considered.
func TestOLLSelectionMechanisms(t *testing.T) {
	in := gen.SelectionWeighted(5, 4, 2)
	probe := &OLLProbe{}
	m := &OLL{Probe: probe}
	r := m.Solve(context.Background(), in.W, nil)
	if r.Status != opt.StatusOptimal || r.Cost != in.KnownCost {
		t.Fatalf("got %v, want optimal %d", r, in.KnownCost)
	}
	if probe.Strata < 2 {
		t.Fatalf("strata %d, want >= 2", probe.Strata)
	}
	if probe.Hardened == 0 {
		t.Fatal("hardening never fired on the selection family")
	}
}

// TestOLLWeightedPigeonholeExhausts pins the exhaustion showcase: the
// weighted soft pigeonhole's single big core must be re-bounded without a
// fresh model between rounds.
func TestOLLWeightedPigeonholeExhausts(t *testing.T) {
	in := gen.PigeonholeWeighted(5)
	probe := &OLLProbe{}
	m := &OLL{Probe: probe}
	r := m.Solve(context.Background(), in.W, nil)
	if r.Status != opt.StatusOptimal || r.Cost != in.KnownCost {
		t.Fatalf("got %v, want optimal %d", r, in.KnownCost)
	}
	if probe.Cores == 0 {
		t.Fatal("no cores on soft pigeonhole")
	}
	if lb := r.LowerBound; lb != cnf.Weight(1) {
		t.Fatalf("lower bound %d, want 1", lb)
	}
}
