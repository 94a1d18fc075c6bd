package main

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/serve"
)

// streamBytes concatenates the wire form of the first n requests of a
// workload (prefill, then the window stream, or the session deltas).
func streamBytes(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	sp, err := newSpec(name, seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, jb := range sp.prefill {
		b.Write(jb.body)
	}
	if sp.session != nil {
		for _, st := range sp.session(0) {
			b.Write(st.body)
		}
		return b.Bytes()
	}
	for i := 0; i < n; i++ {
		b.Write(sp.next(i).body)
	}
	return b.Bytes()
}

func TestStreamsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := streamBytes(t, name, 7, 80), streamBytes(t, name, 7, 80)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", name)
		}
		if c := streamBytes(t, name, 8, 80); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

func TestRenamingPreservesOptimum(t *testing.T) {
	// Small instances: brute force on the original and on renamings.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		w := cnf.NewWCNF(9)
		for c := 0; c < 24; c++ {
			lits := []cnf.Lit{cnf.NewLit(cnf.Var(rng.Intn(9)), rng.Intn(2) == 0), cnf.NewLit(cnf.Var(rng.Intn(9)), rng.Intn(2) == 0)}
			if c%4 == 0 {
				w.AddHard(lits...)
			} else {
				w.AddSoft(cnf.Weight(1+rng.Intn(5)), lits...)
			}
		}
		want, _, feasible := brute.MinCostWCNF(w)
		jb := newJob(w, want, rngFor(int64(i), "brute", i))
		got, _, ok := brute.MinCostWCNF(jb.w)
		if ok != feasible || got != want {
			t.Fatalf("instance %d: renamed optimum %d (feasible %t), original %d (feasible %t)", i, got, ok, want, feasible)
		}
	}
	if w := gen.Pigeonhole(3).W; w.NumVars <= brute.MaxBruteVars {
		jb := newJob(w, 1, rngFor(1, "brute", 0))
		if got, _, _ := brute.MinCostWCNF(jb.w); got != 1 {
			t.Fatalf("renamed php-3: optimum %d, want 1", got)
		}
	}

	// The workloads' own requests: the reference optimum (KnownCost or the
	// set-up solve) of the original still holds for every renaming. Each
	// request's answer is parsed from its wire form, as the daemon sees it.
	for _, name := range []string{"cold-unique", "durable-weighted"} {
		sp, err := newSpec(name, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(gen.Suite(suiteSeed))
		if name == "durable-weighted" {
			n = len(gen.WeightedSuite(suiteSeed))
		}
		for i := 0; i < n; i++ {
			jb := sp.next(i)
			w, err := cnf.ParseWCNF(bytes.NewReader(jb.body))
			if err != nil {
				t.Fatal(err)
			}
			var s opt.Solver = core.NewMSU4V2(opt.Options{})
			if w.Weighted() {
				s = core.NewOLL(opt.Options{})
			}
			res := s.Solve(context.Background(), w, nil)
			if res.Status != opt.StatusOptimal || res.Cost != jb.want || !opt.VerifyModel(jb.w, res) {
				t.Fatalf("%s request %d: %v cost %d, want OPTIMAL %d", name, i, res.Status, res.Cost, jb.want)
			}
		}
	}

	// Sessions: the accumulated renamed BMC formula keeps the optimum
	// k - floor(k/64) at every depth checked.
	sp, err := newSpec("session-bmc", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	acc := cnf.NewWCNF(0)
	for _, st := range sp.session(0) {
		for _, c := range st.hards {
			acc.AddHard(c...)
		}
		acc.AddSoft(1, st.prop)
		if st.k <= 4 || st.k == 63 || st.k == 64 || st.k == 65 {
			res := core.NewMSU3(opt.Options{}).Solve(context.Background(), acc, nil)
			if res.Status != opt.StatusOptimal || res.Cost != st.want {
				t.Fatalf("session depth %d: %v cost %d, want %d", st.k, res.Status, res.Cost, st.want)
			}
		}
	}
}

func TestNoSharedFingerprints(t *testing.T) {
	cold, err := newSpec("cold-unique", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]string)
	note := func(w *cnf.WCNF, what string) {
		fp := serve.Fingerprint(w)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s shares fingerprint %x with %s", what, fp, prev)
		}
		seen[fp] = what
	}
	for i := 0; i < 10*len(gen.Suite(suiteSeed)); i++ {
		note(cold.next(i).w, "cold request")
	}
	sess, err := newSpec("session-bmc", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		acc := cnf.NewWCNF(0)
		for _, st := range sess.session(s) {
			for _, c := range st.hards {
				acc.AddHard(c...)
			}
			acc.AddSoft(1, st.prop)
			note(acc, "session step")
		}
	}
}
