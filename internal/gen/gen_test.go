package gen

import (
	"context"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/sat"
)

// solveHards checks satisfiability of an instance's clauses with all soft
// clauses included (the "is it really unsatisfiable" check).
func solveAll(t *testing.T, in Instance) sat.Status {
	t.Helper()
	s := sat.New()
	s.EnsureVars(in.W.NumVars)
	for _, c := range in.W.Clauses {
		s.AddClauseFrom(c.Clause)
	}
	s.SetBudget(sat.Budget{Deadline: time.Now().Add(20 * time.Second)})
	return s.Solve()
}

func TestPigeonholeUnsatWithKnownCost(t *testing.T) {
	in := Pigeonhole(4)
	if st := solveAll(t, in); st != sat.Unsat {
		t.Fatalf("PHP must be unsat, got %v", st)
	}
	r := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), in.W, nil)
	if r.Cost != in.KnownCost {
		t.Fatalf("cost %d, want %d", r.Cost, in.KnownCost)
	}
}

func TestEquivMiterUnsat(t *testing.T) {
	for _, bits := range []int{3, 4, 6} {
		in := EquivMiter(bits)
		if st := solveAll(t, in); st != sat.Unsat {
			t.Fatalf("ec-adder-%d: got %v, want Unsat", bits, st)
		}
		r := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), in.W, nil)
		if r.Cost != 1 {
			t.Fatalf("ec-adder-%d: cost %d, want 1", bits, r.Cost)
		}
	}
}

func TestEquivMiterMultiplierUnsat(t *testing.T) {
	in := EquivMiterMultiplier(2)
	if st := solveAll(t, in); st != sat.Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
}

func TestBMCInstances(t *testing.T) {
	in := BMCCounter(3, 5)
	if st := solveAll(t, in); st != sat.Unsat {
		t.Fatalf("bmc-counter below depth must be unsat, got %v", st)
	}
	if in.KnownCost != 1 {
		t.Fatalf("known cost %d", in.KnownCost)
	}
	sat8 := BMCCounter(3, 8)
	if st := solveAll(t, sat8); st != sat.Sat {
		t.Fatalf("bmc-counter at depth 8 must be sat, got %v", st)
	}
	if sat8.KnownCost != 0 {
		t.Fatalf("known cost %d, want 0", sat8.KnownCost)
	}
	inS := BMCShift(6, 5)
	if st := solveAll(t, inS); st != sat.Unsat {
		t.Fatalf("bmc-shift below depth must be unsat, got %v", st)
	}
}

// TestBMCFramesPrefixStable pins the property BMCCounterFrames relies on:
// the Tseitin CNF of Unroll(k-1) is a strict prefix of Unroll(k)'s, so the
// per-frame clause diff reassembles every depth's formula exactly — the
// contract that lets a session accumulate frames as deltas. It also checks
// the forced optimum at every depth.
func TestBMCFramesPrefixStable(t *testing.T) {
	const n, maxK = 3, 9
	frames := BMCCounterFrames(n, maxK)
	acc := cnf.NewWCNF(0)
	for k := 1; k <= maxK; k++ {
		fr := frames[k-1]
		for _, c := range fr.Hards {
			acc.AddHard(c...)
		}
		acc.AddSoft(1, fr.Prop)

		u := circuit.Counter(n).Unroll(k)
		f, lits := circuitCNF(u)
		if fr.Prop != lits[u.Outputs[k-1]] {
			t.Fatalf("k=%d: property literal drifted across depths", k)
		}
		var hards []cnf.Clause
		for _, c := range acc.Clauses {
			if c.Hard() {
				hards = append(hards, c.Clause)
			}
		}
		if len(hards) != len(f.Clauses) {
			t.Fatalf("k=%d: accumulated %d hard clauses, Unroll(k) has %d",
				k, len(hards), len(f.Clauses))
		}
		for i := range hards {
			if len(hards[i]) != len(f.Clauses[i]) {
				t.Fatalf("k=%d: clause %d differs in width", k, i)
			}
			for j := range hards[i] {
				if hards[i][j] != f.Clauses[i][j] {
					t.Fatalf("k=%d: clause %d differs at literal %d", k, i, j)
				}
			}
		}

		r := core.NewMSU3(opt.Options{}).Solve(context.Background(), acc, nil)
		want := cnf.Weight(k - k/(1<<n))
		if r.Status != opt.StatusOptimal || r.Cost != want {
			t.Fatalf("k=%d: status %v cost %d, want OPTIMAL %d", k, r.Status, r.Cost, want)
		}
	}
}

// TestBMCShiftFramesOptimum checks the nondeterministic family: free
// shift-in inputs let the solver satisfy every frame from index w on, so
// the depth-k optimum is min(k, w).
func TestBMCShiftFramesOptimum(t *testing.T) {
	const w, maxK = 3, 6
	frames := BMCShiftFrames(w, maxK)
	acc := cnf.NewWCNF(0)
	for k := 1; k <= maxK; k++ {
		fr := frames[k-1]
		for _, c := range fr.Hards {
			acc.AddHard(c...)
		}
		acc.AddSoft(1, fr.Prop)
		r := core.NewMSU3(opt.Options{}).Solve(context.Background(), acc, nil)
		want := cnf.Weight(min(k, w))
		if r.Status != opt.StatusOptimal || r.Cost != want {
			t.Fatalf("k=%d: status %v cost %d, want OPTIMAL %d", k, r.Status, r.Cost, want)
		}
	}
}

func TestATPGRedundantUnsat(t *testing.T) {
	for _, bits := range []int{3, 4, 6} {
		in := ATPGRedundant(bits)
		if st := solveAll(t, in); st != sat.Unsat {
			t.Fatalf("atpg-red-%d: got %v, want Unsat (fault must be undetectable)", bits, st)
		}
	}
}

func TestRandomKSATDeterministic(t *testing.T) {
	a := RandomKSAT(7, 20, 3, 6.0)
	b := RandomKSAT(7, 20, 3, 6.0)
	if a.W.NumClauses() != b.W.NumClauses() {
		t.Fatal("same seed, different instance")
	}
	for i := range a.W.Clauses {
		for j := range a.W.Clauses[i].Clause {
			if a.W.Clauses[i].Clause[j] != b.W.Clauses[i].Clause[j] {
				t.Fatal("same seed, different clause content")
			}
		}
	}
	if st := solveAll(t, a); st != sat.Unsat {
		t.Fatalf("ratio-6 3-SAT should be unsat, got %v", st)
	}
}

func TestColoringHasHardAndSoft(t *testing.T) {
	in := Coloring(1, 8, 20, 3)
	if in.W.NumHard() == 0 || in.W.NumSoft() == 0 {
		t.Fatal("coloring must be partial MaxSAT")
	}
	r := core.NewMSU3(opt.Options{}).Solve(context.Background(), in.W, nil)
	if r.Status != opt.StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
	if r.Cost < 1 {
		t.Fatalf("over-constrained colouring should have positive cost, got %d", r.Cost)
	}
}

func TestDesignDebugInstance(t *testing.T) {
	di := DesignDebugDetailed(3, circuit.RippleAdder(3), 4)
	w := di.W
	if w.NumHard() == 0 || w.NumSoft() == 0 {
		t.Fatal("debug instance must be partial MaxSAT")
	}
	// The instance must be unsatisfiable with every guard on (the fault is
	// observable) …
	s := sat.New()
	s.EnsureVars(w.NumVars)
	for _, c := range w.Clauses {
		s.AddClauseFrom(c.Clause)
	}
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("all-guards-on must be unsat, got %v", st)
	}
	// … and the optimum must be exactly 1: suspending the faulty gate
	// explains everything.
	r := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("diagnosis: status %v cost %d, want optimal 1", r.Status, r.Cost)
	}
	// The model must point at a plausible suspect: find the falsified soft
	// clause and check the faulty gate is among the suspects whose
	// suspension repairs the behaviour. (Multiple minimal diagnoses can
	// exist; at minimum the model must suspend exactly one gate.)
	suspended := 0
	softIdx := 0
	for _, c := range w.Clauses {
		if c.Hard() {
			continue
		}
		if !r.Model.Satisfies(c.Clause) {
			suspended++
		}
		softIdx++
	}
	if suspended != 1 {
		t.Fatalf("model suspends %d gates, want 1", suspended)
	}
}

func TestSuiteComposition(t *testing.T) {
	insts := Suite(42)
	if len(insts) < 40 {
		t.Fatalf("suite has %d instances, want a substantial set", len(insts))
	}
	fams := Families(insts)
	wantFams := map[string]bool{
		"pigeonhole": false, "random": false, "equivalence": false,
		"bmc": false, "atpg": false, "coloring": false,
	}
	for _, f := range fams {
		if _, ok := wantFams[f]; ok {
			wantFams[f] = true
		}
	}
	for f, seen := range wantFams {
		if !seen {
			t.Fatalf("family %q missing from suite", f)
		}
	}
	names := map[string]bool{}
	for _, in := range insts {
		if names[in.Name] {
			t.Fatalf("duplicate instance name %q", in.Name)
		}
		names[in.Name] = true
		if in.W.NumClauses() == 0 {
			t.Fatalf("instance %q is empty", in.Name)
		}
	}
}

func TestDebugSuiteHas29(t *testing.T) {
	insts := DebugSuite(7)
	if len(insts) != 29 {
		t.Fatalf("debug suite has %d instances, want 29 (Table 2)", len(insts))
	}
	for _, in := range insts {
		if in.Family != "debug" {
			t.Fatalf("instance %q family %q", in.Name, in.Family)
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := Suite(42)
	b := Suite(42)
	if len(a) != len(b) {
		t.Fatal("suite size differs across calls")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].W.NumClauses() != b[i].W.NumClauses() {
			t.Fatalf("instance %d differs across calls", i)
		}
	}
}

func TestKnownCostsAreConsistent(t *testing.T) {
	// Spot-check: for instances with a known optimum, one solver must agree.
	for _, in := range []Instance{Pigeonhole(3), EquivMiter(3), BMCCounter(3, 4), ATPGRedundant(3)} {
		r := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), in.W, nil)
		if r.Status != opt.StatusOptimal {
			t.Fatalf("%s: status %v", in.Name, r.Status)
		}
		if in.KnownCost >= 0 && r.Cost != in.KnownCost {
			t.Fatalf("%s: cost %d, want %d", in.Name, r.Cost, in.KnownCost)
		}
	}
}

func TestDesignDebugPlainInstance(t *testing.T) {
	in := DesignDebugPlain(5, circuit.RippleAdder(3), 3)
	if in.W.NumHard() != 0 || in.W.Weighted() {
		t.Fatal("plain debug instance must be unweighted pure MaxSAT")
	}
	if st := solveAll(t, in); st != sat.Unsat {
		t.Fatalf("plain debug instance must be unsat, got %v", st)
	}
	r := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), in.W, nil)
	if r.Status != opt.StatusOptimal || r.Cost < 1 {
		t.Fatalf("status %v cost %d, want optimal >=1", r.Status, r.Cost)
	}
}

func TestColoringWeighted(t *testing.T) {
	in := ColoringWeighted(3, 8, 20, 3, 5)
	if !in.W.Weighted() {
		t.Fatal("weighted coloring must carry non-unit weights")
	}
	if in.W.NumHard() == 0 {
		t.Fatal("hard clauses missing")
	}
	a := core.NewWMSU4(opt.Options{}).Solve(context.Background(), in.W, nil)
	b := core.NewWMSU1(opt.Options{}).Solve(context.Background(), in.W, nil)
	if a.Status != opt.StatusOptimal || b.Status != opt.StatusOptimal {
		t.Fatalf("statuses %v/%v", a.Status, b.Status)
	}
	if a.Cost != b.Cost {
		t.Fatalf("wmsu4 %d vs wmsu1 %d", a.Cost, b.Cost)
	}
}

func TestEquivMiterKSUnsat(t *testing.T) {
	in := EquivMiterKS(4)
	if st := solveAll(t, in); st != sat.Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	r := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), in.W, nil)
	if r.Cost != 1 {
		t.Fatalf("cost %d, want 1", r.Cost)
	}
}
