package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/opt"
)

// TestIncDeltaVsBrute grows random formulas delta by delta and checks every
// SolveDelta against brute force on the accumulated formula — the engine's
// core contract: a delta re-solve answers exactly like a fresh solve.
func TestIncDeltaVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	for iter := 0; iter < 30; iter++ {
		vars := 3 + rng.Intn(6)
		acc := randomWCNF(rng, vars, 3+rng.Intn(8), true)
		m := NewInc(opt.Options{}, acc)
		for step := 0; step < 4; step++ {
			if step > 0 {
				// Random monotone delta: hard clauses and unit softs, some
				// over fresh variables (exercising the vmap growth path).
				dv := vars + rng.Intn(3)
				var hards []cnf.Clause
				var softs []cnf.WClause
				for i, n := 0, 1+rng.Intn(4); i < n; i++ {
					width := 1 + rng.Intn(3)
					c := make(cnf.Clause, 0, width)
					for j := 0; j < width; j++ {
						c = append(c, cnf.NewLit(cnf.Var(rng.Intn(dv)), rng.Intn(2) == 0))
					}
					if rng.Intn(4) == 0 {
						hards = append(hards, c)
						acc.AddHard(c...)
					} else {
						softs = append(softs, cnf.WClause{Clause: c, Weight: 1})
						acc.AddSoft(1, c...)
					}
				}
				if !m.Absorb(hards, softs) {
					t.Fatalf("iter %d step %d: engine retired itself on a monotone delta", iter, step)
				}
			}
			want, _, feasible := brute.MinCostWCNF(acc)
			r := m.SolveDelta(context.Background(), acc, nil)
			if !feasible {
				if r.Status != opt.StatusUnsat {
					t.Fatalf("iter %d step %d: status %v, want UNSAT", iter, step, r.Status)
				}
				break // hard conflict is permanent; no point growing further
			}
			if r.Status != opt.StatusOptimal {
				t.Fatalf("iter %d step %d: status %v, want OPTIMAL", iter, step, r.Status)
			}
			if r.Cost != want {
				t.Fatalf("iter %d step %d: cost %d, want %d\nclauses: %v",
					iter, step, r.Cost, want, acc.Clauses)
			}
			if !opt.VerifyModel(acc, r) {
				t.Fatalf("iter %d step %d: model does not witness cost %d", iter, step, r.Cost)
			}
		}
		m.Close()
	}
}

// TestIncTotalizerRegrowth drives the lower bound past the headroom of the
// first totalizer the engine built: each delta adds another contradictory
// unit-soft pair, raising the optimum by one, until the bound reaches the
// old encoding's truncation limit and the engine must rebuild. Before the
// rebuild logic existed, this pattern returned a false optimum.
func TestIncTotalizerRegrowth(t *testing.T) {
	base := cnf.NewWCNF(1)
	base.AddSoft(1, lit(1))
	base.AddSoft(1, lit(-1))
	m := NewInc(opt.Options{}, base)
	defer m.Close()
	acc := base.Clone()
	for k := 1; k <= 6; k++ {
		if k > 1 {
			v := k // fresh variable per pair
			softs := []cnf.WClause{
				{Clause: cnf.Clause{lit(v + 1)}, Weight: 1},
				{Clause: cnf.Clause{lit(-(v + 1))}, Weight: 1},
			}
			acc.AddSoft(1, lit(v+1))
			acc.AddSoft(1, lit(-(v + 1)))
			if !m.Absorb(nil, softs) {
				t.Fatalf("k=%d: engine retired itself", k)
			}
		}
		r := m.SolveDelta(context.Background(), acc, nil)
		if r.Status != opt.StatusOptimal || r.Cost != cnf.Weight(k) {
			t.Fatalf("k=%d: status %v cost %d, want OPTIMAL %d", k, r.Status, r.Cost, k)
		}
		if !opt.VerifyModel(acc, r) {
			t.Fatalf("k=%d: model does not witness cost %d", k, r.Cost)
		}
	}
}

// TestIncHardConflict checks that an unsatisfiable hard delta turns every
// later solve into UNSAT — permanently, since deltas only add clauses.
func TestIncHardConflict(t *testing.T) {
	base := cnf.NewWCNF(2)
	base.AddSoft(1, lit(1))
	m := NewInc(opt.Options{}, base)
	defer m.Close()
	if r := m.SolveDelta(context.Background(), base, nil); r.Status != opt.StatusOptimal || r.Cost != 0 {
		t.Fatalf("base solve: status %v cost %d", r.Status, r.Cost)
	}
	if !m.Absorb([]cnf.Clause{{lit(2)}, {lit(-2)}}, nil) {
		t.Fatal("engine retired itself on a hard delta")
	}
	acc := base.Clone()
	acc.AddHard(lit(2))
	acc.AddHard(lit(-2))
	if r := m.SolveDelta(context.Background(), acc, nil); r.Status != opt.StatusUnsat {
		t.Fatalf("after hard conflict: status %v, want UNSAT", r.Status)
	}
	// Still UNSAT after more (irrelevant) growth.
	if !m.Absorb(nil, []cnf.WClause{{Clause: cnf.Clause{lit(1)}, Weight: 1}}) {
		t.Fatal("engine retired itself")
	}
	acc.AddSoft(1, lit(1))
	if r := m.SolveDelta(context.Background(), acc, nil); r.Status != opt.StatusUnsat {
		t.Fatalf("after further growth: status %v, want UNSAT", r.Status)
	}
}

// TestIncWeightedSoftRetires checks that a non-unit soft clause makes Absorb
// report the engine unusable (the caller then falls back for good).
func TestIncWeightedSoftRetires(t *testing.T) {
	base := cnf.NewWCNF(1)
	base.AddSoft(1, lit(1))
	m := NewInc(opt.Options{}, base)
	defer m.Close()
	if m.Absorb(nil, []cnf.WClause{{Clause: cnf.Clause{lit(-1)}, Weight: 2}}) {
		t.Fatal("Absorb accepted a weighted soft clause")
	}
	if r := m.SolveDelta(context.Background(), base, nil); r.Status != opt.StatusUnknown {
		t.Fatalf("poisoned engine answered %v, want UNKNOWN", r.Status)
	}
}

// TestIncTrailReuse checks the warm-solver signal: a delta solve that climbs
// the lower bound re-solves under a repeated assumption prefix and must
// carry trail levels over between consecutive SAT calls.
func TestIncTrailReuse(t *testing.T) {
	// Many satisfiable softs (a long stable selector prefix) plus one
	// contradictory pair that forces a core and a bound climb.
	w := cnf.NewWCNF(12)
	for i := 1; i <= 10; i++ {
		w.AddSoft(1, lit(i))
	}
	w.AddSoft(1, lit(11))
	w.AddSoft(1, lit(-11))
	m := NewInc(opt.Options{}, w)
	defer m.Close()
	r := m.SolveDelta(context.Background(), w, nil)
	if r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("status %v cost %d, want OPTIMAL 1", r.Status, r.Cost)
	}
	if m.TrailReused() == 0 {
		t.Fatal("expected trail reuse across the bound climb, got none")
	}
}

// TestMSU3IsSessionWithoutDeltas checks that a session's first solve of a
// formula is the one-shot msu3 search, counter for counter: both run the
// one Inc engine over the same variable and clause layout. The first twelve
// suite instances are order-sensitive enough to show a layout mismatch;
// rand3-v20-r6.0-s105, for one, takes 128 conflicts when the hard clauses
// load before the softs, against 114 in formula order.
func TestMSU3IsSessionWithoutDeltas(t *testing.T) {
	ctx := context.Background()
	for _, in := range gen.Suite(1)[:12] {
		if in.W.Weighted() {
			continue
		}
		m := NewInc(opt.Options{}, in.W)
		got := m.SolveDelta(ctx, in.W, nil)
		m.Close()
		want := NewMSU3(opt.Options{}).Solve(ctx, in.W, nil)
		type counters struct {
			st              opt.Status
			cost            cnf.Weight
			iters, sat, uns int
			conflicts       int64
		}
		c := func(r opt.Result) counters {
			return counters{r.Status, r.Cost, r.Iterations, r.SatCalls, r.UnsatCalls, r.Conflicts}
		}
		if c(got) != c(want) {
			t.Errorf("%s: session first solve %+v, one-shot msu3 %+v", in.Name, c(got), c(want))
		}
	}
}

// TestIncDoesNotAliasBase overwrites the caller's base in place after
// opening the engine: a session caller may reuse its formula, so the engine
// must have copied every literal it keeps.
func TestIncDoesNotAliasBase(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 30; iter++ {
		base := randomWCNF(rng, 3+rng.Intn(6), 3+rng.Intn(8), true)
		w := base.Clone()
		m := NewInc(opt.Options{}, base)
		for _, c := range base.Clauses {
			for i := range c.Clause {
				c.Clause[i] = c.Clause[i].Neg()
			}
		}
		want, _, feasible := brute.MinCostWCNF(w)
		r := m.SolveDelta(context.Background(), w, nil)
		m.Close()
		if !feasible {
			if r.Status != opt.StatusUnsat {
				t.Fatalf("iter %d: status %v, want UNSAT", iter, r.Status)
			}
			continue
		}
		if r.Status != opt.StatusOptimal || r.Cost != want {
			t.Fatalf("iter %d: status %v cost %d, want OPTIMAL %d", iter, r.Status, r.Cost, want)
		}
		if !opt.VerifyModel(w, r) {
			t.Fatalf("iter %d: model does not witness cost %d", iter, r.Cost)
		}
	}
}
