package sat

import (
	"testing"

	"repro/internal/cnf"
)

func lits(xs ...int) []cnf.Lit {
	out := make([]cnf.Lit, len(xs))
	for i, x := range xs {
		if x < 0 {
			out[i] = cnf.NegLit(cnf.Var(-x - 1))
		} else {
			out[i] = cnf.PosLit(cnf.Var(x - 1))
		}
	}
	return out
}

// TestLBDCounterWraparound: when the stamp counter wraps, stale stamps are
// cleared so levels are not falsely treated as already counted.
func TestLBDCounterWraparound(t *testing.T) {
	s := New()
	s.EnsureVars(4)
	// Pretend the literals sit at distinct decision levels 1..3.
	ls := lits(1, 2, 3)
	for i, l := range ls {
		s.level[l.Var()] = int32(i + 1)
	}
	// Fresh stamps are all 0; the wrapped counter value would also be 0,
	// falsely matching every level without the overflow fix.
	s.lbdCounter = ^uint32(0)
	if got := s.computeLBD(ls); got != 3 {
		t.Fatalf("computeLBD after counter wrap = %d, want 3", got)
	}
	if s.lbdCounter == 0 {
		t.Fatal("lbdCounter left at the ambiguous value 0")
	}
	// The next call must still count correctly.
	if got := s.computeLBD(ls); got != 3 {
		t.Fatalf("computeLBD after wrap recovery = %d, want 3", got)
	}
}

// TestGlucoseRestartPolicy: the adaptive policy still proves a conflict-heavy
// instance and actually restarts, and the diversification knobs keep the
// solver correct on a satisfiable one.
func TestGlucoseRestartPolicy(t *testing.T) {
	s := New()
	s.SetRestartPolicy(RestartGlucose)
	s.SetVarDecay(0.92)
	addPigeonhole(s, 6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php under glucose restarts: %v", st)
	}
	if s.Stats().Restarts == 0 {
		t.Fatal("glucose policy never restarted on a conflict-heavy proof")
	}

	pos := New()
	pos.SetDefaultPhase(true)
	pos.AddClause(lits(1, 2)...)
	pos.AddClause(lits(-1, 2)...)
	if st := pos.Solve(); st != Sat {
		t.Fatalf("positive-phase solver: %v", st)
	}
	if m := pos.Model(); !m[1] {
		t.Fatal("model does not satisfy the formula")
	}
}
