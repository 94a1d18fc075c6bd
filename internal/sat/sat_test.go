package sat

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/brute"
	"repro/internal/cnf"
)

func lit(i int) cnf.Lit { return cnf.FromDIMACS(i) }

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty solver: %v, want Sat", st)
	}
}

func TestSimpleSat(t *testing.T) {
	s := New()
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(1), lit(-2))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	m := s.Model()
	if !m[0] || !m[1] {
		t.Fatalf("model %v does not satisfy (both must be true)", m)
	}
}

func TestSimpleUnsat(t *testing.T) {
	s := New()
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(1), lit(-2))
	s.AddClause(lit(-1), lit(-2))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.Okay() {
		t.Fatal("solver should be permanently unsat")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatal("subsequent solve must stay Unsat")
	}
}

func TestUnitConflictAtAdd(t *testing.T) {
	s := New()
	if !s.AddClause(lit(1)) {
		t.Fatal("first unit should succeed")
	}
	if s.AddClause(lit(-1)) {
		t.Fatal("contradicting unit should fail")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause should return false")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	s.AddClause(lit(1), lit(-1))
	if s.NumClauses() != 0 {
		t.Fatal("tautology should not be attached")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
}

func TestPaperExample1PBOFormulaSat(t *testing.T) {
	// φW = (x1 ∨ b1)(x2 ∨ ¬x1 ∨ b2)(¬x2 ∨ b3) from Example 1 of the paper
	// is satisfiable (that is the whole point of blocking variables).
	s := New()
	x1, x2, b1, b2, b3 := lit(1), lit(2), lit(3), lit(4), lit(5)
	s.AddClause(x1, b1)
	s.AddClause(x2, x1.Neg(), b2)
	s.AddClause(x2.Neg(), b3)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(-2), lit(3))
	if st := s.Solve(lit(1), lit(-3)); st != Unsat {
		t.Fatalf("got %v, want Unsat under assumptions", st)
	}
	core := s.Core()
	if len(core) == 0 {
		t.Fatal("core must be non-empty")
	}
	// Solver must remain usable and satisfiable without assumptions.
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat without assumptions", st)
	}
	if st := s.Solve(lit(1), lit(3)); st != Sat {
		t.Fatalf("got %v, want Sat under consistent assumptions", st)
	}
	m := s.Model()
	if !m[0] || !m[1] || !m[2] {
		t.Fatalf("model %v must satisfy assumptions and implications", m)
	}
}

func TestCoreIsSubsetOfAssumptions(t *testing.T) {
	s := New()
	// x1..x4 chain, contradiction only between a1 and a3.
	s.AddClause(lit(-10), lit(1))
	s.AddClause(lit(-11), lit(2))
	s.AddClause(lit(-12), lit(-1))
	s.AddClause(lit(-13), lit(3))
	assumps := []cnf.Lit{lit(10), lit(11), lit(12), lit(13)}
	if st := s.Solve(assumps...); st != Unsat {
		t.Fatal("want Unsat")
	}
	core := s.Core()
	inAssumps := map[cnf.Lit]bool{}
	for _, a := range assumps {
		inAssumps[a] = true
	}
	coreSet := map[cnf.Lit]bool{}
	for _, l := range core {
		if !inAssumps[l] {
			t.Fatalf("core literal %v is not an assumption", l)
		}
		coreSet[l] = true
	}
	if !coreSet[lit(10)] || !coreSet[lit(12)] {
		t.Fatalf("core %v must contain the conflicting selectors 10 and 12", core)
	}
	if coreSet[lit(11)] || coreSet[lit(13)] {
		t.Fatalf("core %v should not contain irrelevant selectors", core)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	s.AddClause(lit(1), lit(2))
	if st := s.Solve(); st != Sat {
		t.Fatal("want Sat")
	}
	s.AddClause(lit(-1))
	s.AddClause(lit(-2))
	if st := s.Solve(); st != Unsat {
		t.Fatal("want Unsat after adding contradicting units")
	}
}

func TestModelSatisfiesFormulaRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		f := randomFormula(rng, 3+rng.Intn(12), 1+rng.Intn(50), 3)
		s := New()
		s.AddFormula(f)
		st := s.Solve()
		want, _ := brute.SAT(f)
		switch st {
		case Sat:
			if !want {
				t.Fatalf("iter %d: solver Sat but formula unsat:\n%v", iter, f.Clauses)
			}
			m := s.Model()
			if !f.Eval(m[:f.NumVars]) {
				t.Fatalf("iter %d: model does not satisfy formula", iter)
			}
		case Unsat:
			if want {
				t.Fatalf("iter %d: solver Unsat but formula sat:\n%v", iter, f.Clauses)
			}
		default:
			t.Fatalf("iter %d: unexpected Unknown", iter)
		}
	}
}

func TestVerdictMatchesBruteForceHardFormulas(t *testing.T) {
	// Denser, larger formulas stress clause learning and restarts.
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 60; iter++ {
		n := 8 + rng.Intn(8)
		f := randomFormula(rng, n, int(4.5*float64(n)), 3)
		s := New()
		s.AddFormula(f)
		st := s.Solve()
		want, _ := brute.SAT(f)
		if (st == Sat) != want || st == Unknown {
			t.Fatalf("iter %d: got %v, brute force sat=%v", iter, st, want)
		}
	}
}

func TestAssumptionCoreIsUnsat(t *testing.T) {
	// Whenever Solve(assumps) is Unsat, adding the core literals as unit
	// clauses to a fresh solver over the same formula must be Unsat.
	rng := rand.New(rand.NewSource(99))
	tested := 0
	for iter := 0; iter < 300 && tested < 40; iter++ {
		f := randomFormula(rng, 6+rng.Intn(6), 10+rng.Intn(30), 3)
		s := New()
		s.AddFormula(f)
		var assumps []cnf.Lit
		for v := 0; v < f.NumVars; v++ {
			if rng.Intn(2) == 0 {
				assumps = append(assumps, cnf.NewLit(cnf.Var(v), rng.Intn(2) == 0))
			}
		}
		if s.Solve(assumps...) != Unsat {
			continue
		}
		tested++
		core := s.Core()
		s2 := New()
		s2.AddFormula(f)
		for _, l := range core {
			s2.AddClause(l)
		}
		if st := s2.Solve(); st != Unsat {
			t.Fatalf("iter %d: core %v is not unsat (got %v)", iter, core, st)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d unsat-under-assumption cases exercised", tested)
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n) is unsatisfiable and requires real search.
	for _, n := range []int{3, 4, 5, 6} {
		s := New()
		addPigeonhole(s, n)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d+1,%d): got %v, want Unsat", n, n, st)
		}
	}
	// PHP(n, n) is satisfiable.
	s := New()
	addPigeonholeSquare(s, 5)
	if st := s.Solve(); st != Sat {
		t.Fatalf("PHP(5,5): got %v, want Sat", st)
	}
}

// pigeonVar maps pigeon p in hole h (both 0-based) to a variable.
func pigeonVar(p, h, holes int) cnf.Lit {
	return cnf.PosLit(cnf.Var(p*holes + h))
}

func addPigeonhole(s *Solver, n int) {
	pigeons, holes := n+1, n
	for p := 0; p < pigeons; p++ {
		var c []cnf.Lit
		for h := 0; h < holes; h++ {
			c = append(c, pigeonVar(p, h, holes))
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(pigeonVar(p1, h, holes).Neg(), pigeonVar(p2, h, holes).Neg())
			}
		}
	}
}

func addPigeonholeSquare(s *Solver, n int) {
	for p := 0; p < n; p++ {
		var c []cnf.Lit
		for h := 0; h < n; h++ {
			c = append(c, pigeonVar(p, h, n))
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(pigeonVar(p1, h, n).Neg(), pigeonVar(p2, h, n).Neg())
			}
		}
	}
}

func TestBudgetConflicts(t *testing.T) {
	s := New()
	addPigeonhole(s, 7) // hard enough to exceed a tiny conflict budget
	s.SetBudget(Budget{MaxConflicts: 10})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("got %v, want Unknown under 10-conflict budget", st)
	}
	if !s.Okay() {
		t.Fatal("aborted solve must not mark solver unsat")
	}
	// Lifting the budget must allow completion.
	s.SetBudget(Budget{})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat without budget", st)
	}
}

func TestBudgetMemory(t *testing.T) {
	s := New()
	addPigeonhole(s, 7) // learns far more than a few hundred bytes of clauses
	if s.MemoryFootprint() <= 0 {
		t.Fatal("footprint of a loaded solver must be positive")
	}
	s.SetBudget(Budget{MaxMemory: 256})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("got %v, want Unknown under a 256-byte memory budget", st)
	}
	if !s.Okay() {
		t.Fatal("aborted solve must not mark solver unsat")
	}
	// Lifting the cap must allow completion.
	s.SetBudget(Budget{})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat without budget", st)
	}
}

func TestBudgetDeadline(t *testing.T) {
	s := New()
	addPigeonhole(s, 11)
	s.SetBudget(Budget{Deadline: time.Now().Add(10 * time.Millisecond)})
	start := time.Now()
	st := s.Solve()
	elapsed := time.Since(start)
	if st == Sat {
		t.Fatal("PHP cannot be Sat")
	}
	if st == Unknown && elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
}

func TestStatsProgress(t *testing.T) {
	s := New()
	addPigeonhole(s, 5)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Fatalf("stats should be non-zero: %+v", st)
	}
	if st.Solves != 1 {
		t.Fatalf("Solves = %d, want 1", st.Solves)
	}
}

func TestEnsureVars(t *testing.T) {
	s := New()
	s.EnsureVars(10)
	if s.NumVars() != 10 {
		t.Fatalf("NumVars = %d, want 10", s.NumVars())
	}
	if st := s.Solve(); st != Sat {
		t.Fatal("vars without clauses must be Sat")
	}
	if len(s.Model()) != 10 {
		t.Fatalf("model length %d, want 10", len(s.Model()))
	}
}

func TestSolveWithUnallocatedAssumptionVar(t *testing.T) {
	s := New()
	s.AddClause(lit(1))
	if st := s.Solve(lit(5)); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	m := s.Model()
	if !m.Lit(lit(5)) {
		t.Fatal("assumption must hold in model")
	}
}

func TestManySolvesIncremental(t *testing.T) {
	// Simulates the msu4 usage pattern: repeated solves with growing clause
	// set and changing assumptions.
	rng := rand.New(rand.NewSource(5))
	s := New()
	f := cnf.NewFormula(12)
	for round := 0; round < 30; round++ {
		c := make([]cnf.Lit, 0, 3)
		for j := 0; j < 3; j++ {
			c = append(c, cnf.NewLit(cnf.Var(rng.Intn(12)), rng.Intn(2) == 0))
		}
		f.AddClause(c...)
		s.AddClause(c...)
		var assumps []cnf.Lit
		for v := 0; v < 3; v++ {
			if rng.Intn(3) == 0 {
				assumps = append(assumps, cnf.NewLit(cnf.Var(v), rng.Intn(2) == 0))
			}
		}
		st := s.Solve(assumps...)
		// Cross-check with brute force on formula + assumption units.
		g := f.Clone()
		for _, a := range assumps {
			g.AddClause(a)
		}
		want, _ := brute.SAT(g)
		if (st == Sat) != want {
			t.Fatalf("round %d: got %v, brute sat=%v", round, st, want)
		}
		if !want {
			return // solver now permanently unsat, pattern complete
		}
	}
}

func TestLuby(t *testing.T) {
	want := []float64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(2, i); got != w {
			t.Fatalf("luby(2,%d) = %v, want %v", i, got, w)
		}
	}
}

func TestHeapOrdering(t *testing.T) {
	var h varHeap
	act := []float64{5, 1, 9, 3, 7}
	for v := 0; v < 5; v++ {
		h.insert(cnf.Var(v), act)
	}
	want := []cnf.Var{2, 4, 0, 3, 1}
	for i, w := range want {
		if got := h.removeMax(act); got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
	if got := h.removeMax(act); got != cnf.VarUndef {
		t.Fatalf("empty heap returned %v", got)
	}
}

func TestHeapIncrease(t *testing.T) {
	var h varHeap
	act := []float64{1, 2, 3}
	for v := 0; v < 3; v++ {
		h.insert(cnf.Var(v), act)
	}
	act[0] = 10
	h.increased(0, act)
	if got := h.removeMax(act); got != 0 {
		t.Fatalf("after bump, max = %v, want 0", got)
	}
	// Re-inserting an existing element is a no-op.
	h.insert(1, act)
	h.insert(1, act)
	if h.size() != 2 {
		t.Fatalf("size = %d, want 2", h.size())
	}
}

// randomFormula builds a random k-SAT formula (clauses may be shorter).
func randomFormula(rng *rand.Rand, vars, clauses, k int) *cnf.Formula {
	f := cnf.NewFormula(vars)
	for i := 0; i < clauses; i++ {
		width := 1 + rng.Intn(k)
		c := make([]cnf.Lit, 0, width)
		for j := 0; j < width; j++ {
			c = append(c, cnf.NewLit(cnf.Var(rng.Intn(vars)), rng.Intn(2) == 0))
		}
		f.AddClause(c...)
	}
	return f
}

func TestClauseDBReductionTriggered(t *testing.T) {
	// A large random unsat-ish instance must run long enough to trigger
	// learnt-clause deletion without losing correctness.
	rng := rand.New(rand.NewSource(31))
	s := New()
	f := randomFormula(rng, 60, 380, 3)
	s.AddFormula(f)
	st := s.Solve()
	if st == Unknown {
		t.Fatal("unbudgeted solve returned Unknown")
	}
	if st == Sat && !f.Eval(s.Model()[:f.NumVars]) {
		t.Fatal("model check failed")
	}
	stats := s.Stats()
	if stats.Conflicts < 100 {
		t.Skipf("instance too easy to exercise reduction (%d conflicts)", stats.Conflicts)
	}
	// Learnt bookkeeping must stay consistent.
	if s.NumLearnts() < 0 {
		t.Fatal("negative learnt count")
	}
}

func TestRestartsHappen(t *testing.T) {
	s := New()
	addPigeonhole(s, 7)
	s.Solve()
	if s.Stats().Restarts == 0 {
		t.Fatal("PHP(8,7) should trigger restarts")
	}
	if s.Stats().MinimizedLit == 0 {
		t.Fatal("conflict-clause minimization never fired")
	}
}

// TestTrailReuseAcrossSolves checks the incremental-solve optimization:
// between consecutive Solve calls the trail segment whose assumption prefix
// is unchanged is kept, so an identical call re-propagates nothing, and a
// call that only changes a trailing assumption keeps the shared prefix.
func TestTrailReuseAcrossSolves(t *testing.T) {
	s := New()
	a := cnf.PosLit(0)
	b := cnf.PosLit(1)
	// A long implication chain hanging off a: a -> x2 -> x3 -> ... -> x9.
	for v := 2; v < 10; v++ {
		prev := a
		if v > 2 {
			prev = cnf.PosLit(cnf.Var(v - 1))
		}
		s.AddClause(prev.Neg(), cnf.PosLit(cnf.Var(v)))
	}
	if st := s.Solve(a, b); st != Sat {
		t.Fatalf("first solve: %v", st)
	}
	if s.decisionLevel() == 0 {
		t.Fatal("trail not kept after Solve")
	}
	props := s.stats.Propagations
	if st := s.Solve(a, b); st != Sat {
		t.Fatalf("second solve: %v", st)
	}
	if delta := s.stats.Propagations - props; delta != 0 {
		t.Fatalf("identical re-solve re-propagated %d literals", delta)
	}

	// Flipping only the trailing assumption keeps a's level: the chain
	// (propagated at level 1) must not be re-propagated.
	props = s.stats.Propagations
	if st := s.Solve(a, b.Neg()); st != Sat {
		t.Fatalf("flipped-tail solve: %v", st)
	}
	if delta := s.stats.Propagations - props; delta > 2 {
		t.Fatalf("tail flip re-propagated the shared prefix: %d literals", delta)
	}
	m := s.Model()
	if !m.Lit(a) || m.Lit(b) {
		t.Fatalf("model ignores assumptions: %v", m[:10])
	}

	// Adding a clause invalidates the kept trail; the solver must recover
	// and stay correct.
	s.AddClause(cnf.NegLit(9), cnf.PosLit(10))
	if s.decisionLevel() != 0 {
		t.Fatal("AddClause must backtrack to level 0")
	}
	if st := s.Solve(a, b); st != Sat {
		t.Fatalf("post-AddClause solve: %v", st)
	}
	if m := s.Model(); !m[10] {
		t.Fatal("new clause not propagated after trail reset")
	}

	// A changed leading assumption discards everything and still works.
	if st := s.Solve(a.Neg(), b); st != Sat {
		t.Fatalf("flipped-head solve: %v", st)
	}
	if m := s.Model(); m.Lit(a) {
		t.Fatal("flipped head assumption not honoured")
	}
}

// TestTrailReuseUnsatCore checks that core extraction stays correct when
// the failing call reuses a kept assumption prefix.
func TestTrailReuseUnsatCore(t *testing.T) {
	s := New()
	x, y, z := cnf.PosLit(0), cnf.PosLit(1), cnf.PosLit(2)
	s.AddClause(x.Neg(), y.Neg()) // x and y conflict
	if st := s.Solve(x, z); st != Sat {
		t.Fatalf("warmup: %v", st)
	}
	// Same leading assumption, new failing tail.
	if st := s.Solve(x, z, y); st != Unsat {
		t.Fatalf("want Unsat, got %v", st)
	}
	core := s.Core()
	seen := map[cnf.Lit]bool{}
	for _, l := range core {
		seen[l] = true
	}
	if !seen[x] && !seen[y] {
		t.Fatalf("core %v misses the conflicting assumptions", core)
	}
	if seen[z] {
		t.Fatalf("core %v contains irrelevant assumption", core)
	}
	// And the solver remains usable afterwards.
	if st := s.Solve(y, z); st != Sat {
		t.Fatalf("post-core solve: %v", st)
	}
}
