package sat

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/brute"
	"repro/internal/cnf"
)

// TestWatcherAndArenaArePointerFree pins the acceptance criterion of the
// arena design: clause storage and watch lists contain no Go pointers, so
// the runtime GC never scans them.
func TestWatcherAndArenaArePointerFree(t *testing.T) {
	wt := reflect.TypeOf(watcher{})
	for i := 0; i < wt.NumField(); i++ {
		switch wt.Field(i).Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan:
			t.Fatalf("watcher field %s has pointer kind %v", wt.Field(i).Name, wt.Field(i).Type.Kind())
		}
	}
	if size := unsafe.Sizeof(watcher{}); size != 8 {
		t.Fatalf("watcher is %d bytes, want 8", size)
	}
	var a arena
	if k := reflect.TypeOf(a.data).Elem().Kind(); k != reflect.Uint32 {
		t.Fatalf("arena element kind %v, want uint32", k)
	}
}

func TestArenaAllocFreeReloc(t *testing.T) {
	var a arena
	c1 := []cnf.Lit{cnf.PosLit(0), cnf.NegLit(1), cnf.PosLit(2)}
	c2 := []cnf.Lit{cnf.NegLit(3), cnf.PosLit(4)}
	cr1 := a.alloc(c1, false)
	cr2 := a.alloc(c2, true)
	a.setActivity(cr2, 3.5)

	if a.size(cr1) != 3 || a.size(cr2) != 2 {
		t.Fatalf("sizes %d/%d, want 3/2", a.size(cr1), a.size(cr2))
	}
	if a.learnt(cr1) || !a.learnt(cr2) {
		t.Fatal("learnt flags wrong")
	}
	for i, want := range c1 {
		if got := a.lit(cr1, i); got != want {
			t.Fatalf("cr1 lit %d = %v, want %v", i, got, want)
		}
	}

	a.free(cr1)
	if !a.dead(cr1) || a.dead(cr2) {
		t.Fatal("dead marks wrong")
	}
	if a.wasted != hdrWords+3 {
		t.Fatalf("wasted = %d, want %d", a.wasted, hdrWords+3)
	}

	to := arena{data: make([]uint32, 0, len(a.data)-a.wasted)}
	n2 := a.reloc(cr2, &to)
	if again := a.reloc(cr2, &to); again != n2 {
		t.Fatalf("second reloc returned %v, want %v", again, n2)
	}
	if to.size(n2) != 2 || !to.learnt(n2) || to.dead(n2) {
		t.Fatal("relocated clause flags wrong")
	}
	if to.activity(n2) != 3.5 {
		t.Fatalf("relocated activity = %v, want 3.5", to.activity(n2))
	}
	for i, want := range c2 {
		if got := to.lit(n2, i); got != want {
			t.Fatalf("relocated lit %d = %v, want %v", i, got, want)
		}
	}
}

// random3SAT builds a uniform 3-SAT formula with the given clause/variable
// ratio: all clauses width 3 with distinct variables, so search (not level-0
// propagation) decides the instance.
func random3SAT(rng *rand.Rand, vars int, ratio float64) *cnf.Formula {
	f := cnf.NewFormula(vars)
	clauses := int(ratio * float64(vars))
	for i := 0; i < clauses; i++ {
		var vs [3]int
		vs[0] = rng.Intn(vars)
		for {
			vs[1] = rng.Intn(vars)
			if vs[1] != vs[0] {
				break
			}
		}
		for {
			vs[2] = rng.Intn(vars)
			if vs[2] != vs[0] && vs[2] != vs[1] {
				break
			}
		}
		c := make([]cnf.Lit, 3)
		for j, v := range vs {
			c[j] = cnf.NewLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		f.AddClause(c...)
	}
	return f
}

// TestArenaGCPreservesCorrectness interrupts real searches mid-proof, forces
// a reduceDB plus a compacting collection (remapping watchers, reasons, and
// clause lists), and checks the verdict afterwards still matches exhaustive
// search.
func TestArenaGCPreservesCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	gcs := int64(0)
	for iter := 0; iter < 40; iter++ {
		f := random3SAT(rng, 12+rng.Intn(4), 4.3)
		s := New()
		s.AddFormula(f)
		s.SetBudget(Budget{MaxConflicts: 20 + int64(rng.Intn(40))})
		s.Solve() // partial search: seed the learnt DB and trail
		s.SetBudget(Budget{})
		if !s.ok {
			continue // already decided at level 0
		}
		if len(s.learnts) > 0 {
			s.reduceDB()
		}
		s.garbageCollect()
		gcs += 1
		if s.ca.wasted != 0 {
			t.Fatalf("iter %d: wasted = %d after GC, want 0", iter, s.ca.wasted)
		}
		st := s.Solve()
		want, _ := brute.SAT(f)
		if (st == Sat) != want || st == Unknown {
			t.Fatalf("iter %d: post-GC verdict %v, brute sat=%v", iter, st, want)
		}
		if st == Sat && !f.Eval(s.Model()[:f.NumVars]) {
			t.Fatalf("iter %d: post-GC model invalid", iter)
		}
		if s.Stats().ArenaGCs == 0 {
			t.Fatalf("iter %d: ArenaGCs not counted", iter)
		}
	}
	if gcs == 0 {
		t.Fatal("no garbage collections exercised")
	}
}

// TestLazyDeletionSelfCleansWatchers deletes learnt clauses through the lazy
// path and checks that propagation over the same literals still succeeds and
// drops the dead watchers as it visits them.
func TestLazyDeletionSelfCleansWatchers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		f := random3SAT(rng, 12, 4.5)
		s := New()
		s.AddFormula(f)
		s.SetBudget(Budget{MaxConflicts: 50})
		s.Solve()
		s.SetBudget(Budget{})
		if !s.ok {
			continue
		}
		// Delete every non-locked long learnt clause lazily (no GC): their
		// watchers stay in the lists and must be skipped by propagate.
		ls := s.learnts
		j := 0
		for _, cr := range ls {
			if s.ca.size(cr) > 2 && !s.locked(cr) {
				s.removeClause(cr)
			} else {
				ls[j] = cr
				j++
			}
		}
		s.learnts = ls[:j]
		st := s.Solve()
		want, _ := brute.SAT(f)
		if (st == Sat) != want || st == Unknown {
			t.Fatalf("iter %d: verdict %v after lazy deletion, brute sat=%v", iter, st, want)
		}
	}
}
