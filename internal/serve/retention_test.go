package serve

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
)

// freed runs the garbage collector until every formula in wps is gone, or
// two seconds pass, and reports whether they all went. One collection is
// not enough: the run goroutine may still be unwinding when Wait returns.
func freed(wps ...weak.Pointer[cnf.WCNF]) bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		live := false
		for _, wp := range wps {
			live = live || wp.Value() != nil
		}
		if !live {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// tracker holds a job's solve until release closes and records a weak
// pointer to the snapshot the solve received. The job's completion orders
// that write before any read after Wait.
type tracker struct {
	release chan struct{}
	snap    weak.Pointer[cnf.WCNF]
}

func newTracker() *tracker { return &tracker{release: make(chan struct{})} }

func (tr *tracker) hold(ctx context.Context, w *cnf.WCNF) {
	tr.snap = weak.Make(w)
	select {
	case <-tr.release:
	case <-ctx.Done():
	}
}

// solve is certifying() held by the tracker.
func (tr *tracker) solve() SolveFunc {
	return func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		tr.hold(ctx, w)
		return certifying()(ctx, w, shared, g)
	}
}

// finishUnderLoad releases h's held solve while other goroutines look the job
// up, read it and cast cancellation votes — the lookups' votes are spent, and
// each of voters casts its own — and returns h's result.
func finishUnderLoad(t *testing.T, s *Server, h *Handle, tr *tracker, voters ...*Handle) Result {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if l, ok := s.Job(h.ID()); ok {
					l.State()
					l.Result()
					l.Cancel()
				}
			}
		}()
	}
	for _, v := range voters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Cancel()
		}()
	}
	close(tr.release)
	r := waitResult(t, h)
	close(stop)
	wg.Wait()
	return r
}

// keepsOnlyAnswer asserts that the finished job id holds none of the
// formulas in wps, and that Job(id) still answers with want, its meta and its
// certificate.
func keepsOnlyAnswer(t *testing.T, s *Server, id uint64, want Result, wps ...weak.Pointer[cnf.WCNF]) {
	t.Helper()
	if !freed(wps...) {
		t.Fatal("a finished job still holds a formula")
	}
	l, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %d is no longer addressable", id)
	}
	if st, best := l.State(); st != Done || !best.HasLB || !best.HasUB {
		t.Fatalf("job %d: state %v, best %+v", id, st, best)
	}
	got, done := l.Result()
	if !done || !reflect.DeepEqual(got, want) {
		t.Fatalf("Job(%d) result %+v, want %+v", id, got, want)
	}
	if got.Status != opt.StatusOptimal || got.Meta != "m" || len(got.Certificate) == 0 {
		t.Fatalf("job %d lost its answer: %+v", id, got)
	}
}

// TestFinishedJobKeepsOnlyAnswer checks that a job the retainDone table keeps
// after it finishes holds its answer and no formula: neither the snapshot its
// solve ran on nor, for a one-shot job, the caller's formula. A cache hit,
// which never held a formula, is the control.
func TestFinishedJobKeepsOnlyAnswer(t *testing.T) {
	t.Run("one-shot", func(t *testing.T) {
		s := openT(t, Config{Workers: 1})
		defer s.Close()
		tr := newTracker()
		submitted, h, attached := func() (weak.Pointer[cnf.WCNF], *Handle, *Handle) {
			f := contradiction()
			spec := JobSpec{Formula: f, OptsKey: "k", Meta: "m", Client: "alice", Solve: tr.solve()}
			return weak.Make(f), mustSubmit(t, s, spec), mustSubmit(t, s, spec)
		}()
		if attached.ID() != h.ID() {
			t.Fatalf("the identical submission did not coalesce: %d vs %d", attached.ID(), h.ID())
		}
		r := finishUnderLoad(t, s, h, tr, attached)
		if r2 := waitResult(t, attached); !reflect.DeepEqual(r2, r) {
			t.Fatalf("coalesced handle result %+v, want %+v", r2, r)
		}
		keepsOnlyAnswer(t, s, h.ID(), r, tr.snap, submitted)
	})

	t.Run("session", func(t *testing.T) {
		s := openT(t, Config{Workers: 1})
		defer s.Close()
		tr := newTracker()
		sess := mustOpen(t, s, SessionSpec{Base: contradiction(), OptsKey: "k", Meta: "m", Client: "alice",
			Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, r opt.Incremental) (opt.Result, bool) {
				tr.hold(ctx, w)
				return certifyingSession(ctx, w, shared, g, r)
			}})
		defer sess.Close()
		h, err := sess.Solve(context.Background())
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		r := finishUnderLoad(t, s, h, tr)
		keepsOnlyAnswer(t, s, h.ID(), r, tr.snap)
	})

	t.Run("replay", func(t *testing.T) {
		const id = 7
		dir := t.TempDir()
		jl := openJournalT(t, filepath.Join(dir, journalLog))
		if err := jl.record(id, contradiction(), JobSpec{OptsKey: "k", Client: "alice"}); err != nil {
			t.Fatal(err)
		}
		jl.close()
		s := openT(t, Config{Workers: 1, DataDir: dir})
		defer s.Close()
		tr := newTracker()
		if err := s.Recover(func(rj RecoveredJob) (JobSpec, error) {
			spec, err := replayCertifying(rj)
			spec.Meta, spec.Solve = "m", tr.solve()
			return spec, err
		}); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		h, ok := s.Job(id)
		if !ok {
			t.Fatalf("replayed job %d not addressable", id)
		}
		r := finishUnderLoad(t, s, h, tr)
		keepsOnlyAnswer(t, s, id, r, tr.snap)
	})

	t.Run("cache-hit", func(t *testing.T) {
		s := openT(t, Config{Workers: 1})
		defer s.Close()
		waitResult(t, mustSubmit(t, s, JobSpec{Formula: contradiction(), Meta: "m", Solve: certifying()}))
		submitted, h := func() (weak.Pointer[cnf.WCNF], *Handle) {
			f := contradiction()
			return weak.Make(f), mustSubmit(t, s, JobSpec{Formula: f, Client: "bob", Solve: certifying()})
		}()
		r := waitResult(t, h)
		if !r.Cached {
			t.Fatalf("resubmission not served from the cache: %+v", r)
		}
		keepsOnlyAnswer(t, s, h.ID(), r, submitted)
	})
}

// TestSessionDropsCallerBase checks that an open session keeps its own copy
// of the base formula, not the caller's.
func TestSessionDropsCallerBase(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	base, sess := func() (weak.Pointer[cnf.WCNF], *Session) {
		b := contradiction()
		return weak.Make(b), mustOpen(t, s, SessionSpec{Base: b, Solve: bruteSessionSolve()})
	}()
	defer sess.Close()
	if r := sessionWait(t, sess); r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("session solve: %+v", r)
	}
	if !freed(base) {
		t.Fatal("an open session still holds the caller's base formula")
	}
}

// TestJournalReleasesReplayed checks that the journal lets go of a recovered
// submission once Recover has admitted it, so the formula is garbage when its
// replay finishes.
func TestJournalReleasesReplayed(t *testing.T) {
	dir := t.TempDir()
	jl := openJournalT(t, filepath.Join(dir, journalLog))
	if err := jl.record(3, contradiction(), JobSpec{OptsKey: "k"}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	s := openT(t, Config{Workers: 1, DataDir: dir})
	defer s.Close()
	var recovered weak.Pointer[cnf.WCNF]
	if err := s.Recover(func(rj RecoveredJob) (JobSpec, error) {
		recovered = weak.Make(rj.Formula)
		return replayCertifying(rj)
	}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h, ok := s.Job(3)
	if !ok {
		t.Fatal("replayed job not addressable")
	}
	if r := waitResult(t, h); r.Status != opt.StatusOptimal {
		t.Fatalf("replayed job: %+v", r)
	}
	if !freed(recovered) {
		t.Fatal("the journal still holds a finished replay's formula")
	}
	if n := len(s.journal.pendingJobs()); n != 0 {
		t.Fatalf("%d submissions still pending after Recover", n)
	}
}

// bmcAccumulation is a session-bmc accumulation: the first depth frames of
// the bits-bit counter, each frame's hard clauses plus a unit soft clause on
// its property.
func bmcAccumulation(bits, depth int) *cnf.WCNF {
	w := cnf.NewWCNF(0)
	for _, fr := range gen.BMCCounterFrames(bits, depth) {
		for _, c := range fr.Hards {
			w.AddHard(c...)
		}
		w.AddSoft(1, fr.Prop)
	}
	return w
}

// BenchmarkRetainedJob measures what the retainDone table costs in memory.
// It finishes retainDone (1,024) one-shot jobs, each submitting its own copy of
// session-bmc's mean-depth accumulation (the 6-bit counter to depth 48: 625
// variables, 2,401 clauses) and answered with that formula's optimum and
// model, and reports the live heap per retained job, read as HeapAlloc
// after a GC. The cache is off so that only the job table is measured. It
// reports and never gates.
func BenchmarkRetainedJob(b *testing.B) {
	const jobs = retainDone
	base := bmcAccumulation(6, 48)
	answer := core.NewMSU3(opt.Options{}).Solve(context.Background(), base.Clone(), nil)
	if answer.Status != opt.StatusOptimal {
		b.Fatalf("depth-48 accumulation: %+v", answer)
	}
	solve := func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		r := answer
		r.Model = slices.Clone(answer.Model)
		return r
	}
	var perJob float64
	for b.Loop() {
		s := openT(b, Config{Workers: 1, CacheEntries: -1})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range jobs {
			h, err := s.Submit(JobSpec{Formula: base.Clone(), Solve: solve})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perJob = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / jobs
		s.Close()
	}
	b.ReportMetric(perJob, "retained-B/job")
}
