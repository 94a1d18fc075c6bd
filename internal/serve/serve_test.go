package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
)

// contradiction returns the canonical cost-1 instance: two conflicting unit
// softs over one variable. Any model has cost exactly 1.
func contradiction() *cnf.WCNF {
	w := cnf.NewWCNF(1)
	w.AddSoft(1, cnf.PosLit(0))
	w.AddSoft(1, cnf.NegLit(0))
	return w
}

// optimal returns a stub SolveFunc that immediately reports the given cost
// with a verifying model for contradiction().
func optimal(cost cnf.Weight) SolveFunc {
	return func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		return opt.Result{Status: opt.StatusOptimal, Cost: cost, LowerBound: cost,
			Model: cnf.Assignment{true}}
	}
}

// blocker returns a stub that blocks until release is closed (or ctx ends),
// then reports Unknown.
func blocker(release <-chan struct{}) SolveFunc {
	return func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return opt.Result{Status: opt.StatusUnknown, Cost: -1}
	}
}

// openT opens a server on cfg, failing the test if it cannot.
func openT(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := Open(cfg)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	return s
}

func mustSubmit(t *testing.T, s *Server, spec JobSpec) *Handle {
	t.Helper()
	h, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return h
}

func waitResult(t *testing.T, h *Handle) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return r
}

func TestFingerprintCanonical(t *testing.T) {
	a := cnf.NewWCNF(3)
	a.AddHard(cnf.PosLit(0), cnf.PosLit(1))
	a.AddSoft(2, cnf.NegLit(2))
	a.AddSoft(1, cnf.PosLit(2), cnf.NegLit(0))

	// Same formula, clauses and literals permuted.
	b := cnf.NewWCNF(3)
	b.AddSoft(1, cnf.NegLit(0), cnf.PosLit(2))
	b.AddHard(cnf.PosLit(1), cnf.PosLit(0))
	b.AddSoft(2, cnf.NegLit(2))

	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint not invariant under clause/literal reordering")
	}

	// Weight change must be visible.
	c := a.Clone()
	c.Clauses[1].Weight = 3
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint blind to weights")
	}

	// A duplicated clause must be visible (addition, not XOR, combine).
	d := a.Clone()
	d.Clauses = append(d.Clauses, d.Clauses[0])
	if Fingerprint(a) == Fingerprint(d) {
		t.Error("fingerprint blind to duplicate clauses")
	}

	// Declared variable count matters (DIMACS allows trailing unused vars).
	e := a.Clone()
	e.NumVars++
	if Fingerprint(a) == Fingerprint(e) {
		t.Error("fingerprint blind to NumVars")
	}

	// Regression: literal hashes must not cancel pairwise. Under an XOR
	// combine, (1 1) and (2 2) hash identically (each literal cancels
	// itself), making the UNSAT formula {(1 1), (-1 -1)} collide with the
	// SAT formula {(2 2), (-1 -1)} — and an UNSAT verdict has no model to
	// re-verify on a hit, so the collision would serve a wrong answer.
	unsat := cnf.NewWCNF(3)
	unsat.AddHard(cnf.PosLit(0), cnf.PosLit(0))
	unsat.AddHard(cnf.NegLit(0), cnf.NegLit(0))
	sat := cnf.NewWCNF(3)
	sat.AddHard(cnf.PosLit(1), cnf.PosLit(1))
	sat.AddHard(cnf.NegLit(0), cnf.NegLit(0))
	if keyFor(unsat) == keyFor(sat) {
		t.Error("duplicate literals cancel: different formulas share a cache key")
	}
	dup := cnf.NewWCNF(1)
	dup.AddSoft(1, cnf.PosLit(0), cnf.PosLit(0))
	single := cnf.NewWCNF(1)
	single.AddSoft(1, cnf.PosLit(0))
	if Fingerprint(dup) == Fingerprint(single) {
		t.Error("fingerprint blind to a duplicated literal")
	}
}

func TestCacheHitServesVerifiedResult(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()

	var calls atomic.Int32
	spec := JobSpec{
		Formula: contradiction(),
		OptsKey: "k",
		Meta:    "algo-x",
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			calls.Add(1)
			return optimal(1)(ctx, w, shared, g)
		},
	}
	r1 := waitResult(t, mustSubmit(t, s, spec))
	if r1.Cached || r1.Cost != 1 || r1.Status != opt.StatusOptimal {
		t.Fatalf("first solve: %+v", r1)
	}
	// Resubmission under *different* options still hits: the verdict is a
	// fact about the formula, not the algorithm.
	spec2 := spec
	spec2.OptsKey = "other"
	r2 := waitResult(t, mustSubmit(t, s, spec2))
	if !r2.Cached || r2.Cost != 1 {
		t.Fatalf("second solve not served from cache: %+v", r2)
	}
	if r2.Meta != "algo-x" {
		t.Fatalf("cached meta = %v, want the proving submission's", r2.Meta)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.Submitted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheWitnessImmuneToCallerMutation(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	spec := JobSpec{Formula: contradiction(), Solve: optimal(1)}
	r := waitResult(t, mustSubmit(t, s, spec))
	// A caller scribbling on its returned model must not corrupt the cached
	// witness (which would fail verification on every future hit).
	r.Model[0] = !r.Model[0]
	r2 := waitResult(t, mustSubmit(t, s, spec))
	if !r2.Cached {
		t.Fatal("resubmission missed the cache: witness was corrupted")
	}
	if !opt.VerifyModel(contradiction(), r2.Result) {
		t.Fatalf("cached result no longer verifies: %+v", r2.Result)
	}
}

func TestUnknownResultsAreNotCached(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	var calls atomic.Int32
	spec := JobSpec{
		Formula: contradiction(),
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			calls.Add(1)
			return opt.Result{Status: opt.StatusUnknown, Cost: -1}
		},
	}
	waitResult(t, mustSubmit(t, s, spec))
	waitResult(t, mustSubmit(t, s, spec))
	if got := calls.Load(); got != 2 {
		t.Fatalf("solver ran %d times, want 2 (UNKNOWN must not cache)", got)
	}
}

func TestUnverifiableOptimalIsNotCached(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	var calls atomic.Int32
	spec := JobSpec{
		Formula: contradiction(),
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			calls.Add(1)
			// Claims cost 0, but every model of the contradiction pays 1:
			// verification must reject it at cache-store time.
			return opt.Result{Status: opt.StatusOptimal, Cost: 0,
				Model: cnf.Assignment{true}}
		},
	}
	waitResult(t, mustSubmit(t, s, spec))
	waitResult(t, mustSubmit(t, s, spec))
	if got := calls.Load(); got != 2 {
		t.Fatalf("solver ran %d times, want 2 (bogus optimum must not cache)", got)
	}
}

func TestCoalesceIdenticalInflight(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int32
	spec := JobSpec{
		Formula: contradiction(),
		OptsKey: "same",
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			calls.Add(1)
			close(started)
			<-release
			return opt.Result{Status: opt.StatusOptimal, Cost: 1, LowerBound: 1,
				Model: cnf.Assignment{true}}
		},
	}
	h1 := mustSubmit(t, s, spec)
	<-started
	h2 := mustSubmit(t, s, spec) // identical → attaches to h1's job
	if h1.ID() != h2.ID() {
		t.Fatalf("coalesced submission got its own job: %d vs %d", h1.ID(), h2.ID())
	}
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}
	close(release)
	r1, r2 := waitResult(t, h1), waitResult(t, h2)
	if r1.Cost != 1 || r2.Cost != 1 {
		t.Fatalf("coalesced results differ: %v vs %v", r1.Cost, r2.Cost)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1", calls.Load())
	}
}

func TestDifferentOptionsDoNotCoalesce(t *testing.T) {
	s := openT(t, Config{Workers: 2})
	defer s.Close()
	release := make(chan struct{})
	spec := JobSpec{Formula: contradiction(), OptsKey: "a", Solve: blocker(release)}
	h1 := mustSubmit(t, s, spec)
	spec.OptsKey = "b"
	h2 := mustSubmit(t, s, spec)
	if h1.ID() == h2.ID() {
		t.Fatal("different options coalesced onto one job")
	}
	close(release)
	waitResult(t, h1)
	waitResult(t, h2)
}

func TestCancelIsRefCounted(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	started := make(chan struct{})
	spec := JobSpec{
		Formula: contradiction(),
		OptsKey: "k",
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			close(started)
			<-ctx.Done() // only cancellation ends this job
			return opt.Result{Status: opt.StatusUnknown, Cost: -1}
		},
	}
	h1 := mustSubmit(t, s, spec)
	<-started
	h2 := mustSubmit(t, s, spec)
	if h1.ID() != h2.ID() {
		t.Fatal("expected coalesced handles")
	}
	h1.Cancel()
	h1.Cancel() // idempotent per handle
	select {
	case <-h2.Done():
		t.Fatal("job cancelled while a handle still holds a vote")
	case <-time.After(50 * time.Millisecond):
	}
	h2.Cancel()
	select {
	case <-h2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job not cancelled after the last vote")
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
}

func TestTimeoutBoundsTheSolve(t *testing.T) {
	s := openT(t, Config{Workers: 1, DefaultTimeout: 20 * time.Millisecond})
	defer s.Close()
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: blocker(nil)})
	r := waitResult(t, h)
	if r.Status != opt.StatusUnknown {
		t.Fatalf("status %v, want Unknown after deadline", r.Status)
	}
	// Deadline expiry is a completion, not a cancellation.
	if st := s.Stats(); st.Completed != 1 || st.Cancelled != 0 {
		t.Fatalf("stats after timeout: %+v", st)
	}
}

func TestWorkerBudgetClampsAndQueues(t *testing.T) {
	s := openT(t, Config{Workers: 2})
	defer s.Close()
	release := make(chan struct{})
	granted := make(chan int, 1)
	// A portfolio-style job asking for 5 slots on a 2-slot pool gets 2.
	h := mustSubmit(t, s, JobSpec{
		Formula: contradiction(),
		OptsKey: "wide",
		Slots:   5,
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			granted <- g.Slots
			<-release
			return opt.Result{Status: opt.StatusUnknown, Cost: -1}
		},
	})
	if got := <-granted; got != 2 {
		t.Fatalf("granted %d slots, want 2 (clamped)", got)
	}
	// The pool is now full: a 1-slot job must queue, not run.
	h2 := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "narrow",
		Slots: 1, Solve: blocker(release)})
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := s.Stats()
		if st.Queued == 1 && st.Running == 1 && st.WorkersBusy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool accounting never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	waitResult(t, h)
	waitResult(t, h2)
}

func TestQueueDepthRejects(t *testing.T) {
	s := openT(t, Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := make(chan struct{})
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "a",
		Solve: blocker(release)})
	_, err := s.Submit(JobSpec{Formula: contradiction(), OptsKey: "b",
		Solve: blocker(release)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(release)
	waitResult(t, h)
}

func TestSubscribeStreamsMonotoneBounds(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	h := mustSubmit(t, s, JobSpec{
		Formula: contradiction(),
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			// An anytime solver's publish pattern: UB falls, LB rises.
			shared.PublishUB(5, cnf.Assignment{true})
			shared.PublishLB(0)
			shared.PublishUB(3, cnf.Assignment{true})
			shared.PublishLB(1)
			shared.PublishUB(1, cnf.Assignment{true})
			return opt.Result{Status: opt.StatusOptimal, Cost: 1, LowerBound: 1,
				Model: cnf.Assignment{true}}
		},
	})
	var events []Event
	for e := range h.Subscribe() {
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("no bound events before completion")
	}
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		if prev.HasLB && cur.HasLB && cur.LB < prev.LB {
			t.Fatalf("LB fell: %v after %v", cur, prev)
		}
		if prev.HasUB && cur.HasUB && cur.UB > prev.UB {
			t.Fatalf("UB rose: %v after %v", cur, prev)
		}
	}
	// An Optimal job's stream always closes with lb == ub == optimum.
	last := events[len(events)-1]
	if !last.HasLB || !last.HasUB || last.LB != 1 || last.UB != 1 {
		t.Fatalf("closing event %+v, want lb=ub=1", last)
	}
	// A late subscriber (job already done) still gets the final snapshot.
	var replay []Event
	for e := range h.Subscribe() {
		replay = append(replay, e)
	}
	if len(replay) != 1 || replay[0] != last {
		t.Fatalf("late subscribe replay = %+v, want [%+v]", replay, last)
	}
}

func TestJobLookupAndRetention(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	var ids []uint64
	for range retainDone + 1 {
		f := contradiction()
		h := mustSubmit(t, s, JobSpec{Formula: f, Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			return opt.Result{Status: opt.StatusUnknown, Cost: -1} // never cached → distinct runs
		}})
		waitResult(t, h)
		ids = append(ids, h.ID())
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest job survived past the retention bound")
	}
	if _, ok := s.Job(ids[1]); !ok {
		t.Errorf("job %d of the last %d finished was evicted", ids[1], retainDone)
	}
	h, ok := s.Job(ids[len(ids)-1])
	if !ok {
		t.Fatal("latest job not addressable by ID")
	}
	if st, _ := h.State(); st != Done {
		t.Fatalf("state %v, want Done", st)
	}
	// Lookup handles hold no cancellation vote: Cancel must be a no-op even
	// on a fresh (running) job.
	release := make(chan struct{})
	run := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "x",
		Solve: blocker(release)})
	look, ok := s.Job(run.ID())
	if !ok {
		t.Fatal("running job not addressable")
	}
	look.Cancel()
	select {
	case <-run.Done():
		t.Fatal("lookup handle cancelled the job")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	waitResult(t, run)
}

func TestSolverPanicFailsJobOnly(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	h := mustSubmit(t, s, JobSpec{
		Formula: contradiction(),
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			panic("boom")
		},
	})
	r := waitResult(t, h)
	if r.Err == nil || r.Status != opt.StatusUnknown {
		t.Fatalf("panic result: %+v", r)
	}
	// The pool slot was released: the server still solves.
	r2 := waitResult(t, mustSubmit(t, s, JobSpec{Formula: contradiction(),
		OptsKey: "fresh", Solve: optimal(1)}))
	if r2.Cost != 1 {
		t.Fatalf("server unusable after a panic: %+v", r2)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	began := make(chan struct{})
	running := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "r",
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			close(began)
			return blocker(nil)(ctx, w, shared, g)
		}})
	select {
	case <-began:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker never started")
	}
	queued := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "q",
		Solve: blocker(nil)})
	// Close cancels the jobs one by one; the slot the blocker hands back
	// must not start any of the queued jobs.
	var started atomic.Int32
	handles := []*Handle{running, queued}
	for i := range 64 {
		handles = append(handles, mustSubmit(t, s, JobSpec{Formula: contradiction(),
			OptsKey: fmt.Sprint("q", i),
			Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
				started.Add(1)
				return optimal(1)(ctx, w, shared, g)
			}}))
	}
	s.Close()
	for _, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatal("job still open after Close")
		}
	}
	if n := started.Load(); n > 0 {
		t.Fatalf("%d queued jobs started during Close", n)
	}
	if _, err := s.Submit(JobSpec{Formula: contradiction(), Solve: optimal(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

func TestSubmitValidates(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(JobSpec{Formula: contradiction()}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("missing Solve: %v", err)
	}
	if _, err := s.Submit(JobSpec{Solve: optimal(1)}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("missing Formula: %v", err)
	}
}

func TestSemaFIFOPreventsStarvation(t *testing.T) {
	sem := newSema(2)
	ctx := context.Background()
	if err := sem.acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	wideGranted := make(chan struct{})
	go func() {
		_ = sem.acquire(ctx, 2) // head of queue: needs both slots
		close(wideGranted)
	}()
	for sem.busy() != 1 || func() bool { sem.mu.Lock(); defer sem.mu.Unlock(); return len(sem.waiters) == 0 }() {
		time.Sleep(time.Millisecond)
	}
	// A narrow acquire behind the wide one must wait even though a slot is
	// free — FIFO keeps the wide job from starving.
	narrowGranted := make(chan struct{})
	go func() {
		_ = sem.acquire(ctx, 1)
		close(narrowGranted)
	}()
	select {
	case <-narrowGranted:
		t.Fatal("narrow acquire jumped the FIFO queue")
	case <-time.After(30 * time.Millisecond):
	}
	sem.release(1) // wide gets both slots
	<-wideGranted
	select {
	case <-narrowGranted:
		t.Fatal("narrow granted while pool is full")
	case <-time.After(30 * time.Millisecond):
	}
	sem.release(2)
	<-narrowGranted
	sem.release(1)
	if got := sem.busy(); got != 0 {
		t.Fatalf("slots leaked: busy = %d", got)
	}
}

func TestSemaCancelledHeadUnblocksQueue(t *testing.T) {
	// A wide waiter at the head of the FIFO blocks narrower ones behind it.
	// When the wide waiter is cancelled, the narrow waiters must be granted
	// immediately — not only at the next release.
	sem := newSema(4)
	ctx := context.Background()
	if err := sem.acquire(ctx, 1); err != nil { // free = 3
		t.Fatal(err)
	}
	wideCtx, cancelWide := context.WithCancel(context.Background())
	wideErr := make(chan error, 1)
	go func() { wideErr <- sem.acquire(wideCtx, 4) }() // queues: needs all 4
	waitForWaiters := func(n int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			sem.mu.Lock()
			got := len(sem.waiters)
			sem.mu.Unlock()
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiters = %d, want %d", got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitForWaiters(1)
	narrow := make(chan struct{})
	go func() {
		_ = sem.acquire(ctx, 1)
		_ = sem.acquire(ctx, 1)
		_ = sem.acquire(ctx, 1)
		close(narrow)
	}()
	waitForWaiters(2) // the first narrow acquire queues behind the wide one
	cancelWide()
	if err := <-wideErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("wide err = %v", err)
	}
	select {
	case <-narrow: // all three narrow acquires fit the 3 free slots
	case <-time.After(2 * time.Second):
		t.Fatal("narrow waiters stayed blocked after the head was cancelled")
	}
	if got := sem.busy(); got != 4 {
		t.Fatalf("busy = %d, want 4", got)
	}
}

func TestSemaAcquireCancel(t *testing.T) {
	sem := newSema(1)
	if err := sem.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- sem.acquire(ctx, 1) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	sem.release(1)
	// The cancelled waiter must not have consumed the slot.
	if err := sem.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	sem.release(1)
}

// TestSubscriptionCloseImpliesResult checks the order in which a job
// completes: by the time a subscriber's channel closes, the result is
// published, so a streamer that reads Result on close (the daemon's SSE
// handler) always has a final event to send.
func TestSubscriptionCloseImpliesResult(t *testing.T) {
	s := openT(t, Config{Workers: 2, CacheEntries: -1})
	defer s.Close()
	for i := range 2000 {
		release := make(chan struct{})
		h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: blocker(release)})
		sub := h.Subscribe()
		close(release)
		for range sub {
		}
		if _, done := h.Result(); !done {
			t.Fatalf("iteration %d: subscription closed before the result was published", i)
		}
	}
}
