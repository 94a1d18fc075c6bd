package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/brute"
	"repro/internal/cnf"
	"repro/internal/opt"
)

// fakeEngine is a scripted opt.Incremental: it answers by brute force over
// the snapshot (so its answers are genuinely correct) and records lifecycle
// calls for assertions. All counters are mutex-guarded: the race suite runs
// sessions in parallel.
type fakeEngine struct {
	mu      sync.Mutex
	absorbs int
	solves  int
	closed  bool
	broken  bool // every Absorb reports the engine unusable
}

func (f *fakeEngine) Name() string { return "fake-inc" }

func (f *fakeEngine) Absorb(hards []cnf.Clause, softs []cnf.WClause) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.absorbs++
	return !f.broken
}

func (f *fakeEngine) SolveDelta(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) opt.Result {
	f.mu.Lock()
	f.solves++
	f.mu.Unlock()
	return bruteResult(w)
}

func (f *fakeEngine) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
}

func (f *fakeEngine) snapshot() (absorbs, solves int, closed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.absorbs, f.solves, f.closed
}

func bruteResult(w *cnf.WCNF) opt.Result {
	cost, model, feasible := brute.MinCostWCNF(w)
	if !feasible {
		return opt.Result{Status: opt.StatusUnsat, Cost: -1}
	}
	return opt.Result{Status: opt.StatusOptimal, Cost: cost, LowerBound: cost, Model: model}
}

// bruteSessionSolve answers with brute force; it reports the retained path
// as used whenever the serving layer offered the engine.
func bruteSessionSolve() SessionSolveFunc {
	return func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, retained opt.Incremental) (opt.Result, bool) {
		if retained != nil {
			return retained.SolveDelta(ctx, w, shared), true
		}
		return bruteResult(w), false
	}
}

func mustOpen(t *testing.T, s *Server, spec SessionSpec) *Session {
	t.Helper()
	sess, err := s.OpenSession(context.Background(), spec)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	return sess
}

func sessionWait(t *testing.T, sess *Session) Result {
	t.Helper()
	h, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return waitResult(t, h)
}

func TestSessionLifecycle(t *testing.T) {
	defer checkGoroutines(t)()
	s := openT(t, Config{Workers: 2})
	defer s.Close()
	eng := &fakeEngine{}
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o", Solve: bruteSessionSolve(), Retained: eng,
	})

	r := sessionWait(t, sess)
	if r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("base solve: status %v cost %d, want OPTIMAL 1", r.Status, r.Cost)
	}
	if !r.Reused {
		t.Fatal("warm engine was offered but Result.Reused is false")
	}

	// A monotone delta: pin the variable, optimum stays 1, and the engine
	// absorbs it at once, before the next solve.
	if err := sess.Push(Delta{Hards: []cnf.Clause{{cnf.PosLit(0)}}}); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if absorbs, _, _ := eng.snapshot(); absorbs != 1 {
		t.Fatalf("engine saw %d absorbs right after the Push, want 1", absorbs)
	}
	r = sessionWait(t, sess)
	if r.Status != opt.StatusOptimal || r.Cost != 1 || !r.Reused {
		t.Fatalf("delta solve: status %v cost %d reused %t", r.Status, r.Cost, r.Reused)
	}
	if absorbs, solves, _ := eng.snapshot(); absorbs != 1 || solves != 2 {
		t.Fatalf("engine saw %d absorbs / %d solves, want 1 / 2", absorbs, solves)
	}

	st := s.Stats()
	if st.SessionsOpen != 1 || st.SessionsOpened != 1 || st.SessionSolves != 2 || st.SessionReused != 2 {
		t.Fatalf("stats: %+v", st)
	}

	sess.Close()
	sess.Close() // idempotent
	if _, _, closed := eng.snapshot(); !closed {
		t.Fatal("engine not closed at session close")
	}
	st = s.Stats()
	if st.SessionsOpen != 0 || st.WorkersBusy != 0 {
		t.Fatalf("after close: open=%d busy=%d", st.SessionsOpen, st.WorkersBusy)
	}
	if err := sess.Push(Delta{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push after Close: %v", err)
	}
	if _, err := sess.Solve(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Solve after Close: %v", err)
	}
}

// TestSessionCacheInterchangeable asserts the keying invariant: a session
// re-solve of an unchanged accumulation is a cache hit (counted in
// SessionHits), and a one-shot submission of the same accumulated formula
// hits the session's cached answer too.
func TestSessionCacheInterchangeable(t *testing.T) {
	s := openT(t, Config{Workers: 2})
	defer s.Close()
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o", Solve: bruteSessionSolve(),
	})
	if r := sessionWait(t, sess); r.Cached {
		t.Fatal("first solve cannot be a cache hit")
	}
	r := sessionWait(t, sess)
	if !r.Cached || r.Cost != 1 {
		t.Fatalf("unchanged re-solve: cached=%t cost=%d", r.Cached, r.Cost)
	}
	st := s.Stats()
	if st.SessionHits != 1 || st.CacheHits != 1 {
		t.Fatalf("session hit accounting: %+v", st)
	}

	// One-shot path, same accumulated formula: the session's verified
	// answer serves it without solving — and without SessionHits moving.
	h := mustSubmit(t, s, JobSpec{Formula: sess.Accumulated(), OptsKey: "o", Solve: optimal(1)})
	if r := waitResult(t, h); !r.Cached {
		t.Fatal("one-shot submission of the accumulated formula missed the cache")
	}
	st = s.Stats()
	if st.SessionHits != 1 || st.CacheHits != 2 {
		t.Fatalf("one-shot hit accounting: %+v", st)
	}
}

// gatedEngine is a fakeEngine whose SolveDelta signals started and then
// blocks until release is closed (or its solve is cancelled).
type gatedEngine struct {
	fakeEngine
	started, release chan struct{}
}

func (g *gatedEngine) SolveDelta(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds) opt.Result {
	close(g.started)
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return g.fakeEngine.SolveDelta(ctx, w, shared)
}

// TestWarmSessionSolveIsNoCoalescingTarget asserts that a one-shot
// submission never attaches to a session solve that runs the session's
// retained engine: that solve answers with one session's warm state, not
// with the work its OptsKey names, so the one-shot job gets its own run and
// a from-scratch answer.
func TestWarmSessionSolveIsNoCoalescingTarget(t *testing.T) {
	defer checkGoroutines(t)()
	s := openT(t, Config{Workers: 2})
	defer s.Close()
	eng := &gatedEngine{started: make(chan struct{}), release: make(chan struct{})}
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o", Solve: bruteSessionSolve(), Retained: eng,
	})
	warm, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	select {
	case <-eng.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the warm engine never started")
	}

	one := mustSubmit(t, s, JobSpec{Formula: sess.Accumulated(), OptsKey: "o", Solve: optimal(1)})
	if one.ID() == warm.ID() {
		t.Fatalf("one-shot submission attached to warm session job %d", warm.ID())
	}
	if r := waitResult(t, one); r.Reused || r.Cost != 1 {
		t.Errorf("one-shot result: reused=%t cost=%d, want a fresh run of cost 1", r.Reused, r.Cost)
	}
	close(eng.release)
	if r := waitResult(t, warm); !r.Reused || r.Cost != 1 {
		t.Errorf("session result: reused=%t cost=%d, want the warm engine's cost 1", r.Reused, r.Cost)
	}
	if st := s.Stats(); st.Coalesced != 0 {
		t.Errorf("Coalesced = %d, want 0", st.Coalesced)
	}
	sess.Close()
}

func TestSessionBusySerialization(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o",
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, retained opt.Incremental) (opt.Result, bool) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return bruteResult(w), false
		},
	})
	h, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := sess.Push(Delta{Hards: []cnf.Clause{{cnf.PosLit(0)}}}); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("Push mid-solve: %v, want ErrSessionBusy", err)
	}
	if _, err := sess.Solve(context.Background()); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("Solve mid-solve: %v, want ErrSessionBusy", err)
	}
	close(release)
	waitResult(t, h)
	// The busy flag clears asynchronously with job completion; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sess.Push(Delta{}); err == nil {
			break
		} else if !errors.Is(err, ErrSessionBusy) {
			t.Fatalf("Push after solve: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("session never became pushable after its solve finished")
		}
		time.Sleep(time.Millisecond)
	}
	sess.Close()
}

func TestSessionLimitAndDisabled(t *testing.T) {
	s := openT(t, Config{Workers: 4, MaxSessions: 1})
	defer s.Close()
	sess := mustOpen(t, s, SessionSpec{Base: contradiction(), Solve: bruteSessionSolve()})
	_, err := s.OpenSession(context.Background(), SessionSpec{Base: contradiction(), Solve: bruteSessionSolve()})
	if !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("second open: %v, want ErrSessionLimit", err)
	}
	if _, ok := RetryAfter(err); !ok {
		t.Fatal("session-limit shed carries no retry hint")
	}
	sess.Close()
	sess2 := mustOpen(t, s, SessionSpec{Base: contradiction(), Solve: bruteSessionSolve()})
	sess2.Close()

	off := openT(t, Config{Workers: 1, MaxSessions: -1})
	defer off.Close()
	if _, err := off.OpenSession(context.Background(), SessionSpec{Solve: bruteSessionSolve()}); !errors.Is(err, ErrSessionsDisabled) {
		t.Fatalf("disabled open: %v, want ErrSessionsDisabled", err)
	}
}

// TestSessionQuotaHeld: a session holds one unit of its client's in-flight
// quota for its whole lifetime.
func TestSessionQuotaHeld(t *testing.T) {
	s := openT(t, Config{Workers: 2, ClientQuota: 1})
	defer s.Close()
	sess := mustOpen(t, s, SessionSpec{Base: contradiction(), Client: "c", Solve: bruteSessionSolve()})
	_, err := s.Submit(JobSpec{Formula: contradiction(), Client: "c", OptsKey: "other", Solve: optimal(1)})
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("one-shot while session open: %v, want ErrOverQuota", err)
	}
	sess.Close()
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Client: "c", OptsKey: "other", Solve: optimal(1)})
	waitResult(t, h)
}

func TestSessionIdleEviction(t *testing.T) {
	defer checkGoroutines(t)()
	s := openT(t, Config{Workers: 1, MaxSessions: 1, SessionIdle: 20 * time.Millisecond})
	defer s.Close()
	eng := &fakeEngine{}
	sess := mustOpen(t, s, SessionSpec{Base: contradiction(), Solve: bruteSessionSolve(), Retained: eng})

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SessionsEvicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session was never idle-evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sess.Push(Delta{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push after eviction: %v", err)
	}
	if _, _, closed := eng.snapshot(); !closed {
		t.Fatal("evicted session's engine not closed")
	}
	// The pinned slot came back: a new session can open without blocking.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sess2, err := s.OpenSession(ctx, SessionSpec{Base: contradiction(), Solve: bruteSessionSolve()})
	if err != nil {
		t.Fatalf("open after eviction: %v", err)
	}
	sess2.Close()
}

// TestSessionCloseMidSolve: Close while a delta solve is in flight defers
// teardown to solve completion — the handle stays valid, the slot comes
// back, nothing leaks.
func TestSessionCloseMidSolve(t *testing.T) {
	defer checkGoroutines(t)()
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	eng := &fakeEngine{}
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o", Retained: eng,
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, retained opt.Incremental) (opt.Result, bool) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return bruteResult(w), retained != nil
		},
	})
	h, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	sess.Close()
	if s.Stats().SessionsOpen != 1 {
		t.Fatal("teardown ran while the solve was still in flight")
	}
	close(release)
	if r := waitResult(t, h); r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("mid-close solve: %+v", r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SessionsOpen != 0 || s.Stats().WorkersBusy != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("teardown never completed: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, closed := eng.snapshot(); !closed {
		t.Fatal("engine not closed after deferred teardown")
	}
}

// TestSessionServerDrainMidSolve: Drain lets an in-flight session solve
// finish with a real result, then tears the session down.
func TestSessionServerDrainMidSolve(t *testing.T) {
	defer checkGoroutines(t)()
	s := openT(t, Config{Workers: 1})
	release := make(chan struct{})
	eng := &fakeEngine{}
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o", Retained: eng,
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, retained opt.Incremental) (opt.Result, bool) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return bruteResult(w), retained != nil
		},
	})
	h, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let Drain stop admissions
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if r := waitResult(t, h); r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("drained solve: %+v", r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, closed := eng.snapshot()
		if closed && s.Stats().SessionsOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not torn down after drain")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sess.Push(Delta{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push after drain: %v", err)
	}
	s.Close()
}

// TestSessionEngineRouting: reweights retire the engine permanently;
// assumptions bypass it for one solve but keep it alive.
func TestSessionEngineRouting(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	var sawEngine []bool
	var mu sync.Mutex
	eng := &fakeEngine{}
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o", Retained: eng,
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, retained opt.Incremental) (opt.Result, bool) {
			mu.Lock()
			sawEngine = append(sawEngine, retained != nil)
			mu.Unlock()
			return bruteResult(w), retained != nil
		},
	})
	// Solve 1: engine offered. Solve 2 (under assumptions): engine bypassed.
	// Solve 3 (assumptions cleared): engine offered again. Solve 4 (after a
	// reweight): engine retired, never offered again.
	sessionWait(t, sess)
	if err := sess.Push(Delta{Assumptions: []cnf.Lit{cnf.PosLit(0)}, SetAssumptions: true}); err != nil {
		t.Fatalf("assume: %v", err)
	}
	if r := sessionWait(t, sess); r.Cost != 1 {
		t.Fatalf("assumption solve cost %d, want 1", r.Cost)
	}
	// Clear the assumptions and grow the formula (an unchanged accumulation
	// would be a cache hit and never reach the solve closure).
	if err := sess.Push(Delta{SetAssumptions: true, Hards: []cnf.Clause{{cnf.PosLit(1), cnf.NegLit(1)}}}); err != nil {
		t.Fatalf("clear assumptions: %v", err)
	}
	sessionWait(t, sess)
	if err := sess.Push(Delta{Reweights: []Reweight{{Soft: 0, Weight: 5}}}); err != nil {
		t.Fatalf("reweight: %v", err)
	}
	if _, _, closed := eng.snapshot(); !closed {
		t.Fatal("reweight did not retire the engine")
	}
	if r := sessionWait(t, sess); r.Cost != 1 { // falsify the weight-1 soft
		t.Fatalf("reweighted solve cost %d, want 1", r.Cost)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []bool{true, false, true, false}
	if fmt.Sprint(sawEngine) != fmt.Sprint(want) {
		t.Fatalf("engine routing %v, want %v", sawEngine, want)
	}
	sess.Close()
}

// TestSessionRefusedAbsorbRetiresEngine: the engine alone decides what it
// can take. One that refuses a delta, even a hard clause, is closed by that
// Push, and every later solve runs from scratch.
func TestSessionRefusedAbsorbRetiresEngine(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	eng := &fakeEngine{broken: true}
	sess := mustOpen(t, s, SessionSpec{
		Base: contradiction(), OptsKey: "o", Solve: bruteSessionSolve(), Retained: eng,
	})
	defer sess.Close()
	if err := sess.Push(Delta{Hards: []cnf.Clause{{cnf.PosLit(1)}}}); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if _, _, closed := eng.snapshot(); !closed {
		t.Fatal("refused absorb did not retire the engine")
	}
	if r := sessionWait(t, sess); r.Status != opt.StatusOptimal || r.Cost != 1 || r.Reused {
		t.Fatalf("solve after retirement: status %v cost %d reused %t, want OPTIMAL 1 from scratch",
			r.Status, r.Cost, r.Reused)
	}
}

// TestSessionSizeMatchesAccumulated: Size reports Accumulated's variable
// and clause counts after every kind of push, a variable first named by an
// assumption included.
func TestSessionSizeMatchesAccumulated(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	sess := mustOpen(t, s, SessionSpec{Base: contradiction(), Solve: bruteSessionSolve()})
	defer sess.Close()
	for i, d := range []Delta{
		{Hards: []cnf.Clause{{cnf.PosLit(0), cnf.NegLit(2)}}},
		{Softs: []cnf.WClause{{Clause: cnf.Clause{cnf.PosLit(3)}, Weight: 2}}},
		{Assumptions: []cnf.Lit{cnf.NegLit(9)}},
	} {
		if err := sess.Push(d); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		acc := sess.Accumulated()
		if vars, clauses := sess.Size(); vars != acc.NumVars || clauses != len(acc.Clauses) {
			t.Fatalf("push %d: Size() = %d vars, %d clauses; Accumulated has %d, %d",
				i, vars, clauses, acc.NumVars, len(acc.Clauses))
		}
	}
}

// TestSessionBadDelta: validation failures leave the session unchanged.
func TestSessionBadDelta(t *testing.T) {
	s := openT(t, Config{Workers: 1})
	defer s.Close()
	sess := mustOpen(t, s, SessionSpec{Base: contradiction(), Solve: bruteSessionSolve()})
	defer sess.Close()
	if err := sess.Push(Delta{Reweights: []Reweight{{Soft: 7, Weight: 2}}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("out-of-range reweight: %v", err)
	}
	if err := sess.Push(Delta{Softs: []cnf.WClause{{Clause: cnf.Clause{cnf.PosLit(0)}, Weight: 0}}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("zero-weight soft: %v", err)
	}
	if got := len(sess.Accumulated().Clauses); got != 2 {
		t.Fatalf("rejected deltas mutated the accumulation: %d clauses", got)
	}
}

// TestSessionsParallelInterleaved is the race-suite workhorse: several
// sessions push interleaved random monotone deltas and solve concurrently,
// each checked against brute force on its own accumulation at every step.
func TestSessionsParallelInterleaved(t *testing.T) {
	defer checkGoroutines(t)()
	const nSessions = 4
	s := openT(t, Config{Workers: nSessions, MaxSessions: nSessions})
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			base := cnf.NewWCNF(3)
			base.AddSoft(1, cnf.PosLit(0))
			base.AddSoft(1, cnf.NegLit(0))
			sess, err := s.OpenSession(context.Background(), SessionSpec{
				Base: base, OptsKey: fmt.Sprintf("s%d", seed),
				Solve: bruteSessionSolve(), Retained: &fakeEngine{},
			})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			defer sess.Close()
			acc := base.Clone()
			for step := 0; step < 6; step++ {
				if step > 0 {
					nv := acc.NumVars + 1
					c := cnf.Clause{cnf.NewLit(cnf.Var(rng.Intn(nv)), rng.Intn(2) == 0)}
					if rng.Intn(2) == 0 {
						if err := sess.Push(Delta{Hards: []cnf.Clause{c}}); err != nil {
							t.Errorf("push: %v", err)
							return
						}
						acc.AddHard(c...)
					} else {
						if err := sess.Push(Delta{Softs: []cnf.WClause{{Clause: c, Weight: 1}}}); err != nil {
							t.Errorf("push: %v", err)
							return
						}
						acc.AddSoft(1, c...)
					}
				}
				h, err := sess.Solve(context.Background())
				if err != nil {
					t.Errorf("solve: %v", err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				r, err := h.Wait(ctx)
				cancel()
				if err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				want, _, feasible := brute.MinCostWCNF(acc)
				if !feasible {
					if r.Status != opt.StatusUnsat {
						t.Errorf("step %d: status %v, want UNSAT", step, r.Status)
					}
					return
				}
				if r.Status != opt.StatusOptimal || r.Cost != want {
					t.Errorf("step %d: status %v cost %d, want OPTIMAL %d", step, r.Status, r.Cost, want)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
}
