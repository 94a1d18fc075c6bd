package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/pbo"
	"repro/internal/proof"
)

// checkGoroutines returns a cleanup func asserting the goroutine count
// settles back to (about) its starting level — the no-leak invariant. The
// retry loop tolerates runtime bookkeeping goroutines and workers that are
// still unwinding when the test body returns.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutines leaked: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestChaosDeterministicSchedule runs a mixed fault schedule — panics, slow
// workers, budget exhaustion, mid-job cancellation — over a batch of jobs and
// asserts the operator invariants: every job completes (no deadlock), failed
// jobs are isolated and counted, and no goroutine outlives the server.
func TestChaosDeterministicSchedule(t *testing.T) {
	defer checkGoroutines(t)()
	const jobs = 16
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		if jobID > jobs {
			return Fault{} // the post-chaos liveness probe runs clean
		}
		switch jobID % 4 {
		case 1:
			return Fault{Kind: FaultPanic}
		case 2:
			return Fault{Kind: FaultSlow, Delay: 5 * time.Millisecond}
		case 3:
			return Fault{Kind: FaultExhaust}
		default:
			return Fault{Kind: FaultCancel, Delay: time.Millisecond}
		}
	}}
	s := openT(t, Config{Workers: 3, CacheEntries: -1, faults: faults})
	defer s.Close()

	var handles []*Handle
	for i := range jobs {
		handles = append(handles, mustSubmit(t, s, JobSpec{
			Formula: contradiction(),
			OptsKey: fmt.Sprintf("job-%d", i),
			Solve:   optimal(1),
		}))
	}
	var panics, optimals, unknowns int
	for _, h := range handles {
		r := waitResult(t, h) // waitResult's own deadline is the deadlock guard
		switch {
		case r.Err != nil:
			panics++
		case r.Status == opt.StatusOptimal:
			optimals++
		default:
			unknowns++
		}
	}
	// Job IDs are assigned 1..jobs in submission order, so the schedule is
	// exact: 4 panics (ids 1,5,9,13), 4 exhausts (ids 3,7,11,15) → Unknown.
	if panics != 4 {
		t.Fatalf("panicked jobs = %d, want 4", panics)
	}
	if unknowns != 4 {
		t.Fatalf("unknown jobs = %d, want 4", unknowns)
	}
	// Slow and cancelled jobs still ran the real solve (FaultCancel fires
	// after the solve already returned its immediate optimum).
	if optimals != 8 {
		t.Fatalf("optimal jobs = %d, want 8", optimals)
	}
	st := s.Stats()
	if st.Panics != 4 {
		t.Fatalf("Stats.Panics = %d, want 4", st.Panics)
	}
	if st.Queued != 0 || st.Running != 0 || st.WorkersBusy != 0 {
		t.Fatalf("pool did not settle: %+v", st)
	}
	// The server survived the chaos: a fresh job still solves.
	r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: contradiction(),
		OptsKey: "after-chaos", Solve: optimal(1)}))
	if r.Err != nil || r.Status != opt.StatusOptimal {
		t.Fatalf("server unusable after chaos: %+v", r)
	}
}

// TestFaultExhaustNeverCached asserts a budget-exhausted (Unknown) result is
// not served from the verified-result cache: the resubmission must run the
// real solver.
func TestFaultExhaustNeverCached(t *testing.T) {
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		if jobID == 1 {
			return Fault{Kind: FaultExhaust}
		}
		return Fault{}
	}}
	s := openT(t, Config{Workers: 1, faults: faults})
	defer s.Close()
	spec := JobSpec{Formula: contradiction(), Solve: optimal(1)}
	r1 := waitResult(t, mustSubmit(t, s, spec))
	if r1.Status != opt.StatusUnknown {
		t.Fatalf("exhausted job status %v, want Unknown", r1.Status)
	}
	r2 := waitResult(t, mustSubmit(t, s, spec))
	if r2.Cached {
		t.Fatal("an exhausted (unverified) result was served from cache")
	}
	if r2.Status != opt.StatusOptimal || r2.Cost != 1 {
		t.Fatalf("resubmission result %+v, want the real optimum", r2)
	}
}

// TestFaultPanicNeverCached asserts a panic-failed job poisons nothing: the
// resubmission runs fresh and the failure is visible in Stats.Panics.
func TestFaultPanicNeverCached(t *testing.T) {
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		if jobID == 1 {
			return Fault{Kind: FaultPanic}
		}
		return Fault{}
	}}
	s := openT(t, Config{Workers: 1, faults: faults})
	defer s.Close()
	spec := JobSpec{Formula: contradiction(), Solve: optimal(1)}
	r1 := waitResult(t, mustSubmit(t, s, spec))
	if r1.Err == nil {
		t.Fatal("injected panic produced no error")
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", st.Panics)
	}
	r2 := waitResult(t, mustSubmit(t, s, spec))
	if r2.Cached || r2.Err != nil || r2.Cost != 1 {
		t.Fatalf("resubmission after panic: %+v", r2)
	}
}

// certifying returns a SolveFunc that really solves and attaches a real
// certificate, mirroring what the public server wires in when a submission
// asks for certification.
func certifying() SolveFunc {
	return func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		s := &pbo.Linear{}
		r := s.Solve(ctx, w, shared)
		if cert, err := opt.Certify(ctx, w, r, opt.Options{}); err == nil {
			r.Certificate = cert
		}
		return r
	}
}

// TestFaultCorruptCertNeverServed injects certificate corruption into the
// cache store and asserts the trust boundary holds end to end: the original
// submitter still receives the uncorrupted certificate, a cache hit on the
// corrupted entry is detected (rejected, counted, evicted) and falls back to
// a fresh solve, and the fresh result re-populates the cache so later hits
// serve a certificate that validates.
func TestFaultCorruptCertNeverServed(t *testing.T) {
	faults := &Faults{CorruptCert: func(jobID uint64) int {
		if jobID == 1 {
			return 0 // bit 0 lands in the format magic: guaranteed rejection
		}
		return -1
	}}
	s := openT(t, Config{Workers: 1, faults: faults})
	defer s.Close()

	formula := contradiction()
	spec := JobSpec{Formula: formula, Solve: certifying()}

	// The original waiter gets the good certificate; only the cached copy
	// is corrupted.
	r1 := waitResult(t, mustSubmit(t, s, spec))
	if r1.Status != opt.StatusOptimal || r1.Cost != 1 {
		t.Fatalf("first solve: %+v", r1)
	}
	if err := proof.CheckBytes(formula, r1.Certificate); err != nil {
		t.Fatalf("submitter received a corrupt certificate: %v", err)
	}

	// The resubmission must not be served the corrupted entry: the hit path
	// re-validates, rejects, evicts, and solves fresh.
	r2 := waitResult(t, mustSubmit(t, s, spec))
	if r2.Cached {
		t.Fatal("a corrupted certificate was served from cache")
	}
	if r2.Status != opt.StatusOptimal || r2.Cost != 1 {
		t.Fatalf("fallback solve: %+v", r2)
	}
	if err := proof.CheckBytes(formula, r2.Certificate); err != nil {
		t.Fatalf("fallback certificate rejected: %v", err)
	}
	if st := s.Stats(); st.CertRejected != 1 {
		t.Fatalf("Stats.CertRejected = %d, want 1", st.CertRejected)
	}

	// The fresh (faithful) result re-populated the cache: the third
	// submission is a hit and its certificate validates.
	r3 := waitResult(t, mustSubmit(t, s, spec))
	if !r3.Cached {
		t.Fatal("fresh result was not re-cached after eviction")
	}
	if err := proof.CheckBytes(formula, r3.Certificate); err != nil {
		t.Fatalf("re-cached certificate rejected: %v", err)
	}
	if st := s.Stats(); st.CertRejected != 1 {
		t.Fatalf("Stats.CertRejected moved to %d on a clean hit", st.CertRejected)
	}
}

// TestFaultCancelMidJob injects a cancellation that lands while the solve is
// blocked: the job must complete as cancelled, not hang.
func TestFaultCancelMidJob(t *testing.T) {
	defer checkGoroutines(t)()
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		return Fault{Kind: FaultCancel, Delay: 5 * time.Millisecond}
	}}
	s := openT(t, Config{Workers: 1, faults: faults})
	defer s.Close()
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: blocker(nil)})
	r := waitResult(t, h)
	if r.Status != opt.StatusUnknown {
		t.Fatalf("cancelled job result %+v", r)
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("Stats.Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestFaultSlowUnblocksOnClose wedges a worker on an (effectively infinite)
// injected stall and closes the server: Close must cancel the stall and
// return — the no-deadlock invariant under the worst worker behaviour.
func TestFaultSlowUnblocksOnClose(t *testing.T) {
	defer checkGoroutines(t)()
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		return Fault{Kind: FaultSlow, Delay: time.Hour}
	}}
	s := openT(t, Config{Workers: 1, faults: faults})
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: optimal(1)})
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a stalled worker")
	}
	if _, done := h.Result(); !done {
		t.Fatal("stalled job has no terminal result after Close")
	}
}
