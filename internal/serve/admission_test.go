package serve

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/proof"
)

// fakeClock is an injectable clock for the token-bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRateLimitTokenBucket(t *testing.T) {
	s := New(Config{Workers: 1, RatePerSec: 1, Burst: 2, CacheEntries: -1})
	defer s.Close()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.now = clk.now

	spec := JobSpec{Formula: contradiction(), Client: "alice", Solve: optimal(1)}
	for i := range 2 {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	_, err := s.Submit(spec)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	wait, ok := RetryAfter(err)
	if !ok || wait <= 0 || wait > time.Second {
		t.Fatalf("RetryAfter = %v %v, want (0, 1s]", wait, ok)
	}
	// Other clients have their own buckets.
	bob := spec
	bob.Client = "bob"
	if _, err := s.Submit(bob); err != nil {
		t.Fatalf("independent client throttled: %v", err)
	}
	// One second refills one token.
	clk.advance(time.Second)
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	if st := s.Stats(); st.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", st.RateLimited)
	}
}

func TestClientQuota(t *testing.T) {
	s := New(Config{Workers: 1, ClientQuota: 1})
	defer s.Close()
	release := make(chan struct{})
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "a1",
		Client: "alice", Solve: blocker(release)})

	_, err := s.Submit(JobSpec{Formula: contradiction(), OptsKey: "a2",
		Client: "alice", Solve: blocker(release)})
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("err = %v, want ErrOverQuota", err)
	}
	if _, ok := RetryAfter(err); !ok {
		t.Fatal("quota denial carries no retry hint")
	}
	// A coalescing resubmission occupies no workers, so it is exempt.
	h2, err := s.Submit(JobSpec{Formula: contradiction(), OptsKey: "a1",
		Client: "alice", Solve: blocker(release)})
	if err != nil {
		t.Fatalf("coalesced submission hit the quota: %v", err)
	}
	if h2.ID() != h.ID() {
		t.Fatal("expected a coalesced handle")
	}
	// Other clients are unaffected.
	h3, err := s.Submit(JobSpec{Formula: contradiction(), OptsKey: "b1",
		Client: "bob", Solve: blocker(release)})
	if err != nil {
		t.Fatalf("independent client denied: %v", err)
	}
	close(release)
	waitResult(t, h)
	waitResult(t, h3)
	// Completion released the quota unit.
	h4, err := s.Submit(JobSpec{Formula: contradiction(), OptsKey: "a3",
		Client: "alice", Solve: optimal(1)})
	if err != nil {
		t.Fatalf("quota not released on completion: %v", err)
	}
	waitResult(t, h4)
	if st := s.Stats(); st.QuotaDenied != 1 {
		t.Fatalf("QuotaDenied = %d, want 1", st.QuotaDenied)
	}
}

// TestDegradationUnderPressure drives the queue past the high-water mark and
// checks a portfolio-style submission is granted a shrunken slot count.
func TestDegradationUnderPressure(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 12, HighWater: 0.5, CacheEntries: -1})
	defer s.Close()
	release := make(chan struct{})
	var handles []*Handle
	// 4 running + 2 queued = load 6 = the high-water mark (0.5 * 12).
	for i := range 6 {
		handles = append(handles, mustSubmit(t, s, JobSpec{
			Formula: contradiction(), OptsKey: string(rune('a' + i)),
			Solve: blocker(release)}))
	}
	granted := make(chan int, 1)
	wide := mustSubmit(t, s, JobSpec{
		Formula: contradiction(), OptsKey: "wide", Slots: 4,
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			granted <- g.Slots
			return opt.Result{Status: opt.StatusUnknown, Cost: -1}
		},
	})
	// pressure = (6-6+1)/(12-6) = 1/6 → granted = round(4 · 5/6) = 3.
	if st := s.Stats(); st.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", st.Degraded)
	}
	close(release)
	for _, h := range handles {
		waitResult(t, h)
	}
	if got := <-granted; got != 3 {
		t.Fatalf("granted %d slots under pressure, want 3", got)
	}
	waitResult(t, wide)

	// Below the high-water mark the full request is granted.
	granted2 := make(chan int, 1)
	calm := mustSubmit(t, s, JobSpec{
		Formula: contradiction(), OptsKey: "calm", Slots: 4,
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			granted2 <- g.Slots
			return opt.Result{Status: opt.StatusUnknown, Cost: -1}
		},
	})
	waitResult(t, calm)
	if got := <-granted2; got != 4 {
		t.Fatalf("granted %d slots on an idle server, want 4", got)
	}
}

// TestAuditTrail checks the audit hook sees every admission decision,
// cancellation vote, and completion with the right client attribution.
func TestAuditTrail(t *testing.T) {
	var mu sync.Mutex
	var events []AuditEvent
	s := New(Config{Workers: 1, Audit: func(e AuditEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}})
	defer s.Close()

	waitResult(t, mustSubmit(t, s, JobSpec{Formula: contradiction(),
		Client: "alice", Solve: optimal(1)}))
	// Resubmission: a cache hit, still audited.
	waitResult(t, mustSubmit(t, s, JobSpec{Formula: contradiction(),
		Client: "bob", Solve: optimal(1)}))
	// A cancellation vote — on a distinct formula, so alice's cached verdict
	// cannot answer it.
	other := cnf.NewWCNF(2)
	other.AddSoft(1, cnf.PosLit(1))
	other.AddSoft(1, cnf.NegLit(1))
	h := mustSubmit(t, s, JobSpec{Formula: other, OptsKey: "blocked",
		Client: "carol", Solve: blocker(nil)})
	h.Cancel()
	waitResult(t, h)

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n >= 6 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	find := func(client, action, detail string) *AuditEvent {
		for i := range events {
			e := &events[i]
			if e.Client == client && e.Action == action &&
				(detail == "" || e.Detail == detail) {
				return e
			}
		}
		return nil
	}
	if e := find("alice", "submit", "run slots=1"); e == nil || e.JobID == 0 {
		t.Fatalf("no run-submit event for alice: %+v", events)
	}
	if find("alice", "result", "OPTIMAL") == nil {
		t.Fatalf("no result event for alice: %+v", events)
	}
	if find("bob", "submit", "cache-hit") == nil {
		t.Fatalf("no cache-hit event for bob: %+v", events)
	}
	if find("carol", "cancel", "last-vote") == nil {
		t.Fatalf("no cancel event for carol: %+v", events)
	}
	for _, e := range events {
		if e.Time.IsZero() {
			t.Fatalf("unstamped audit event: %+v", e)
		}
	}
}

func TestDrainLetsJobsFinish(t *testing.T) {
	s := New(Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		close(started)
		select {
		case <-release:
			return opt.Result{Status: opt.StatusOptimal, Cost: 1, LowerBound: 1,
				Model: cnf.Assignment{true}}
		case <-ctx.Done():
			return opt.Result{Status: opt.StatusUnknown, Cost: -1}
		}
	}})
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Admissions stop immediately and the drain is observable in Stats.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("Stats.Draining never turned true")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(JobSpec{Formula: contradiction(), OptsKey: "late",
		Solve: optimal(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit during drain: %v, want ErrClosed", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while a job was still running", err)
	case <-time.After(30 * time.Millisecond):
	}

	// The running job finishes normally — a real result, not a cancellation.
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after the last job finished")
	}
	r := waitResult(t, h)
	if r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("drained job result %+v, want the real optimum", r)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan struct{})
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		close(started)
		<-ctx.Done() // only cancellation ends this job
		return opt.Result{Status: opt.StatusUnknown, Cost: -1}
	}})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	// The straggler was cancelled but still completed with a terminal result.
	r := waitResult(t, h)
	if r.Status != opt.StatusUnknown {
		t.Fatalf("straggler result %+v", r)
	}
}

// TestCloseRacesSubscriber closes the server while an Updates subscriber is
// attached mid-stream: the subscriber must receive a closed channel (its
// terminal signal) and the job a terminal result — no hang, no leak (the
// chaos suite's leak checker covers this file's tests too under -race).
func TestCloseRacesSubscriber(t *testing.T) {
	defer checkGoroutines(t)()
	s := New(Config{Workers: 1})
	started := make(chan struct{})
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		close(started)
		shared.PublishUB(3, cnf.Assignment{true})
		<-ctx.Done()
		return opt.Result{Status: opt.StatusUnknown, Cost: -1}
	}})
	<-started
	sub := h.Subscribe()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for range sub {
		}
	}()
	s.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber channel never closed after Close")
	}
	if _, done := h.Result(); !done {
		t.Fatal("job has no terminal result after Close")
	}
}

// matrixReplayID is the journaled job ID the replay origin recovers.
const matrixReplayID = 50

// matrixCounters are the Stats counters the admission table decides.
type matrixCounters struct {
	Submitted, SessionSolves, CacheHits, CacheMisses, SessionHits,
	CertRejected, Coalesced, Replayed, RateLimited int64
}

func matrixDeltas(after, before Stats) matrixCounters {
	return matrixCounters{after.Submitted - before.Submitted,
		after.SessionSolves - before.SessionSolves, after.CacheHits - before.CacheHits,
		after.CacheMisses - before.CacheMisses, after.SessionHits - before.SessionHits,
		after.CertRejected - before.CertRejected, after.Coalesced - before.Coalesced,
		after.Replayed - before.Replayed, after.RateLimited - before.RateLimited}
}

// certifyingSession is certifying() as a session solve that never uses a
// retained engine.
func certifyingSession(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, _ opt.Incremental) (opt.Result, bool) {
	return certifying()(ctx, w, shared, g), false
}

// TestAdmissionMatrix drives every origin (one-shot Submit, Session.Solve,
// journal replay through Recover) through every disposition (fresh run,
// verified cache hit, cache hit on a corrupted certificate, coalesce onto a
// blocked in-flight job, rate-limited shed) and checks what the admission
// table promises: the Stats deltas, the handle's Cached flag, and the audit
// events. Every origin submits contradiction() for client "c" under
// OptsKey "k".
func TestAdmissionMatrix(t *testing.T) {
	type audit struct{ action, detail string }
	type row struct {
		origin, disposition string
		want                matrixCounters
		cached              bool
		audits              []audit
	}
	const sessionRun = "session solve engine=scratch delta=2 clauses"
	rejected := audit{"cache", "certificate-rejected"}
	rows := []row{
		{"one-shot", "fresh", matrixCounters{Submitted: 1, CacheMisses: 1},
			false, []audit{{"submit", "run slots=1"}}},
		{"one-shot", "hit", matrixCounters{Submitted: 1, CacheHits: 1},
			true, []audit{{"submit", "cache-hit"}}},
		{"one-shot", "corrupt", matrixCounters{Submitted: 1, CacheMisses: 1, CertRejected: 1},
			false, []audit{rejected, {"submit", "run slots=1"}}},
		{"one-shot", "coalesce", matrixCounters{Submitted: 1, CacheMisses: 1, Coalesced: 1},
			false, []audit{{"submit", "coalesced"}}},
		{"one-shot", "rate-limited", matrixCounters{Submitted: 1, RateLimited: 1},
			false, []audit{{"shed", "rate-limited"}}},

		{"session", "fresh", matrixCounters{Submitted: 1, SessionSolves: 1, CacheMisses: 1},
			false, []audit{{"submit", sessionRun}}},
		{"session", "hit", matrixCounters{Submitted: 1, SessionSolves: 1, CacheHits: 1, SessionHits: 1},
			true, []audit{{"submit", "session cache-hit"}}},
		{"session", "corrupt", matrixCounters{Submitted: 1, SessionSolves: 1, CacheMisses: 1, CertRejected: 1},
			false, []audit{rejected, {"submit", sessionRun}}},
		{"session", "coalesce", matrixCounters{Submitted: 1, SessionSolves: 1, CacheMisses: 1, Coalesced: 1},
			false, []audit{{"submit", "session coalesced"}}},
		{"session", "rate-limited", matrixCounters{Submitted: 1, SessionSolves: 1, RateLimited: 1},
			false, []audit{{"shed", "rate-limited"}}},

		{"replay", "fresh", matrixCounters{CacheMisses: 1, Replayed: 1},
			false, []audit{{"recover", "replayed"}}},
		{"replay", "hit", matrixCounters{CacheHits: 1},
			true, []audit{{"recover", "completed from recovered store"}}},
		{"replay", "corrupt", matrixCounters{CacheMisses: 1, CertRejected: 1, Replayed: 1},
			false, []audit{rejected, {"recover", "replayed"}}},
		{"replay", "coalesce", matrixCounters{CacheMisses: 1, Coalesced: 1, Replayed: 1},
			false, []audit{{"recover", "coalesced onto running replay"}}},
	}
	for _, r := range rows {
		t.Run(r.origin+"/"+r.disposition, func(t *testing.T) {
			var (
				mu     sync.Mutex
				events []AuditEvent
			)
			cfg := Config{Workers: 2, Audit: func(e AuditEvent) {
				mu.Lock()
				events = append(events, e)
				mu.Unlock()
			}}
			// The job that fills the cache is the first one admitted, so its
			// ID follows the journal's highest ID on a replaying server.
			fillID := uint64(1)
			if r.origin == "replay" {
				path := filepath.Join(t.TempDir(), "journal.log")
				jl := openJournalT(t, path, nil)
				if err := jl.record(matrixReplayID, contradiction(),
					JobSpec{OptsKey: "k", Client: "c", Payload: []byte("x")}); err != nil {
					t.Fatal(err)
				}
				jl.Close()
				jl = openJournalT(t, path, nil)
				defer jl.Close()
				cfg.Journal = jl
				fillID = matrixReplayID + 1
			}
			switch r.disposition {
			case "corrupt":
				cfg.Faults = &Faults{CorruptCert: func(id uint64) int {
					if id == fillID {
						return 0 // the format magic: a guaranteed rejection
					}
					return -1
				}}
			case "rate-limited":
				cfg.RatePerSec, cfg.Burst = 1, 1
			}
			s := New(cfg)
			defer s.Close() // also unblocks the coalesce row's blocker on failure
			s.now = (&fakeClock{t: time.Unix(1000, 0)}).now

			release := make(chan struct{})
			switch r.disposition {
			case "hit", "corrupt":
				fill := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "fill",
					Solve: certifying()})
				if fill.ID() != fillID {
					t.Fatalf("cache filler got ID %d, want %d", fill.ID(), fillID)
				}
				waitResult(t, fill)
			case "coalesce":
				mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "k",
					Client: "c", Solve: blocker(release)})
			case "rate-limited":
				if r.origin == "one-shot" { // a session's open takes the token
					mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "prior",
						Client: "c", Solve: optimal(1)})
				}
			}
			var sess *Session
			if r.origin == "session" {
				sess = mustOpen(t, s, SessionSpec{Base: contradiction(), OptsKey: "k",
					Client: "c", Solve: certifyingSession})
				defer sess.Close()
			}

			before := s.Stats()
			mu.Lock()
			mark := len(events)
			mu.Unlock()
			var h *Handle
			var err error
			switch r.origin {
			case "one-shot":
				h, err = s.Submit(JobSpec{Formula: contradiction(), OptsKey: "k",
					Client: "c", Solve: certifying()})
			case "session":
				h, err = sess.Solve(context.Background())
			case "replay":
				if err = s.Recover(replayCertifying); err == nil {
					var ok bool
					if h, ok = s.Job(matrixReplayID); !ok {
						t.Fatalf("replayed job %d not addressable", matrixReplayID)
					}
				}
			}
			if r.disposition == "rate-limited" {
				if !errors.Is(err, ErrRateLimited) {
					t.Fatalf("err = %v, want ErrRateLimited", err)
				}
				if wait, ok := RetryAfter(err); !ok || wait <= 0 {
					t.Fatalf("RetryAfter = %v %v, want a positive hint", wait, ok)
				}
			} else {
				if err != nil {
					t.Fatalf("admission: %v", err)
				}
				close(release)
				res := waitResult(t, h)
				if res.Cached != r.cached {
					t.Errorf("Cached = %t, want %t", res.Cached, r.cached)
				}
				if r.disposition == "corrupt" {
					if len(res.Certificate) == 0 {
						t.Error("fallback solve carries no certificate")
					} else if err := proof.CheckBytes(contradiction(), res.Certificate); err != nil {
						t.Errorf("fallback certificate rejected: %v", err)
					}
				}
			}
			if got := matrixDeltas(s.Stats(), before); got != r.want {
				t.Errorf("Stats deltas = %+v, want %+v", got, r.want)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, want := range r.audits {
				found := false
				for _, e := range events[mark:] {
					if e.Client == "c" && e.Action == want.action && e.Detail == want.detail {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no %q/%q audit event for client c in %+v", want.action, want.detail, events[mark:])
				}
			}
		})
	}
}
