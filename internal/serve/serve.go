// Package serve is the solving-as-a-service layer: it admits MaxSAT jobs,
// schedules them on a bounded worker pool, deduplicates identical in-flight
// submissions, caches verified results keyed by a canonical formula
// fingerprint, and streams anytime bound improvements to subscribers.
//
// The layer sits above the optimizer contract of internal/opt and below the
// public maxsat.Server / cmd/maxsatd surfaces. It is deliberately ignorant
// of algorithms: a submission carries the formula plus a SolveFunc closure
// built by the caller, so the layer composes with every optimizer — and
// every future optimizer — without knowing their names.
//
// Scheduling: the pool's budget is counted in worker slots. A sequential job
// occupies one slot; a portfolio job declares how many members it will race
// (JobSpec.Slots) and occupies that many, clamped to the pool's capacity —
// the granted slot count is handed back to the SolveFunc so the portfolio
// races exactly that many members. Slots are acquired FIFO after a job is
// admitted and released when its solve returns, so N jobs × M members can
// never oversubscribe the machine.
//
// Caching: a verified OPTIMAL verdict (model re-checked against the job's
// formula) or an UNSATISFIABLE verdict is a fact about the formula alone,
// independent of which algorithm proved it or what resource budget it ran
// under, so the verified-result store (store.go) keys on the canonical
// formula fingerprint only and a resubmission under different options still
// hits. UNKNOWN results — budget-dependent — are never stored. The store's
// memory tier is an LRU; its optional disk tier keeps certified verdicts
// across restarts. The rule for trusting a stored verdict is written once,
// in the store's doc comment.
//
// Coalescing: an identical submission (same formula and same canonical
// options) arriving while the first is still queued or running attaches to
// the running job instead of spawning a duplicate; every attached handle
// gets the same result and its own cancellation vote. The job is abandoned
// only when every handle has cancelled.
//
// Hardening: admission is additionally bounded per client — a token-bucket
// rate limit and an in-flight quota (see admission.go) shed a misbehaving
// client with a retry hint before it can starve the queue, and every
// decision is reported to an audit hook. Under overload (queue pressure past
// Config.HighWater), multi-slot portfolio jobs are granted fewer slots —
// down to a solo member — instead of queueing full line-ups behind each
// other; the grant reductions are visible in Stats.Degraded. Drain stops
// admissions and lets running jobs finish before a deadline, and a
// fault-injection hook set (faults.go) drives the chaos suite that holds the
// layer to its no-deadlock / no-leak / no-unverified-result invariants.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/sat"
)

// Grant is what the pool hands a SolveFunc for one attempt: the worker
// slots the job was granted (≥ 1; a portfolio should race exactly that many
// members) and which attempt this is (0 for the first run; retries of
// transiently failed jobs count up from 1 and should run a degraded profile
// — see Config.MaxRetries).
type Grant struct {
	Slots   int
	Attempt int
}

// SolveFunc runs one optimization. The serving layer calls it with the
// formula snapshot taken at Submit time, a fresh bounds channel it observes
// for anytime streaming (always non-nil), and the attempt's Grant.
type SolveFunc func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result

// JobSpec describes one submission.
type JobSpec struct {
	// Formula is the instance to solve. The server snapshots (clones) it at
	// Submit time, so the caller may reuse or mutate its copy afterwards.
	Formula *cnf.WCNF
	// OptsKey is the canonical identity of the solve options, used to
	// coalesce identical in-flight submissions. Submissions with equal
	// formulas but different OptsKeys run separately. It is also the
	// durable re-description of the job: a SolveFunc closure cannot be
	// persisted, so a durable server journals the OptsKey (the maxsat
	// layer's options JSON), and after a restart the Recover callback
	// rebuilds the closure from it (RecoveredJob.Payload).
	OptsKey string
	// Slots is the worker-slot demand (portfolio parallelism); values < 1
	// are treated as 1 and values above the pool capacity are clamped to it.
	Slots int
	// Timeout bounds the solve, measured from the moment the job starts
	// running (queue time does not count); 0 falls back to
	// Config.DefaultTimeout, and a negative value means unbounded even when
	// a default is configured.
	Timeout time.Duration
	// Meta is opaque caller data carried into Result.Meta (the maxsat layer
	// stores the resolved algorithm name there). The durable store persists
	// it with a certified verdict.
	Meta string
	// Client is the submitting client's identity for admission accounting
	// and audit logging (the HTTP daemon uses the bearer token's name, or
	// the peer address when authentication is off). All anonymous
	// submissions (empty Client) share one account.
	Client string
	// Solve runs the optimization.
	Solve SolveFunc
}

// Config configures a Server; maxsat.ServerConfig is this type. The zero
// value gives a single-worker pool with a 256-entry cache, no default
// deadline and no durability.
type Config struct {
	// Workers is the global worker-slot budget shared by all jobs; ≤ 0
	// means 1. Size it to the machine (e.g. runtime.NumCPU()).
	Workers int
	// QueueDepth caps the jobs queued or running at once; further
	// submissions fail with ErrQueueFull. ≤ 0 means unbounded.
	QueueDepth int
	// CacheEntries bounds the verified-result cache's memory tier; 0 means
	// 256, negative disables caching.
	CacheEntries int
	// DefaultTimeout applies to jobs that do not set their own; 0 means
	// unbounded.
	DefaultTimeout time.Duration

	// RatePerSec is the per-client sustained submission rate (token
	// bucket); 0 disables rate limiting. Clients are the names submissions
	// carry (JobSpec.Client; maxsat.Server.SubmitAs); the empty name is one
	// shared anonymous account.
	RatePerSec float64
	// Burst is the token-bucket capacity; 0 means max(1, 2·RatePerSec).
	Burst int
	// ClientQuota caps one client's queued-or-running jobs (cache hits and
	// coalesced attaches, which occupy no workers, are exempt); 0 disables.
	ClientQuota int
	// HighWater (a fraction of QueueDepth, e.g. 0.75) enables graceful
	// degradation under overload: once queued+running reaches
	// HighWater·QueueDepth, multi-slot (portfolio) grants shrink linearly
	// with the remaining queue headroom, down to a single slot as the queue
	// approaches full — new jobs race fewer members instead of queueing
	// whole line-ups behind each other. Reductions are counted in
	// Stats.Degraded. 0 disables; needs QueueDepth > 0.
	HighWater float64
	// Audit, when non-nil, receives one event per admission decision,
	// cancellation vote, and completion. Called outside all server locks;
	// the hook must not block for long (it runs on submit and worker paths).
	Audit func(AuditEvent)

	// DataDir, when non-empty, makes the server durable: Open opens
	// (creating if absent) two checksummed logs there, and Close and Drain
	// close them. results.log keeps certified verdicts across restarts;
	// each is fsynced there before it is published, and Open re-proves each
	// through the independent proof checker before it may serve a hit
	// (rejections count in Stats.RecoveredRejected). Uncertified results
	// stay in memory. journal.log records (fsynced) every job admitted to
	// run before Submit returns and marks it done when it completes;
	// Recover re-enqueues the incomplete ones after a restart under their
	// original IDs. Empty disables durability.
	DataDir string
	// StallTimeout, when positive, arms the stuck-solver watchdog: a
	// running job whose progress heartbeat (CDCL conflicts via
	// sat.WithProgress, branch-and-bound nodes, bound improvements) does
	// not move for this long is cancelled, counted in Stats.Stalled, and
	// treated as transiently failed (retried when MaxRetries allows). 0
	// disables the watchdog.
	StallTimeout time.Duration
	// MaxRetries is how many times a transiently failed attempt — solver
	// panic, watchdog kill, or an uncancelled Unknown (budget exhaustion)
	// — is retried server-side before the failure is surfaced to the
	// client. Retries run degraded: the job is shrunk to one worker slot
	// and the SolveFunc sees Grant.Attempt > 0 (the maxsat layer then races
	// a solo line-up and halves the memory budget per attempt). The first
	// retry waits 100ms, doubled per further attempt. 0 disables retries:
	// the first failure is the job's result.
	MaxRetries int

	// MaxSessions caps concurrently open sessions (each pins one worker
	// slot for its lifetime — see OpenSession); 0 means Workers, negative
	// disables sessions entirely.
	MaxSessions int
	// SessionIdle is the idle-eviction horizon: a session with no Push or
	// Solve activity for this long is evicted, releasing its pinned worker
	// slot and retained solver. 0 means 5 minutes; negative disables
	// eviction (sessions then live until Close).
	SessionIdle time.Duration

	// faults is the fault-injection hook set of this package's chaos and
	// crash tests; nil runs every job and every log write normally.
	faults *Faults
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Workers     int   `json:"workers"`
	WorkersBusy int   `json:"workers_busy"`
	Queued      int   `json:"queued"`
	Running     int   `json:"running"`
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Cancelled   int64 `json:"cancelled"`
	// CacheHits + CacheMisses counts every verified-cache lookup, whatever
	// its origin — one-shot, session solve or journal replay — so
	// hits/(hits+misses) is the hit ratio (cmd/maxsatbench reports it as
	// serve.cache_hit_ratio).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesced   int64 `json:"coalesced"`
	CacheSize   int   `json:"cache_size"`
	// CertRejected counts cache hits discarded because the stored
	// certificate failed re-validation (bit rot, or an injected corruption
	// fault); each one evicts the entry and falls back to a fresh solve.
	CertRejected int64 `json:"cert_rejected"`
	// Panics counts jobs that failed outright because their solver
	// panicked (Result.Err non-nil) — the crash-rate signal operators
	// alert on.
	Panics int64 `json:"panics"`
	// Degraded counts jobs granted fewer worker slots than they asked for
	// because queue pressure was past the high-water mark.
	Degraded int64 `json:"degraded"`
	// Recovered / RecoveredRejected count durable-store entries accepted
	// into (re-proved by the independent checker) and rejected from the
	// cache at startup. RecoveredRejected also counts the journal records
	// dropped at open: frames the integrity layer cut, and records of an
	// unknown kind or that do not decode.
	Recovered         int64 `json:"recovered"`
	RecoveredRejected int64 `json:"recovered_rejected"`
	// Replayed counts journaled incomplete jobs re-enqueued by Recover.
	Replayed int64 `json:"replayed"`
	// Stalled counts attempts killed by the stuck-solver watchdog.
	Stalled int64 `json:"stalled"`
	// Retries counts transient-failure retries started; RetrySucceeded
	// counts jobs whose final verdict came from such a retry.
	Retries        int64 `json:"retries"`
	RetrySucceeded int64 `json:"retry_succeeded"`
	// RateLimited / QuotaDenied count submissions shed by the per-client
	// admission bounds.
	RateLimited int64 `json:"rate_limited"`
	QuotaDenied int64 `json:"quota_denied"`
	// SessionsOpen is the number of currently open sessions (each pinning
	// one worker slot); SessionsOpened / SessionsEvicted are lifetime
	// totals (eviction counts only idle-eviction, not client Close).
	SessionsOpen    int   `json:"sessions_open"`
	SessionsOpened  int64 `json:"sessions_opened"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	// SessionSolves counts delta solves submitted through sessions;
	// SessionReused counts those answered by a retained (warm) solver
	// rather than a from-scratch run.
	SessionSolves int64 `json:"session_solves"`
	SessionReused int64 `json:"session_reused"`
	// SessionHits counts verified-result cache hits served to session
	// solves — hits whose key was a session-accumulated fingerprint rather
	// than a one-shot submission. Every SessionHit is also a CacheHit.
	SessionHits int64 `json:"session_hits"`
	// Draining reports that the server has stopped admissions and is
	// waiting for the remaining jobs (set by Drain, and by Close).
	Draining bool `json:"draining"`
}

// State is a job's lifecycle phase.
type State int8

// Job states.
const (
	// Queued: admitted, waiting for worker slots.
	Queued State = iota
	// Running: occupying worker slots, solve in progress.
	Running
	// Done: result available (solved, cancelled, or served from cache).
	Done
)

// String names the state.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	default:
		return "done"
	}
}

// Result is a completed job's outcome.
type Result struct {
	opt.Result
	// Meta echoes JobSpec.Meta — for a cache hit, the Meta of the submission
	// that originally proved the result, also after a restart.
	Meta string
	// Cached reports that the result was served from the verified-result
	// cache instead of a fresh solve.
	Cached bool
	// Reused reports that a session's retained (warm) solver produced the
	// result — a delta re-solve — rather than a from-scratch run. Always
	// false for one-shot submissions.
	Reused bool
	// Err is non-nil when the job failed outright (solver panic); Status is
	// then StatusUnknown.
	Err error
}

// Event is a bound-improvement notification (see opt.BoundsEvent).
type Event = opt.BoundsEvent

// Errors returned by Submit.
var (
	ErrClosed    = errors.New("serve: server is closed")
	ErrQueueFull = errors.New("serve: job queue is full")
	ErrBadSpec   = errors.New("serve: job spec needs a formula and a solve function")
)

// Server is the solving service. Create one with Open, submit with Submit,
// shut down with Close or Drain.
type Server struct {
	cfg     Config
	sem     *sema
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	journal *journal // nil unless Config.DataDir is set

	now   func() time.Time                           // injectable clock for the admission tests
	sleep func(ctx context.Context, d time.Duration) // injectable backoff wait for the retry tests

	mu        sync.Mutex
	closed    bool
	inflight  map[jobKey]*job
	jobs      map[uint64]*job
	doneOrder []uint64
	results   *verifiedStore
	clients   map[string]*clientState
	sessions  map[uint64]*Session
	nextID    uint64
	queued    int
	running   int
	stats     Stats
}

// The durable logs' file names under Config.DataDir.
const (
	resultsLog = "results.log"
	journalLog = "journal.log"
)

// Open starts a server. With Config.DataDir set it first opens the durable
// logs there and re-proves every stored verdict before it returns; the
// replay of the jobs the journal holds pending is a separate step, Recover,
// for the caller to take once it is otherwise ready.
func Open(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	var (
		disk *resultStore
		jl   *journal
		err  error
	)
	if cfg.DataDir != "" {
		if disk, err = openResultStore(filepath.Join(cfg.DataDir, resultsLog), cfg.faults); err != nil {
			return nil, fmt.Errorf("serve: opening result store: %w", err)
		}
		if jl, err = openJournal(filepath.Join(cfg.DataDir, journalLog), cfg.faults); err != nil {
			disk.close()
			return nil, fmt.Errorf("serve: opening job journal: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		sem:      newSema(cfg.Workers),
		baseCtx:  ctx,
		stop:     cancel,
		journal:  jl,
		now:      time.Now,
		inflight: make(map[jobKey]*job),
		jobs:     make(map[uint64]*job),
		results:  newVerifiedStore(cfg, disk),
		clients:  make(map[string]*clientState),
		sessions: make(map[uint64]*Session),
	}
	s.sleep = func(ctx context.Context, d time.Duration) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	s.stats.Recovered, s.stats.RecoveredRejected = s.results.load(s.audit)
	if jl != nil {
		// Job IDs must stay unique across restarts: clients hold IDs from
		// the previous life, and Recover re-registers pending jobs under
		// their original IDs.
		s.nextID = jl.maxID
		if jl.dropped > 0 {
			s.stats.RecoveredRejected += int64(jl.dropped)
			s.audit(AuditEvent{Action: "recover", Detail: fmt.Sprintf("journal: %d records dropped", jl.dropped)})
		}
	}
	return s, nil
}

// job is the shared state behind every handle of one (possibly coalesced)
// submission: its identity, its lifecycle and, once done, its answer. It
// reaches no formula, solve closure or bounds — those are the job's work,
// held by its run goroutine alone — so a finished job kept in the
// retainDone table holds its answer and nothing more.
type job struct {
	id      uint64
	key     jobKey
	client  string // the submitter, for quota release and audit
	slots   int
	charged bool // holds one unit of the client's in-flight quota
	cancel  context.CancelFunc

	// beat is the liveness heartbeat the stuck-solver watchdog observes:
	// the solver ticks it per conflict (sat.WithProgress) and every bound
	// improvement ticks it too — a job is stuck only when neither moves.
	beat atomic.Int64
	// aliases are additional job IDs addressing this job: journal replay
	// preserves the IDs clients already hold, so coalesced replays of the
	// same formula register every original ID against the one real job.
	aliases []uint64
	journal bool // the job has a journal entry to mark done
	// leased marks a session solve: the job runs on its session's pinned
	// worker slot, so run neither acquires nor releases pool slots.
	leased bool
	// reused, on a session solve, records whether the winning attempt came
	// from the session's retained solver (set by the session solve wrapper,
	// read by run when it assembles the Result); nil on other jobs.
	reused *atomic.Bool

	mu   sync.Mutex
	st   State
	best Event
	subs []chan Event
	res  Result
	refs int
	done chan struct{}
}

// work is what a job needs only while it runs: the formula snapshot, the
// solve, its budget, the Meta its result carries and the anytime bounds.
// admit hands it to the run goroutine, its only holder, so it becomes
// garbage when the job finishes.
type work struct {
	w       *cnf.WCNF
	solve   SolveFunc
	timeout time.Duration
	meta    string
	bounds  *opt.Bounds
}

// Handle is one caller's view of a job. Handles from coalesced submissions
// share the underlying job but cancel independently.
type Handle struct {
	s    *Server
	j    *job
	once sync.Once
}

// Submit admits one job. It returns immediately: with a Done handle on a
// cache hit, with a handle attached to an existing identical in-flight job
// (coalesced), or with a handle on a freshly queued job. A submission shed
// by the global queue bound or the per-client admission bounds fails with a
// *ShedError carrying a retry hint (see admission.go).
func (s *Server) Submit(spec JobSpec) (*Handle, error) {
	return s.admit(admission{spec: spec, origin: oneShot})
}

// degradeLocked is the overload-degradation ladder: past the high-water mark
// a multi-slot grant shrinks linearly with the remaining queue headroom, so
// a portfolio submitted to a nearly-full server races a truncated line-up —
// down to its strongest member alone — instead of queueing the full width
// behind every job already waiting. Caller holds s.mu.
func (s *Server) degradeLocked(slots int) (int, bool) {
	if slots <= 1 || s.cfg.HighWater <= 0 || s.cfg.QueueDepth <= 0 {
		return slots, false
	}
	hw := int(math.Ceil(s.cfg.HighWater * float64(s.cfg.QueueDepth)))
	load := s.queued + s.running
	if load < hw || s.cfg.QueueDepth <= hw {
		return slots, false
	}
	pressure := float64(load-hw+1) / float64(s.cfg.QueueDepth-hw)
	if pressure > 1 {
		pressure = 1
	}
	granted := int(math.Round(float64(slots) * (1 - pressure)))
	if granted < 1 {
		granted = 1
	}
	if granted >= slots {
		return slots, false
	}
	s.stats.Degraded++
	return granted, true
}

// doneJobLocked registers an already-completed job (cache hit) for client
// under id so that poll-style clients can still address it. Caller holds
// s.mu.
func (s *Server) doneJobLocked(id uint64, key jobKey, client string, res Result) *Handle {
	j := &job{
		id:     id,
		key:    key,
		client: client,
		st:     Done,
		res:    res,
		done:   make(chan struct{}),
	}
	if res.Status == opt.StatusOptimal {
		j.best = Event{LB: res.Cost, UB: res.Cost, HasLB: true, HasUB: true}
	}
	close(j.done)
	s.jobs[j.id] = j
	s.retainLocked(j.id)
	return &Handle{s: s, j: j}
}

// retryBackoff is the first retry's delay, doubled per further attempt. The
// wait is cut short by job cancellation.
const retryBackoff = 100 * time.Millisecond

// run executes one job: acquire slots, solve wk under the per-job deadline —
// retrying transient failures with backoff and a degraded grant — then
// finish.
func (s *Server) run(ctx context.Context, j *job, wk *work) {
	defer s.wg.Done()
	// Release the job's cancel context on every exit path: without this,
	// each completed job would stay registered as a child of baseCtx for
	// the server's lifetime (cancel funcs are idempotent, so a handle's
	// Cancel racing this is fine).
	defer j.cancel()
	// A leased (session) job runs on its session's pinned worker slot —
	// acquired when the session opened, released when it closes — so it
	// neither waits for nor returns pool slots here. No job starts once
	// shutdown has begun: Close cancels baseCtx before it reaches each job's
	// own context, and a slot a cancelled job hands back in between can be
	// granted to a queued job whose context is still live.
	acquired := j.leased || s.sem.acquire(ctx, j.slots) == nil
	if !acquired || ctx.Err() != nil || s.baseCtx.Err() != nil {
		if acquired && !j.leased {
			s.sem.release(j.slots)
		}
		s.finish(j, wk, Result{Result: opt.Result{Status: opt.StatusUnknown, Cost: -1}}, true)
		return
	}
	s.mu.Lock()
	s.queued--
	s.running++
	s.mu.Unlock()
	j.mu.Lock()
	j.st = Running
	j.mu.Unlock()

	timeout := wk.timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	slots := j.slots
	var res opt.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = s.attempt(runCtx, j, wk, Grant{Slots: slots, Attempt: attempt})
		// Transient means the attempt failed for a reason a rerun could fix
		// — panic, watchdog kill, budget exhaustion — while the job itself
		// is still wanted (runCtx alive: not cancelled, not timed out).
		transient := runCtx.Err() == nil &&
			(err != nil || res.Status == opt.StatusUnknown)
		if !transient || attempt >= s.cfg.MaxRetries {
			if attempt > 0 && err == nil &&
				(res.Status == opt.StatusOptimal || res.Status == opt.StatusUnsat) {
				s.mu.Lock()
				s.stats.RetrySucceeded++
				s.mu.Unlock()
			}
			break
		}
		// Degrade before retrying: whatever sank the first attempt —
		// memory pressure, a portfolio member's bug, sharing-induced state
		// — gets a smaller target. The extra slots go back to the pool now;
		// the SolveFunc sees Attempt > 0 and shrinks its own profile
		// (solo line-up, reduced memory budget).
		if slots > 1 {
			s.sem.release(slots - 1)
			slots = 1
		}
		s.mu.Lock()
		s.stats.Retries++
		s.mu.Unlock()
		reason := "unknown-result"
		if err != nil {
			reason = err.Error()
		}
		s.audit(AuditEvent{Client: j.client, Action: "retry", JobID: j.id,
			Detail: fmt.Sprintf("attempt %d after %s", attempt+1, reason)})
		s.sleep(runCtx, retryBackoff<<attempt)
	}
	if !j.leased {
		s.sem.release(slots)
	}
	reused := j.reused != nil && j.reused.Load()
	s.mu.Lock()
	s.running--
	if reused {
		s.stats.SessionReused++
	}
	s.mu.Unlock()
	s.finish(j, wk, Result{Result: res, Meta: wk.meta, Err: err, Reused: reused},
		ctx.Err() != nil)
}

// attempt runs one solve attempt under the stuck-solver watchdog. The
// attempt's context carries the job's progress heartbeat; if the heartbeat
// freezes past Config.StallTimeout the attempt is cancelled and reported as
// a stall error (transient, so the retry ladder picks it up).
func (s *Server) attempt(runCtx context.Context, j *job, wk *work, g Grant) (opt.Result, error) {
	attemptCtx, cancel := context.WithCancel(runCtx)
	defer cancel()
	attemptCtx = sat.WithProgress(attemptCtx, &j.beat)

	var stalled atomic.Bool
	if s.cfg.StallTimeout > 0 {
		watchdogDone := make(chan struct{})
		go s.watchdog(attemptCtx, j, cancel, &stalled, watchdogDone)
		defer func() { cancel(); <-watchdogDone }()
	}

	res, err := s.solve(attemptCtx, j, wk, g)
	if stalled.Load() && runCtx.Err() == nil {
		s.mu.Lock()
		s.stats.Stalled++
		s.mu.Unlock()
		s.audit(AuditEvent{Client: j.client, Action: "stall", JobID: j.id,
			Detail: fmt.Sprintf("no progress for %s", s.cfg.StallTimeout)})
		if err == nil {
			err = fmt.Errorf("serve: solver stalled: no progress for %s", s.cfg.StallTimeout)
		}
	}
	return res, err
}

// watchdog cancels the attempt when the job's heartbeat stops moving for
// Config.StallTimeout. It polls rather than waking per tick: the heartbeat
// is written on the solver's hot path and must stay a bare atomic add.
func (s *Server) watchdog(ctx context.Context, j *job, cancel context.CancelFunc,
	stalled *atomic.Bool, done chan<- struct{}) {
	defer close(done)
	poll := s.cfg.StallTimeout / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	last := j.beat.Load()
	lastMove := s.now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if cur := j.beat.Load(); cur != last {
				last = cur
				lastMove = s.now()
				continue
			}
			if s.now().Sub(lastMove) >= s.cfg.StallTimeout {
				stalled.Store(true)
				cancel()
				return
			}
		}
	}
}

// solve invokes the job's SolveFunc on its snapshot, converting a solver
// panic into a failed result so one poisoned job cannot take the whole
// service down. The fault-injection hook runs inside the same recover scope,
// so an injected panic exercises exactly the containment a real solver panic
// would.
func (s *Server) solve(ctx context.Context, j *job, wk *work, g Grant) (res opt.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = opt.Result{Status: opt.StatusUnknown, Cost: -1}
			err = fmt.Errorf("serve: solver panic: %v", p)
		}
	}()
	if r, handled := s.cfg.faults.inject(ctx, j, wk, g.Attempt); handled {
		return r, nil
	}
	return wk.solve(ctx, wk.w, wk.bounds, g), nil
}

// finish completes a job: offers its result, checked against wk's snapshot,
// to the verified-result store, emits the closing bound event, publishes the
// result, and wakes every waiter and subscriber.
func (s *Server) finish(j *job, wk *work, res Result, cancelled bool) {
	// Outside the server lock, and while the job is still in the in-flight
	// map, so an identical submission coalesces rather than re-solving.
	if err := s.results.insert(wk.w, j.key.formulaKey, j.id, res); err != nil {
		s.audit(AuditEvent{Client: j.client, Action: "store", JobID: j.id,
			Detail: "append failed: " + err.Error()})
	}
	res.Hints = nil // written to the store if anywhere; never published or retained
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	if j.state() == Queued {
		s.queued--
	}
	if j.charged {
		j.charged = false
		s.releaseClientLocked(j.client)
	}
	detail := res.Status.String()
	wasCancelled := cancelled && res.Err == nil && res.Status == opt.StatusUnknown
	if wasCancelled {
		s.stats.Cancelled++
		detail = "cancelled"
	} else {
		s.stats.Completed++
	}
	// A job cancelled by shutdown (not by its client) is unfinished business:
	// leave its journal entry pending so the next life replays it instead of
	// forgetting an admitted submission.
	markDone := j.journal && !(wasCancelled && s.closed)
	if res.Err != nil {
		s.stats.Panics++
		detail = "failed: " + res.Err.Error()
	}
	s.retainLocked(j.id)
	// Snapshot under s.mu: admit appends aliases in the same critical
	// section that finds the job in the inflight map, and the map entry was
	// just deleted above — so this copy is complete and race-free.
	aliases := append([]uint64(nil), j.aliases...)
	for _, id := range aliases {
		s.retainLocked(id)
	}
	s.mu.Unlock()

	if markDone {
		// Unsynced marker: it reaches disk with the next synced append or
		// Close, and losing it merely makes the next recovery re-run a job
		// whose answer is already durable or cached — replay is idempotent,
		// so cheap beats synced here.
		s.journal.markDone(j.id)
		for _, id := range aliases {
			s.journal.markDone(id)
		}
	}
	s.audit(AuditEvent{Client: j.client, Action: "result", JobID: j.id, Detail: detail})

	// A proved optimum closes the bounds; make sure subscribers see the
	// closing improvement even if the winning publish bypassed the shared
	// bounds (fast solo solves return without publishing).
	if res.Status == opt.StatusOptimal {
		j.emit(Event{LB: res.Cost, UB: res.Cost, HasLB: true, HasUB: true})
	}
	// done closes under j.mu together with the state change, so a reader
	// that sees Done — or a subscriber whose channel closed — always finds
	// the result published.
	j.mu.Lock()
	j.st = Done
	j.res = res
	subs := j.subs
	j.subs = nil
	close(j.done)
	j.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// retainDone is how many completed jobs stay addressable by ID, for
// poll-style clients. A retained job keeps its answer — state, best bounds,
// and the Result with its model and certificate — but not its formula or
// solve, so it costs its model and certificate plus under a kilobyte: 1.5 KB
// a job for a 625-variable model without a certificate
// (BenchmarkRetainedJob).
const retainDone = 1024

// retainLocked evicts completed jobs beyond retainDone from the by-ID map.
// Caller holds s.mu.
func (s *Server) retainLocked(id uint64) {
	s.doneOrder = append(s.doneOrder, id)
	for len(s.doneOrder) > retainDone {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// Job returns a handle for an admitted job by ID. Completed jobs stay
// addressable until evicted by the retainDone bound. The returned
// handle carries no cancellation vote (Cancel on it is a no-op).
func (s *Server) Job(id uint64) (*Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	h := &Handle{s: s, j: j}
	h.once.Do(func() {}) // spend the cancellation vote: lookups don't own one
	return h, true
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Workers = s.cfg.Workers
	st.WorkersBusy = s.sem.busy()
	st.Queued = s.queued
	st.Running = s.running
	st.CacheSize = s.results.len()
	st.Draining = s.closed
	return st
}

// Close cancels every queued and running job, waits for them to finish and
// closes the durable logs. Subsequent Submits fail with ErrClosed; existing
// handles keep working. Jobs cancelled by Close keep their journal entries:
// the next life's Recover replays them.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		s.stop()
	}
	s.waitAndCloseLogs()
}

// waitAndCloseLogs waits for every job and session to stop, then closes the
// durable logs, which nothing writes after that. It ends Close and Drain,
// so it may run more than once: closing a closed log does nothing. The
// close errors are dropped: a close syncs only done markers, since every
// other record was synced at its append, and a lost marker costs a re-run.
func (s *Server) waitAndCloseLogs() {
	s.wg.Wait()
	s.shutdownSessions()
	if s.journal != nil {
		s.journal.close()
	}
	if s.results.disk != nil {
		s.results.disk.close()
	}
}

// Drain is the graceful half of Close: it stops admissions immediately
// (Submit fails with ErrClosed, Stats reports Draining) and lets the queued
// and running jobs run to completion — their handles and subscribers receive
// real results. When ctx expires first, the stragglers are cancelled Close-
// style and Drain returns ctx's error after they unwind; every job still
// completes (with its best bounds), so subscribers always see a terminal
// event. A nil error means every job finished within the deadline. Drain
// closes the durable logs once every job has stopped, as Close does; Drain
// and Close compose: calling either after the other is safe.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		s.waitAndCloseLogs()
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.stop() // deadline passed: cancel the stragglers
		err = ctx.Err()
	}
	s.waitAndCloseLogs()
	return err
}

// ---- job internals ----

func (j *job) state() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// emit folds a bounds snapshot into the job's best-seen bounds and fans the
// improvement out to every subscriber. Observer callbacks may arrive out of
// order under concurrent publishes; the fold keeps the outgoing stream
// monotone (LB never falls, UB never rises).
func (j *job) emit(e Event) {
	j.beat.Add(1) // a bound improvement is progress, whatever the solver
	j.mu.Lock()
	improved := false
	if e.HasLB && (!j.best.HasLB || e.LB > j.best.LB) {
		j.best.LB, j.best.HasLB = e.LB, true
		improved = true
	}
	if e.HasUB && (!j.best.HasUB || e.UB < j.best.UB) {
		j.best.UB, j.best.HasUB = e.UB, true
		improved = true
	}
	if improved {
		snap := j.best
		for _, ch := range j.subs {
			pushConflate(ch, snap)
		}
	}
	j.mu.Unlock()
}

// pushConflate delivers e without ever blocking the publisher: when the
// subscriber's buffer is full the oldest pending event is dropped — bound
// events are cumulative snapshots, so the newest one supersedes everything
// it displaced.
func pushConflate(ch chan Event, e Event) {
	for {
		select {
		case ch <- e:
			return
		default:
		}
		select {
		case <-ch:
		default:
		}
	}
}

// ---- Handle ----

// ID returns the server-assigned job ID.
func (h *Handle) ID() uint64 { return h.j.id }

// Done returns a channel closed when the job completes.
func (h *Handle) Done() <-chan struct{} { return h.j.done }

// State returns the job's current phase and its best-seen bounds.
func (h *Handle) State() (State, Event) {
	h.j.mu.Lock()
	defer h.j.mu.Unlock()
	return h.j.st, h.j.best
}

// Wait blocks until the job completes or ctx is cancelled. A ctx error
// abandons only this wait — the job keeps running (use Cancel to withdraw).
func (h *Handle) Wait(ctx context.Context) (Result, error) {
	select {
	case <-h.j.done:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	h.j.mu.Lock()
	defer h.j.mu.Unlock()
	return h.j.res, nil
}

// Result returns the outcome if the job has completed.
func (h *Handle) Result() (Result, bool) {
	select {
	case <-h.j.done:
	default:
		return Result{}, false
	}
	h.j.mu.Lock()
	defer h.j.mu.Unlock()
	return h.j.res, true
}

// Cancel withdraws this handle's interest in the job. The underlying solve
// is cancelled only when every coalesced handle has cancelled (each handle
// holds one vote; Cancel is idempotent per handle).
func (h *Handle) Cancel() {
	h.once.Do(func() {
		h.j.mu.Lock()
		h.j.refs--
		last := h.j.refs == 0 && h.j.st != Done
		h.j.mu.Unlock()
		detail := "vote"
		if last {
			detail = "last-vote"
		}
		h.s.audit(AuditEvent{Client: h.j.client, Action: "cancel", JobID: h.j.id, Detail: detail})
		if last && h.j.cancel != nil {
			h.j.cancel()
		}
	})
}

// Subscribe returns a channel of monotone bound improvements: the current
// best bounds are replayed as the first event (when any exist), every later
// improvement follows, and the channel is closed when the job completes. A
// slow consumer never blocks the solvers — intermediate events conflate,
// keeping only the newest snapshot.
func (h *Handle) Subscribe() <-chan Event {
	ch := make(chan Event, 16)
	h.j.mu.Lock()
	if h.j.best.HasLB || h.j.best.HasUB {
		ch <- h.j.best
	}
	if h.j.st == Done {
		close(ch)
	} else {
		h.j.subs = append(h.j.subs, ch)
	}
	h.j.mu.Unlock()
	return ch
}
