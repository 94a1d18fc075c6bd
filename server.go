package maxsat

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/portfolio"
	"repro/internal/serve"
)

// Server is the embeddable solving service: a bounded worker pool with
// per-job deadlines and cancellation, deduplication of identical in-flight
// submissions, a verified-result cache keyed by a canonical formula
// fingerprint, and anytime bound streaming. cmd/maxsatd exposes the same
// service over HTTP.
//
// Submit admits a job and returns immediately with a *Job handle; Wait
// blocks for the result, Updates streams bound improvements while the solve
// runs, Cancel withdraws the submission. A resubmission of a formula whose
// optimum the server has already proved — under any options — is answered
// from the cache without solving (observable in Stats); an identical
// submission arriving while the first is still in flight attaches to the
// running job instead of duplicating the work.
//
// Worker accounting: a sequential job occupies one worker slot; an
// AlgoPortfolio job occupies one slot per racing member (Options.Parallelism,
// or the full line-up size), clamped to the pool budget — the portfolio then
// races exactly the members it was granted, so concurrent portfolio jobs
// cannot oversubscribe the machine.
type Server struct {
	s *serve.Server
}

// ServerConfig configures a Server. It is serve.Config, which documents
// each field; the zero value gives a single-worker pool with a 256-entry
// cache, no default deadline and no durability (see DataDir).
type ServerConfig = serve.Config

// AuditEvent is one entry of the server's admission audit log.
type AuditEvent = serve.AuditEvent

// Server admission errors.
var (
	// ErrServerClosed is returned by Submit after Close (or during Drain).
	ErrServerClosed = serve.ErrClosed
	// ErrServerQueueFull is returned by Submit when ServerConfig.QueueDepth
	// jobs are already admitted and unfinished. Match with errors.Is: the
	// returned error wraps it together with a retry hint (see RetryAfter).
	ErrServerQueueFull = serve.ErrQueueFull
	// ErrServerRateLimited is returned (wrapped, with a retry hint) when a
	// client exceeds ServerConfig.RatePerSec.
	ErrServerRateLimited = serve.ErrRateLimited
	// ErrServerOverQuota is returned (wrapped, with a retry hint) when a
	// client exceeds ServerConfig.ClientQuota.
	ErrServerOverQuota = serve.ErrOverQuota
)

// RetryAfter extracts the retry hint from a shed Submit error (queue full,
// rate limited, over quota); ok is false for errors that carry none.
func RetryAfter(err error) (time.Duration, bool) { return serve.RetryAfter(err) }

// BoundUpdate is one anytime bound improvement streamed by Job.Updates: the
// best proved lower bound and best known upper bound so far. For a job that
// ends Optimal the final update has LB == UB == the optimum.
type BoundUpdate = opt.BoundsEvent

// JobState is a job's lifecycle phase: JobQueued, JobRunning or JobDone.
type JobState = serve.State

// Job states.
const (
	JobQueued  JobState = serve.Queued
	JobRunning JobState = serve.Running
	JobDone    JobState = serve.Done
)

// NewServer starts a solving service. Close it to cancel outstanding jobs
// and release its workers. NewServer panics if cfg.DataDir is set and its
// logs cannot be opened — durable servers should prefer OpenServer, which
// reports the error instead.
func NewServer(cfg ServerConfig) *Server {
	s, err := OpenServer(cfg)
	if err != nil {
		panic(fmt.Sprintf("maxsat: NewServer: %v", err))
	}
	return s
}

// OpenServer starts a solving service, opening the durable result store and
// job journal when cfg.DataDir is set. Recovery of persisted results happens
// here (each re-proved by the certificate checker before admission to the
// cache); replay of interrupted jobs is a separate, explicit step — call
// Recover once the server is otherwise ready.
func OpenServer(cfg ServerConfig) (*Server, error) {
	s, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// Job is a handle on one submission. Handles returned for coalesced
// submissions share the underlying work but cancel independently: the solve
// stops only when every handle has cancelled.
type Job struct {
	h    *serve.Handle
	algo Algorithm
}

// Submit admits w for solving under o and returns immediately. The formula
// is snapshotted at submission, so the caller may mutate w afterwards.
// Options.Timeout bounds the solve from the moment it starts running (queue
// time does not count); ServerConfig.DefaultTimeout applies when it is zero.
// Submit fails fast on the errors Solve would return (unknown algorithm,
// ErrWeighted) and on a full queue or closed server. Submissions shed by the
// admission bounds (queue full, rate limited, over quota) fail with an error
// wrapping the matching sentinel and carrying a RetryAfter hint.
func (s *Server) Submit(w *WCNF, o Options) (*Job, error) {
	return s.SubmitAs("", w, o)
}

// SubmitAs is Submit on a named client's account: the per-client rate limit
// and in-flight quota are charged to client, and audit events carry it. The
// empty name is the shared anonymous account that plain Submit uses.
func (s *Server) SubmitAs(client string, w *WCNF, o Options) (*Job, error) {
	spec, algo, err := s.jobSpec(client, w, o)
	if err != nil {
		return nil, err
	}
	h, err := s.s.Submit(spec)
	if err != nil {
		return nil, err
	}
	return &Job{h: h, algo: algo}, nil
}

// jobSpec validates and canonicalizes one submission into the serving
// layer's JobSpec. Shared by SubmitAs and Recover, so a replayed job gets
// byte-identical admission treatment (same OptsKey, same slots, same solve
// closure) as its original submission.
func (s *Server) jobSpec(client string, w *WCNF, o Options) (serve.JobSpec, Algorithm, error) {
	spec, o, err := s.canonical(client, w, o)
	if err != nil {
		return spec, o.Algorithm, err
	}
	spec.Formula = w
	spec.Solve = func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g serve.Grant) opt.Result {
		return solveFresh(ctx, w, shared, attemptOptions(o, g))
	}
	return spec, o.Algorithm, nil
}

// canonical validates o against w exactly like Solve would and returns it
// in the canonical form the serving layer keys on, together with the
// JobSpec fields that follow from it (all but the formula and the solve
// closure). Shared by one-shot jobs, replayed jobs and sessions.
func (s *Server) canonical(client string, w *WCNF, o Options) (serve.JobSpec, Options, error) {
	// Resolve AlgoAuto so that an explicit and an automatic submission of
	// the same instance coalesce.
	_, algo, err := buildSolver(w, o)
	if err != nil {
		return serve.JobSpec{}, o, err
	}
	o.Algorithm = algo
	spec := serve.JobSpec{Slots: 1, Timeout: o.Timeout, Meta: string(algo), Client: client}
	if algo == AlgoPortfolio {
		if o.Parallelism <= 0 {
			// Canonicalize for coalescing, like AlgoAuto above: Parallelism 0
			// and an explicit full-line-up request describe identical work.
			o.Parallelism = portfolio.LineupSize(w.Weighted())
		}
		spec.Slots = o.Parallelism
	}
	// The JSON of the canonical options, timeout included, is the key that
	// in-flight coalescing matches on and the payload a durable server
	// journals, from which Recover rebuilds the job: every field that
	// changes what the job computes or how long it may run participates.
	// Marshal cannot fail on Options' tagged fields, which are all numbers,
	// strings and booleans.
	key, _ := json.Marshal(o)
	spec.OptsKey = string(key)
	o.Timeout = 0 // the serving layer owns the deadline
	return spec, o, nil
}

// attemptOptions is o as attempt g of a served solve runs it: a portfolio
// races exactly the members it was granted, and a server-side retry of a
// transient failure runs degraded — whatever sank the previous attempt
// (memory pressure, a racing member's bug), the rerun gets a smaller
// target. Solo line-up, memory budget halved per extra attempt.
func attemptOptions(o Options, g serve.Grant) Options {
	if o.Algorithm == AlgoPortfolio {
		o.Parallelism = g.Slots
	}
	if g.Attempt > 0 {
		o.Parallelism = 1
		if o.MemoryBudget > 0 {
			o.MemoryBudget >>= g.Attempt
		}
	}
	return o
}

// solveFresh is a served from-scratch solve of w under one attempt's
// options, certified when they ask for it.
func solveFresh(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, o Options) opt.Result {
	solver, _, err := buildSolver(w, o)
	if err != nil {
		// Unreachable for one-shot jobs: the spec was validated on the same
		// formula and options. A session reaches it only when deltas made
		// the accumulation weighted under a unit-weight-only algorithm,
		// which Session.Push rejects first.
		return opt.Result{Status: opt.StatusUnknown, Cost: -1}
	}
	return certifyServed(ctx, w, solver.Solve(ctx, w, shared), o)
}

// certifyServed attaches a certificate to a proved verdict when o asks for
// one. Best effort under the job's own deadline: a solve that finishes but
// cannot be certified (deadline expired mid-pass) is served uncertified
// rather than discarded — the certificate endpoint then reports none. The
// certificate's proof hints ride along for the durable store; the serving
// layer drops them before it publishes the result.
func certifyServed(ctx context.Context, w *cnf.WCNF, r opt.Result, o Options) opt.Result {
	if o.Certify && (r.Status == opt.StatusOptimal || r.Status == opt.StatusUnsat) {
		if cert, hints, err := opt.CertifyHinted(ctx, w, r, opt.Options{MemBytes: o.MemoryBudget}); err == nil {
			r.Certificate, r.Hints = cert, hints
		}
	}
	return r
}

// Recover replays the jobs a previous life journaled but never finished
// (requires ServerConfig.DataDir; a no-op otherwise). Each pending
// submission is re-enqueued under its original job ID, so clients polling
// Job(id) across the restart find their work finished or running, never
// gone. Replay is idempotent: a job whose certified answer is already in the
// recovered result store completes instantly without solving, and duplicate
// pending entries for the same formula coalesce onto one run. Entries whose
// journaled options no longer decode (a format from a different binary
// version) are dropped with an audit event rather than blocking recovery.
//
// Call Recover once, after OpenServer and before reporting readiness.
// It returns when every pending job is re-enqueued, not when they finish.
func (s *Server) Recover() error {
	return s.s.Recover(func(rj serve.RecoveredJob) (serve.JobSpec, error) {
		var o Options
		if err := json.Unmarshal(rj.Payload, &o); err != nil {
			return serve.JobSpec{}, fmt.Errorf("maxsat: recovered options: %w", err)
		}
		spec, _, err := s.jobSpec(rj.Client, rj.Formula, o)
		return spec, err
	})
}

// Job returns the handle for a previously submitted job by ID. A completed
// job stays addressable, with its result, model and certificate, until it is
// no longer among the last 1,024 finished jobs. The returned handle carries
// no cancellation vote.
func (s *Server) Job(id uint64) (*Job, bool) {
	h, ok := s.s.Job(id)
	if !ok {
		return nil, false
	}
	return &Job{h: h}, true
}

// ServerStats is a snapshot of the service counters: worker occupancy, queue
// depth, submission/completion totals, and cache hit/miss/coalesce traffic.
type ServerStats = serve.Stats

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() ServerStats { return s.s.Stats() }

// Close cancels every queued and running job and waits for their goroutines
// to exit, then closes the durable logs (if any). Outstanding handles remain
// usable (their jobs complete with Status Unknown); subsequent Submits fail.
// Jobs cancelled by Close keep their journal entries: the next life's
// Recover replays them.
func (s *Server) Close() { s.s.Close() }

// Drain shuts down gracefully: admissions stop immediately (Submit fails
// with ErrServerClosed, ServerStats.Draining turns true) while queued and
// running jobs run to completion and deliver real results to their handles
// and Updates subscribers. When ctx expires first, the remaining jobs are
// cancelled Close-style — they still complete, with their best bounds — and
// Drain returns ctx's error after every worker has unwound. A nil error
// means every job finished within the deadline. Either way Drain closes the
// durable logs (if any) last, as Close does.
func (s *Server) Drain(ctx context.Context) error { return s.s.Drain(ctx) }

// ID returns the server-assigned job ID (stable across polls, used by the
// HTTP daemon's /jobs/{id} endpoint).
func (j *Job) ID() uint64 { return j.h.ID() }

// Done returns a channel closed when the job completes.
func (j *Job) Done() <-chan struct{} { return j.h.Done() }

// State returns the job's phase and its best-seen bounds so far.
func (j *Job) State() (JobState, BoundUpdate) { return j.h.State() }

// Wait blocks until the job completes or ctx is cancelled. A ctx error
// abandons only this Wait — the job keeps running; use Cancel to withdraw
// the submission itself.
func (j *Job) Wait(ctx context.Context) (Result, error) {
	r, err := j.h.Wait(ctx)
	if err != nil {
		return Result{}, err
	}
	return j.publicResult(r), nil
}

// Result returns the outcome if the job has already completed.
func (j *Job) Result() (Result, bool) {
	r, done := j.h.Result()
	if !done {
		return Result{}, false
	}
	return j.publicResult(r), true
}

func (j *Job) publicResult(r serve.Result) Result {
	// Meta names the algorithm that proved the result, also for a cache hit;
	// it is empty only on a record that an older binary stored.
	algo := j.algo
	if r.Meta != "" {
		algo = Algorithm(r.Meta)
	}
	if r.Err != nil {
		return Result{Status: Unknown, Cost: -1, Algorithm: algo}
	}
	out := fromInternal(r.Result, algo)
	out.Cached = r.Cached
	out.Reused = r.Reused
	return out
}

// Cancel withdraws this handle's interest in the job; the underlying solve
// is cancelled once every coalesced handle has cancelled. The job still
// completes (with the best bounds proved so far) and Wait still returns.
func (j *Job) Cancel() { j.h.Cancel() }

// Updates returns a stream of anytime bound improvements: the best bounds so
// far are replayed as the first update, every later improvement follows, and
// the channel closes when the job completes. The stream is monotone (LB
// never falls, UB never rises) and conflates under a slow reader — only
// intermediate updates are dropped, never the most recent one.
func (j *Job) Updates() <-chan BoundUpdate { return j.h.Subscribe() }
