// Sessions: incremental solving over the serving layer.
//
// A session binds a client to a live solver for a *growing* formula: the
// client opens the session with a base instance, pushes deltas (hard
// clauses, soft clauses, reweights, assumptions), and re-solves after each
// delta at delta cost instead of from-scratch cost. The session owns one
// pinned worker-pool slot for its whole lifetime — acquired at open,
// released at close or idle eviction — so a delta solve never queues behind
// one-shot jobs and N sessions can never oversubscribe the machine.
//
// Interchangeability is the design invariant: every session solve is
// journaled, admitted, verified, cached, and certified exactly like a
// one-shot job of the *accumulated* formula (base + all deltas + current
// assumptions as hard units). The verified-result cache and the durable
// store key on the accumulated formula's canonical fingerprint, so a
// session's answer can serve a later one-shot submission of the same
// formula and vice versa, and a session's last certified answer survives a
// restart through the durable store even though sessions themselves are
// ephemeral (a restart forgets open sessions; clients reopen and replay
// deltas, whereupon the first solve of an already-certified accumulation is
// a cache hit — counted in Stats.SessionHits).
//
// The retained (warm) solver path is sound only for monotone growth: adding
// hard clauses or unit-weight soft clauses preserves every core, bound, and
// learnt clause the engine retained (see opt.Incremental). Reweighting can
// lower the optimum — it retires the retained engine for good — and
// assumptions scope a single solve, so an assumption-bearing solve routes
// to the from-scratch path while the retained engine stays valid for later
// assumption-free solves.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
)

// Session errors.
var (
	// ErrSessionClosed: the session was closed by the client, evicted idle,
	// or torn down by server shutdown.
	ErrSessionClosed = errors.New("serve: session is closed")
	// ErrSessionBusy: a delta solve is in flight; Push and Solve are
	// rejected until it completes (the retained solver is single-threaded).
	ErrSessionBusy = errors.New("serve: session has a solve in flight")
	// ErrSessionLimit: Config.MaxSessions sessions are already open.
	ErrSessionLimit = errors.New("serve: session limit reached")
	// ErrSessionsDisabled: Config.MaxSessions is negative.
	ErrSessionsDisabled = errors.New("serve: sessions are disabled")
	// ErrBadDelta: a delta referenced a soft clause that does not exist or
	// carried a non-positive weight.
	ErrBadDelta = errors.New("serve: invalid delta")
)

// Reweight changes the weight of one already-pushed soft clause, addressed
// by its index in soft-clause order (base softs first, then pushed softs in
// arrival order).
type Reweight struct {
	Soft   int
	Weight cnf.Weight
}

// Delta is one batch of session mutations. All of it is applied atomically
// by Push: clause additions extend the accumulated formula, reweights
// adjust it in place, and assumptions replace or extend the session's
// assumption set depending on SetAssumptions.
type Delta struct {
	// Hards are hard clauses to add.
	Hards []cnf.Clause
	// Softs are soft clauses to add (positive weights).
	Softs []cnf.WClause
	// Reweights adjust existing soft clauses. Any reweight permanently
	// retires the session's retained solver (non-monotone).
	Reweights []Reweight
	// Assumptions are literals scoping subsequent solves; they are appended
	// to the active set unless SetAssumptions is true, in which case they
	// replace it (an empty replacement clears all assumptions).
	Assumptions    []cnf.Lit
	SetAssumptions bool
}

// SessionSolveFunc runs one session solve. It is the session analogue of
// SolveFunc: same snapshot/bounds/grant contract, plus the session's
// retained engine — non-nil exactly when the serving layer judged the
// retained path sound for this solve (no assumptions active, engine alive,
// first attempt). The second return reports whether the retained engine
// produced the answer; implementations fall back to a from-scratch run (and
// return false) when retained is nil or its answer is unusable.
type SessionSolveFunc func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, retained opt.Incremental) (opt.Result, bool)

// SessionSpec describes one session at open time.
type SessionSpec struct {
	// Base is the initial formula; nil means start empty. The server clones
	// it, so the caller may reuse its copy.
	Base *cnf.WCNF
	// OptsKey is the canonical identity of the solve options (see
	// JobSpec.OptsKey); it scopes coalescing of the session's delta solves.
	OptsKey string
	// Timeout bounds each delta solve (see JobSpec.Timeout).
	Timeout time.Duration
	// Meta is opaque caller data carried into each solve's Result.Meta.
	Meta any
	// Client is the owning client's identity. The session holds one unit of
	// the client's in-flight quota for its whole lifetime.
	Client string
	// Payload re-describes the solve options durably (see JobSpec.Payload);
	// it journals each delta solve so an admitted solve survives a restart
	// as a replayed one-shot job of the accumulated snapshot.
	Payload []byte
	// Solve runs each delta solve.
	Solve SessionSolveFunc
	// Retained is the session's warm engine, already loaded with Base; nil
	// runs every solve from scratch. The server owns it from here on and
	// Closes it at session teardown.
	Retained opt.Incremental
}

// Session is one open incremental-solving session. All methods are safe for
// concurrent use; mutations and solves are serialized (ErrSessionBusy).
type Session struct {
	s    *Server
	id   uint64
	spec SessionSpec

	mu       sync.Mutex
	acc      *cnf.WCNF // accumulated formula (server-owned)
	softIdx  []int     // acc.Clauses index of each soft, in soft order
	assume   []cnf.Lit
	pendingH []cnf.Clause  // pushed but not yet absorbed by the engine
	pendingS []cnf.WClause //
	retained opt.Incremental
	solving  bool
	cur      *job // the in-flight solve's job (nil while submitting)
	closed   bool
	// pendingClose defers slot/engine teardown to the solve-completion
	// watcher when Close or eviction lands mid-solve (the leased job is
	// still running on the pinned slot).
	pendingClose  bool
	pendingEvict  bool
	idle          *time.Timer
	solves        int64
	reused        int64
	lastAccClause int // acc.Clauses length at last solve (delta sizing for audit)
}

// OpenSession opens a session and pins one worker slot to it. The call
// blocks until a slot is free or ctx is cancelled — on a server whose slots
// are all pinned by other sessions, pass a ctx with a deadline. Admission
// mirrors Submit: the open costs one rate token and holds one unit of the
// client's in-flight quota until the session closes.
func (s *Server) OpenSession(ctx context.Context, spec SessionSpec) (*Session, error) {
	if spec.Solve == nil {
		return nil, ErrBadSpec
	}
	if s.cfg.MaxSessions < 0 {
		return nil, ErrSessionsDisabled
	}
	max := s.cfg.MaxSessions
	if max == 0 {
		max = s.cfg.Workers
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if err := s.chargeRateLocked(spec.Client); err != nil {
		return nil, err
	}
	if err := s.checkQuotaLocked(spec.Client); err != nil {
		return nil, err
	}
	if len(s.sessions) >= max {
		return nil, s.shedLocked(spec.Client, "session-limit", ErrSessionLimit, s.shedRetryAfter())
	}
	s.mu.Unlock()

	// The pinned lease, acquired outside the server lock (it can block).
	if err := s.sem.acquire(ctx, 1); err != nil {
		return nil, err
	}

	sess := &Session{s: s, spec: spec, retained: spec.Retained}
	if spec.Base != nil {
		sess.acc = spec.Base.Clone()
	} else {
		sess.acc = cnf.NewWCNF(0)
	}
	for i, c := range sess.acc.Clauses {
		if !c.Hard() {
			sess.softIdx = append(sess.softIdx, i)
		}
	}

	s.mu.Lock()
	// Re-check under the lock: the world may have changed while the lease
	// acquisition blocked. The re-check is the authoritative one.
	if s.closed {
		s.mu.Unlock()
		s.sem.release(1)
		return nil, ErrClosed
	}
	if len(s.sessions) >= max {
		err := s.shedLocked(spec.Client, "session-limit", ErrSessionLimit, s.shedRetryAfter())
		s.sem.release(1)
		return nil, err
	}
	s.nextID++
	sess.id = s.nextID
	s.sessions[sess.id] = sess
	s.clientLocked(spec.Client).inflight++
	s.stats.SessionsOpened++
	s.stats.SessionsOpen = len(s.sessions)
	s.mu.Unlock()

	// Arm the idle timer under sess.mu: the session is published, so the
	// callback (which locks sess.mu) could otherwise race this write.
	sess.mu.Lock()
	if d := s.sessionIdle(); d > 0 {
		sess.idle = time.AfterFunc(d, sess.idleEvict)
	}
	engine := "none"
	if sess.retained != nil {
		engine = sess.retained.Name()
	}
	sess.mu.Unlock()
	s.audit(AuditEvent{Client: spec.Client, Action: "session-open", JobID: sess.id,
		Detail: fmt.Sprintf("engine=%s base=%d clauses", engine, len(sess.acc.Clauses))})
	return sess, nil
}

// sessionIdle resolves the idle-eviction horizon: 0 means 5 minutes,
// negative disables.
func (s *Server) sessionIdle() time.Duration {
	if s.cfg.SessionIdle < 0 {
		return 0
	}
	if s.cfg.SessionIdle == 0 {
		return 5 * time.Minute
	}
	return s.cfg.SessionIdle
}

// Session returns an open session by ID (the daemon's lookup path).
func (s *Server) Session(id uint64) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// ID returns the server-assigned session ID. Session and job IDs share one
// namespace, so audit lines never collide.
func (sess *Session) ID() uint64 { return sess.id }

// Client returns the owning client's identity.
func (sess *Session) Client() string { return sess.spec.Client }

// Meta returns the opaque caller data the session was opened with (the
// maxsat layer stores the resolved algorithm there).
func (sess *Session) Meta() any { return sess.spec.Meta }

// Counters reports how many delta solves this session has submitted and how
// many of them the retained engine answered.
func (sess *Session) Counters() (solves, reused int64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.solves, sess.reused
}

// touchLocked resets the idle-eviction clock. Caller holds sess.mu.
func (sess *Session) touchLocked() {
	if sess.idle != nil {
		sess.idle.Reset(sess.s.sessionIdle())
	}
}

// busyLocked reports whether a solve is still in flight, reaping a completed
// one inline — so a sequential solve→Wait→Push pattern never observes a
// stale busy flag just because the completion watcher has not run yet.
// Caller holds sess.mu.
func (sess *Session) busyLocked() bool {
	if !sess.solving {
		return false
	}
	if sess.cur == nil {
		return true // submission in progress
	}
	select {
	case <-sess.cur.done:
		sess.completeLocked()
		return false
	default:
		return true
	}
}

// completeLocked finalizes the in-flight solve's session bookkeeping. Caller
// holds sess.mu; sess.cur is non-nil and its done channel is closed. Runs
// exactly once per solve: both callers (busyLocked, watchSolve) check
// sess.cur first and it is nilled here.
func (sess *Session) completeLocked() {
	j := sess.cur
	sess.cur = nil
	sess.solving = false
	sess.touchLocked()
	j.mu.Lock()
	reused := j.res.Reused
	j.mu.Unlock()
	if reused {
		sess.reused++
	}
}

// retireEngineLocked permanently drops the retained engine (non-monotone
// mutation, absorb failure, or poisoning). Caller holds sess.mu; the engine
// is closed outside the solve path, which is idle by the Push/Solve
// serialization. Pending deltas the engine never saw are dropped with it.
func (sess *Session) retireEngineLocked(why string) {
	if sess.retained == nil {
		return
	}
	sess.retained.Close()
	sess.retained = nil
	sess.pendingH, sess.pendingS = nil, nil
	sess.s.audit(AuditEvent{Client: sess.spec.Client, Action: "session-retire",
		JobID: sess.id, Detail: why})
}

// Push applies one delta to the accumulated formula. The delta is validated
// before anything is applied, so a rejected Push leaves the session
// unchanged. Push fails with ErrSessionBusy while a solve is in flight.
func (sess *Session) Push(d Delta) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return ErrSessionClosed
	}
	if sess.busyLocked() {
		return ErrSessionBusy
	}
	for _, c := range d.Softs {
		if c.Weight <= 0 {
			return fmt.Errorf("%w: soft clause weight %d", ErrBadDelta, c.Weight)
		}
	}
	for _, rw := range d.Reweights {
		if rw.Soft < 0 || rw.Soft >= len(sess.softIdx) {
			return fmt.Errorf("%w: reweight of soft %d of %d", ErrBadDelta, rw.Soft, len(sess.softIdx))
		}
		if rw.Weight <= 0 {
			return fmt.Errorf("%w: reweight to %d", ErrBadDelta, rw.Weight)
		}
	}
	sess.touchLocked()

	for _, c := range d.Hards {
		sess.acc.AddHard(c...)
	}
	for _, c := range d.Softs {
		sess.softIdx = append(sess.softIdx, len(sess.acc.Clauses))
		sess.acc.AddSoft(c.Weight, c.Clause...)
	}
	if sess.retained != nil {
		// Buffer for the engine; absorption happens at the next Solve, when
		// the engine is provably idle. Non-unit softs retire the engine (the
		// retained path is unweighted); the clauses themselves stay in acc,
		// so from-scratch solves still see them.
		for _, c := range d.Hards {
			sess.pendingH = append(sess.pendingH, c.Clone())
		}
		nonUnit := false
		for _, c := range d.Softs {
			if c.Weight != 1 {
				nonUnit = true
				break
			}
		}
		if nonUnit {
			sess.retireEngineLocked("weighted soft clause")
		} else {
			for _, c := range d.Softs {
				sess.pendingS = append(sess.pendingS,
					cnf.WClause{Clause: c.Clause.Clone(), Weight: 1})
			}
		}
	}
	if len(d.Reweights) > 0 {
		for _, rw := range d.Reweights {
			sess.acc.Clauses[sess.softIdx[rw.Soft]].Weight = rw.Weight
		}
		// Reweighting can lower the optimum: every bound and core the
		// engine retained may now be wrong. Retired for good.
		sess.retireEngineLocked("reweight")
	}
	if d.SetAssumptions {
		sess.assume = append(sess.assume[:0], d.Assumptions...)
	} else {
		sess.assume = append(sess.assume, d.Assumptions...)
	}
	return nil
}

// Accumulated returns a snapshot of the session's accumulated formula with
// the active assumptions appended as hard unit clauses — exactly the
// formula a solve of the current state answers for. Callers own the copy.
func (sess *Session) Accumulated() *cnf.WCNF {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.snapshotLocked()
}

func (sess *Session) snapshotLocked() *cnf.WCNF {
	snap := sess.acc.Clone()
	for _, a := range sess.assume {
		snap.AddHard(a)
	}
	return snap
}

// Solve submits a delta solve of the accumulated formula. It returns a job
// handle immediately — the solve is admitted, journaled, cached, verified,
// and audited exactly like a one-shot Submit of the accumulated snapshot,
// so its answer is interchangeable with a one-shot answer. A verified cache
// hit is the restart-recovery path working: a reopened session replaying
// deltas finds its pre-crash certified answer without touching a solver. A
// solve may also coalesce onto an identical in-flight job (one-shot or from
// another session); the retained engine sits that solve out but stays
// valid. Only one solve may be in flight per session (ErrSessionBusy).
func (sess *Session) Solve(ctx context.Context) (*Handle, error) {
	s := sess.s
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if sess.busyLocked() {
		sess.mu.Unlock()
		return nil, ErrSessionBusy
	}
	sess.touchLocked()
	// Feed buffered deltas to the engine now: no solve is in flight, so the
	// engine is idle. An absorb failure means the engine poisoned itself —
	// retire it and run from scratch.
	if sess.retained != nil && (len(sess.pendingH) > 0 || len(sess.pendingS) > 0) {
		h, sf := sess.pendingH, sess.pendingS
		sess.pendingH, sess.pendingS = nil, nil
		if !sess.retained.Absorb(h, sf) {
			sess.retireEngineLocked("absorb failed")
		}
	}
	snap := sess.snapshotLocked()
	// The retained path is offered only when it is sound: engine alive and
	// no assumptions scoping this solve. The engine stays valid across an
	// assumption-bearing solve — it just sits this one out.
	retained := sess.retained
	if len(sess.assume) > 0 {
		retained = nil
	}
	grew := len(sess.acc.Clauses) - sess.lastAccClause
	sess.lastAccClause = len(sess.acc.Clauses)
	sess.solving = true
	sess.solves++
	sess.mu.Unlock()

	engine := "scratch"
	if retained != nil {
		engine = retained.Name()
	}
	spec := sess.spec
	reused := new(atomic.Bool)
	h, err := s.admit(admission{
		spec: JobSpec{Formula: snap, OptsKey: spec.OptsKey, Slots: 1, Timeout: spec.Timeout,
			Meta: spec.Meta, Client: spec.Client, Payload: spec.Payload,
			Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
				// Retries run degraded and from scratch: whatever sank the warm
				// attempt (an engine bug included), the rerun must not repeat it.
				r := retained
				if g.Attempt > 0 {
					r = nil
				}
				res, warm := spec.Solve(ctx, w, shared, g, r)
				reused.Store(warm)
				return res
			}},
		origin: inSession,
		detail: fmt.Sprintf("session solve engine=%s delta=%d clauses", engine, grew),
		reused: reused,
	})
	if err != nil {
		sess.mu.Lock()
		sess.solving = false
		sess.mu.Unlock()
		return nil, err
	}
	sess.mu.Lock()
	sess.cur = h.j
	sess.mu.Unlock()
	go sess.watchSolve(h.j)
	return h, nil
}

// watchSolve clears the busy flag when the delta solve completes (unless
// busyLocked already reaped it inline) and finishes a teardown that landed
// mid-solve. When the engine was offered but the fresh path answered (the
// engine returned Unknown, or a retry attempt won), the retained state is
// still sound — it only ever absorbed monotone deltas — so the engine is
// kept until it reports itself broken at an Absorb.
func (sess *Session) watchSolve(j *job) {
	<-j.done
	sess.mu.Lock()
	if sess.cur == j {
		sess.completeLocked()
	}
	teardown := sess.pendingClose
	evict := sess.pendingEvict
	sess.pendingClose, sess.pendingEvict = false, false
	sess.mu.Unlock()
	if teardown {
		sess.s.teardownSession(sess, evict)
	}
}

// Close ends the session: the retained engine is dropped and the pinned
// worker slot and quota unit are returned. A solve in flight keeps running
// to completion (its handle stays valid); teardown completes when it does.
// Close is idempotent.
func (sess *Session) Close() {
	sess.closeInternal(false)
}

// idleEvict is the idle-timer callback.
func (sess *Session) idleEvict() {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return
	}
	if sess.busyLocked() {
		// A solve is in flight — the session is not idle after all (the
		// timer raced the solve). Try again a full horizon later.
		sess.touchLocked()
		sess.mu.Unlock()
		return
	}
	sess.mu.Unlock()
	sess.closeInternal(true)
}

func (sess *Session) closeInternal(evict bool) {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return
	}
	sess.closed = true
	if sess.idle != nil {
		sess.idle.Stop()
	}
	if sess.busyLocked() {
		// The leased job still occupies the pinned slot; the solve watcher
		// finishes the teardown when it completes.
		sess.pendingClose = true
		sess.pendingEvict = evict
		sess.mu.Unlock()
		return
	}
	sess.mu.Unlock()
	sess.s.teardownSession(sess, evict)
}

// teardownSession releases everything a session pins: retained engine,
// worker slot, quota unit, registry entry. Runs exactly once per session
// (guarded by the closed flag in closeInternal / the pendingClose handoff).
func (s *Server) teardownSession(sess *Session, evicted bool) {
	sess.mu.Lock()
	if sess.retained != nil {
		sess.retained.Close()
		sess.retained = nil
	}
	sess.pendingH, sess.pendingS = nil, nil
	sess.mu.Unlock()
	s.sem.release(1)
	s.mu.Lock()
	if _, ok := s.sessions[sess.id]; ok {
		delete(s.sessions, sess.id)
		s.releaseClientLocked(sess.spec.Client)
		if evicted {
			s.stats.SessionsEvicted++
		}
		s.stats.SessionsOpen = len(s.sessions)
	}
	s.mu.Unlock()
	detail := "closed"
	if evicted {
		detail = "idle-evicted"
	}
	s.audit(AuditEvent{Client: sess.spec.Client, Action: "session-close",
		JobID: sess.id, Detail: detail})
}

// shutdownSessions tears down every open session at server Close/Drain.
// It runs after wg.Wait, so no delta solve is in flight — but a solve
// watcher may still hold the teardown baton (pendingClose), in which case
// closeInternal already returned and the watcher finishes the job.
func (s *Server) shutdownSessions() {
	s.mu.Lock()
	list := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		list = append(list, sess)
	}
	s.mu.Unlock()
	for _, sess := range list {
		sess.closeInternal(false)
	}
}
