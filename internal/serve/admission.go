package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/opt"
	"repro/internal/proof"
)

// Admission control: the per-client half of the server's trust boundary.
//
// QueueDepth protects the server globally, but one misbehaving client can
// fill the whole queue and starve everyone else. The admission layer adds
// two per-client bounds on top of it:
//
//   - a token-bucket rate limit (Config.RatePerSec / Config.Burst) on
//     submissions, counted per client whatever their disposition — fresh
//     run, cache hit, or coalesce — so even cheap resubmissions cannot be
//     used to hammer the server;
//   - an in-flight quota (Config.ClientQuota) on jobs a client has queued
//     or running. Cache hits and coalesced attaches do not count: they
//     occupy no worker slots.
//
// A shed submission fails with a *ShedError wrapping ErrRateLimited,
// ErrOverQuota, or ErrQueueFull and carrying the delay after which a retry
// can succeed; the HTTP daemon surfaces it as 429 + Retry-After. Every
// admission decision, cancellation, and completion is reported to the
// Config.Audit hook when one is installed.

// Shed reasons returned (wrapped in *ShedError) by Submit.
var (
	// ErrRateLimited: the client exceeded its sustained submission rate.
	ErrRateLimited = errors.New("serve: client rate limit exceeded")
	// ErrOverQuota: the client has too many jobs queued or running.
	ErrOverQuota = errors.New("serve: client in-flight quota exceeded")
)

// ShedError is an admission rejection: the wrapped reason (ErrQueueFull,
// ErrRateLimited, or ErrOverQuota — match with errors.Is) plus the delay
// after which a retry has a chance of being admitted.
type ShedError struct {
	Reason     error
	RetryAfter time.Duration
}

// Error returns the wrapped reason's message.
func (e *ShedError) Error() string { return e.Reason.Error() }

// Unwrap exposes the reason to errors.Is / errors.As.
func (e *ShedError) Unwrap() error { return e.Reason }

// RetryAfter extracts the retry hint from a Submit error; ok is false when
// the error carries none (ErrClosed, ErrBadSpec).
func RetryAfter(err error) (time.Duration, bool) {
	var se *ShedError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	return 0, false
}

// AuditEvent is one entry of the admission audit log: who asked for what and
// how the server disposed of it.
type AuditEvent struct {
	// Time is when the decision was made.
	Time time.Time
	// Client is the submitting client's identity (JobSpec.Client; empty when
	// the caller supplied none).
	Client string
	// Action is "submit" (admitted), "shed" (refused), "cancel" (a handle
	// withdrew its vote), or "result" (job completed).
	Action string
	// JobID identifies the job for admitted submissions and results; 0 for
	// sheds (no job was created).
	JobID uint64
	// Detail qualifies the action: the disposition of a submit ("run",
	// "cache-hit", "coalesced", with "degraded" appended when overload
	// shrank the slot grant), the reason of a shed, or the status line of a
	// result.
	Detail string
}

// clientState is one client's admission bookkeeping: the token bucket and
// the in-flight job count. Server.mu guards it.
type clientState struct {
	tokens   float64   // current bucket level
	last     time.Time // last refill instant
	inflight int       // jobs queued or running on this client's account
}

// client returns (creating on demand) the state for name. Caller holds s.mu.
func (s *Server) clientLocked(name string) *clientState {
	c, ok := s.clients[name]
	if !ok {
		c = &clientState{tokens: s.burst(), last: s.now()}
		s.clients[name] = c
	}
	return c
}

// burst returns the effective token-bucket capacity.
func (s *Server) burst() float64 {
	if s.cfg.Burst > 0 {
		return float64(s.cfg.Burst)
	}
	b := 2 * s.cfg.RatePerSec
	if b < 1 {
		b = 1
	}
	return b
}

// chargeRateLocked refills name's bucket to now and consumes one token; rate
// limiting off charges nothing. An empty bucket sheds the submission with
// the delay until the next token: the shed is counted and audited, and
// s.mu is released. Caller holds s.mu.
func (s *Server) chargeRateLocked(name string) error {
	if s.cfg.RatePerSec <= 0 {
		return nil
	}
	c := s.clientLocked(name)
	now := s.now()
	c.tokens = min(s.burst(), c.tokens+now.Sub(c.last).Seconds()*s.cfg.RatePerSec)
	c.last = now
	if c.tokens < 1 {
		s.stats.RateLimited++
		wait := time.Duration((1 - c.tokens) / s.cfg.RatePerSec * float64(time.Second))
		return s.shedLocked(name, "rate-limited", ErrRateLimited, wait)
	}
	c.tokens--
	return nil
}

// checkQuotaLocked sheds a submission from a client that already holds
// Config.ClientQuota in-flight units: the shed is counted and audited, and
// s.mu is released. Caller holds s.mu.
func (s *Server) checkQuotaLocked(name string) error {
	if c, ok := s.clients[name]; ok && s.cfg.ClientQuota > 0 && c.inflight >= s.cfg.ClientQuota {
		s.stats.QuotaDenied++
		return s.shedLocked(name, "over-quota", ErrOverQuota, s.shedRetryAfter())
	}
	return nil
}

// shedLocked refuses a submission: it releases s.mu (held by the caller),
// audits the refusal, and returns it with its retry hint.
func (s *Server) shedLocked(name, detail string, reason error, retry time.Duration) error {
	s.mu.Unlock()
	s.audit(AuditEvent{Client: name, Action: "shed", Detail: detail})
	return &ShedError{Reason: reason, RetryAfter: retry}
}

// releaseClientLocked returns one in-flight unit to name's account and drops
// the entry once it holds no state worth keeping (no in-flight jobs and a
// bucket that would refill to full anyway), so the client map cannot grow
// without bound under churning client identities. Caller holds s.mu.
func (s *Server) releaseClientLocked(name string) {
	c, ok := s.clients[name]
	if !ok {
		return
	}
	if c.inflight > 0 {
		c.inflight--
	}
	if c.inflight == 0 {
		refilled := c.tokens + s.now().Sub(c.last).Seconds()*s.cfg.RatePerSec
		if s.cfg.RatePerSec <= 0 || refilled >= s.burst() {
			delete(s.clients, name)
		}
	}
}

// audit delivers e to the audit hook. Never called with s.mu held: the hook
// is caller code and may call back into Stats or Submit.
func (s *Server) audit(e AuditEvent) {
	if s.cfg.Audit == nil {
		return
	}
	e.Time = s.now()
	s.cfg.Audit(e)
}

// shedRetryAfter is the retry hint for queue-full and over-quota sheds: the
// delay is governed by how long the jobs ahead will run, which the default
// timeout approximates when one is configured.
func (s *Server) shedRetryAfter() time.Duration {
	if d := s.cfg.DefaultTimeout / 4; d > time.Second {
		if d > time.Minute {
			return time.Minute
		}
		return d
	}
	return time.Second
}

// origin is where a submission enters admit. It decides only the rows of
// the origin table in ARCHITECTURE.md ("Admission"); the rest of admission
// is the same for all three.
type origin int8

const (
	oneShot   origin = iota // Submit
	inSession               // Session.Solve: a leased job on the session's pinned slot
	replay                  // Recover: a journaled job that keeps its pre-crash ID
)

// originAudit is each origin's audit action, and its details for a verified
// cache hit and for a coalesce.
var originAudit = [...]struct{ action, hit, coalesced string }{
	oneShot:   {"submit", "cache-hit", "coalesced"},
	inSession: {"submit", "session cache-hit", "session coalesced"},
	replay:    {"recover", "completed from recovered store", "coalesced onto running replay"},
}

// admission is one submission on its way into admit.
type admission struct {
	spec   JobSpec
	origin origin
	// id is the journaled job ID a replay keeps.
	id uint64
	// detail is the audit detail of a fresh session or replay run; admit
	// writes a one-shot job's from its slot grant.
	detail string
	// reused, for a session solve, is set by spec.Solve when the session's
	// retained engine answered.
	reused *atomic.Bool
}

// admit is the one admission routine behind Submit, Session.Solve and
// Recover; Submit documents its dispositions. Recover drops the handles it
// gets back: a replay owns no cancellation vote, so nothing may Cancel
// through them.
func (s *Server) admit(a admission) (*Handle, error) {
	spec := a.spec
	if spec.Formula == nil || spec.Solve == nil {
		return nil, ErrBadSpec
	}
	au := originAudit[a.origin]
	fkey := keyFor(spec.Formula)
	key := jobKey{formulaKey: fkey, opts: spec.OptsKey}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if a.origin == replay {
		s.nextID = max(s.nextID, a.id)
		if j, ok := s.jobs[a.id]; ok {
			// The ID is already registered (a double replay): hand back the
			// existing job.
			s.mu.Unlock()
			return &Handle{s: s, j: j}, nil
		}
	} else {
		s.stats.Submitted++
		if a.origin == inSession {
			s.stats.SessionSolves++
		}
		// Rate limit before anything else — even a cache hit costs a token,
		// so a client hammering the server with resubmissions of a solved
		// formula is still throttled. A replay is exempt: the previous life
		// admitted it.
		if err := s.chargeRateLocked(spec.Client); err != nil {
			return nil, err
		}
	}
	// newIDLocked numbers a job the admission creates: a replay keeps the ID
	// its client already holds.
	newIDLocked := func() uint64 {
		if a.origin == replay {
			return a.id
		}
		s.nextID++
		return s.nextID
	}

	// Cache next: a verified verdict answers any submission of the formula.
	if res, meta, ok := s.cache.get(fkey); ok {
		// Defeat fingerprint collisions and storage corruption: a cached
		// model must verify against the formula actually submitted, and a
		// cached certificate must re-validate end to end with the
		// independent proof checker — the stored bytes, not the solve that
		// produced them, are what the hit serves. Both checks run outside
		// the server lock (the entry is already a private copy; lru.get
		// copies the model and certificate).
		s.mu.Unlock()
		modelOK := res.Model == nil || opt.VerifyModel(spec.Formula, res)
		certOK := !modelOK || len(res.Certificate) == 0 ||
			proof.CheckBytes(spec.Formula, res.Certificate) == nil
		if !certOK {
			s.audit(AuditEvent{Client: spec.Client, Action: "cache", Detail: "certificate-rejected"})
		}
		s.mu.Lock()
		if modelOK && certOK {
			s.stats.CacheHits++
			if a.origin == inSession {
				s.stats.SessionHits++
			}
			h := s.doneJobLocked(newIDLocked(), key, Result{Result: res, Meta: meta, Cached: true})
			s.mu.Unlock()
			if a.origin == replay {
				s.cfg.Journal.markDone(h.j.id)
			}
			s.audit(AuditEvent{Client: spec.Client, Action: au.action, JobID: h.j.id, Detail: au.hit})
			return h, nil
		}
		if !certOK {
			// A corrupt certificate is a property of the stored entry, not
			// of a colliding submission: evict it so it is never served or
			// re-consulted, and fall through to a fresh solve.
			s.cache.remove(fkey)
			s.stats.CertRejected++
		}
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
	}
	s.stats.CacheMisses++

	// Coalesce onto an identical in-flight job. A one-shot or session
	// submission attaches with a cancellation vote of its own; a replay
	// registers its journaled ID as an alias of the running job, so every
	// ID a client holds addresses the one run.
	if j, ok := s.inflight[key]; ok {
		id := j.id
		if a.origin == replay {
			id = a.id
			j.aliases = append(j.aliases, id)
			s.jobs[id] = j
			s.stats.Replayed++
		} else {
			j.mu.Lock()
			j.refs++
			j.mu.Unlock()
		}
		s.stats.Coalesced++
		s.mu.Unlock()
		s.audit(AuditEvent{Client: spec.Client, Action: au.action, JobID: id, Detail: au.coalesced})
		return &Handle{s: s, j: j}, nil
	}

	slots := min(max(spec.Slots, 1), s.cfg.Workers)
	detail := a.detail
	if a.origin == oneShot {
		// Only submissions that will occupy workers count against the
		// per-client in-flight quota (cache hits and coalesces above occupy
		// none). A session solve runs on its session's pinned slot under the
		// session's quota unit, and a replay was admitted by the previous
		// life, so neither meets the quota, queue or degradation bounds.
		if err := s.checkQuotaLocked(spec.Client); err != nil {
			return nil, err
		}
		if s.cfg.QueueDepth > 0 && s.queued+s.running >= s.cfg.QueueDepth {
			return nil, s.shedLocked(spec.Client, "queue-full", ErrQueueFull, s.shedRetryAfter())
		}
		var degraded bool
		slots, degraded = s.degradeLocked(slots)
		detail = fmt.Sprintf("run slots=%d", slots)
		if degraded {
			detail += " degraded"
		}
		s.clientLocked(spec.Client).inflight++
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:      newIDLocked(),
		key:     key,
		spec:    spec,
		slots:   slots,
		charged: a.origin == oneShot,
		bounds:  opt.NewBounds(),
		cancel:  cancel,
		journal: a.origin == replay,
		leased:  a.origin == inSession,
		reused:  a.reused,
		refs:    1,
		done:    make(chan struct{}),
	}
	j.bounds.SetObserver(j.emit)
	s.inflight[key] = j
	s.jobs[j.id] = j
	s.queued++
	if a.origin == replay {
		s.stats.Replayed++
	}
	s.wg.Add(1)
	s.mu.Unlock()
	s.audit(AuditEvent{Client: spec.Client, Action: au.action, JobID: j.id, Detail: detail})

	// The formula snapshot is O(formula), so it is taken outside the server
	// lock. Safe unpublished: only the run goroutine (started below, so the
	// write happens-before its reads) ever touches j.w — coalesced handles
	// and pollers never do. A session solve's formula already is the
	// session's private snapshot, so it is not copied again.
	j.w = spec.Formula
	if !j.leased {
		j.w = spec.Formula.Clone()
	}

	// Journal the submission (fsynced) before the job can produce any
	// observable progress: once the caller has the job ID in hand, a crash
	// must not forget the job. A journal write failure is audited but does
	// not fail the submission — availability over durability for the job
	// record itself (results have their own, stricter path). A session
	// solve journals its accumulated snapshot, which a crash replays as a
	// one-shot job under the same ID; a replay is journaled already.
	if a.origin != replay && s.cfg.Journal != nil && len(spec.Payload) > 0 {
		if err := s.cfg.Journal.record(j.id, j.w, spec); err != nil {
			s.audit(AuditEvent{Client: spec.Client, Action: "journal", JobID: j.id,
				Detail: "append failed: " + err.Error()})
		} else {
			j.journal = true
		}
	}
	go s.run(ctx, j)
	return &Handle{s: s, j: j}, nil
}
