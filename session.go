package maxsat

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/serve"
)

// Session is an incremental solving session on a Server: open it with a base
// formula, push deltas (hard clauses, soft clauses, reweights, assumptions),
// and re-solve after each delta at delta cost. A session pins one worker
// slot for its lifetime and keeps a warm solver — learnt clauses, selector
// state, cardinality encodings — across solves, so each re-solve of a grown
// formula resumes where the previous one stopped instead of starting over.
//
// Answers are interchangeable with one-shot answers: every session solve is
// admitted, journaled, verified, cached, and (under Options.Certify)
// certified exactly like a Submit of the accumulated formula — base, plus
// every pushed delta, plus the active assumptions as hard unit clauses. The
// verified-result cache keys on that accumulated formula's fingerprint, so
// a session answer can serve a later one-shot submission of the same
// formula and vice versa.
//
// The warm path is used only when it is sound. Adding hard clauses or
// unit-weight soft clauses is monotone — every retained bound and core
// stays valid — so those re-solves run warm. Reweighting can lower the
// optimum: the first Reweight retires the warm solver for good, and the
// session keeps working through from-scratch solves. A solve with active
// assumptions runs from scratch too (assumptions scope one solve, not the
// retained state), but the warm solver survives it and serves later
// assumption-free solves. Weighted sessions (a weighted base, or a pushed
// soft clause with weight ≠ 1) run every solve from scratch.
//
// Sessions are ephemeral: a server restart forgets open sessions (the
// client sees ErrSessionClosed-equivalent connection errors and reopens),
// but every *certified* answer a session produced survives via the durable
// result store — the reopened session's first solve of an already-certified
// accumulation is a cache hit, observable in ServerStats.SessionHits.
//
// Push and Solve are serialized per session: while a solve is in flight,
// both fail with ErrSessionBusy (wait on the returned Job first). A session
// idle past ServerConfig.SessionIdle is evicted, releasing its slot.
type Session struct {
	s    *serve.Session
	algo Algorithm
}

// Delta is one batch of session mutations (see Session.Push).
type Delta = serve.Delta

// SessionReweight re-weights one already-pushed soft clause, addressed by
// its index in soft-clause order.
type SessionReweight = serve.Reweight

// Session errors.
var (
	// ErrSessionClosed: the session was closed, idle-evicted, or torn down
	// by server shutdown.
	ErrSessionClosed = serve.ErrSessionClosed
	// ErrSessionBusy: a solve is in flight; Push and Solve wait their turn.
	ErrSessionBusy = serve.ErrSessionBusy
	// ErrSessionLimit: ServerConfig.MaxSessions sessions are already open
	// (wrapped with a retry hint — see RetryAfter).
	ErrSessionLimit = serve.ErrSessionLimit
	// ErrSessionsDisabled: ServerConfig.MaxSessions is negative.
	ErrSessionsDisabled = serve.ErrSessionsDisabled
	// ErrBadDelta: a delta referenced a nonexistent soft clause or a
	// non-positive weight.
	ErrBadDelta = serve.ErrBadDelta
)

// OpenSession opens an anonymous-account session (see OpenSessionAs).
func (s *Server) OpenSession(ctx context.Context, base *WCNF, o Options) (*Session, error) {
	return s.OpenSessionAs(ctx, "", base, o)
}

// OpenSessionAs opens a session on client's account with the given base
// formula (nil means start empty) and solve options. The options are fixed
// for the session's lifetime and validated here exactly like Submit — in
// particular, a unit-weight-only algorithm (msu1/2/3, msu4-v2) rejects a
// weighted base with ErrWeighted, and AlgoAuto resolves against the base,
// so a session that will receive weighted deltas should pick a
// weighted-capable algorithm explicitly. The call blocks until a worker
// slot is free to pin (pass a ctx with a deadline on a busy server); it
// holds one rate token and one unit of the client's in-flight quota for the
// session's lifetime. An unweighted session solves warm on core.Inc, the
// engine a one-shot msu3 solve runs once, so its first solve is the one-shot
// msu3 search. The session copies base, so the caller may reuse it once the
// call returns.
func (s *Server) OpenSessionAs(ctx context.Context, client string, base *WCNF, o Options) (*Session, error) {
	if base == nil {
		base = cnf.NewWCNF(0)
	}
	if o.Algorithm == AlgoPortfolio {
		// Every session solve races one member on the session's one pinned
		// slot, so its key must say so: a full line-up key would let a
		// one-shot full-portfolio submission coalesce onto a one-member run.
		o.Parallelism = 1
	}
	spec, o, err := s.canonical(client, base, o)
	if err != nil {
		return nil, err
	}
	// The warm engine handles unweighted accumulations for every algorithm:
	// it is the msu3 engine, whose optimum (the thing sessions answer with)
	// is algorithm-independent. Weighted bases run every solve from scratch.
	var retained opt.Incremental
	if !base.Weighted() {
		retained = core.NewInc(opt.Options{MemBytes: o.MemoryBudget}, base)
	}
	ss, err := s.s.OpenSession(ctx, serve.SessionSpec{
		Base:     base,
		OptsKey:  spec.OptsKey,
		Timeout:  spec.Timeout,
		Meta:     spec.Meta,
		Client:   client,
		Solve:    sessionSolve(o),
		Retained: retained,
	})
	if err != nil {
		if retained != nil {
			retained.Close()
		}
		return nil, err
	}
	return &Session{s: ss, algo: o.Algorithm}, nil
}

// sessionSolve builds the session's solve closure: warm path first when the
// serving layer offers the retained engine (which has absorbed every pushed
// delta, and is never offered to a retry), from-scratch fallback otherwise
// — with the same degraded-retry profile and certification post-pass as
// one-shot jobs, so session results are bit-for-bit interchangeable.
func sessionSolve(o Options) serve.SessionSolveFunc {
	return func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g serve.Grant, retained opt.Incremental) (opt.Result, bool) {
		ro := attemptOptions(o, g)
		if retained != nil {
			r := retained.SolveDelta(ctx, w, shared)
			if r.Status == opt.StatusOptimal || r.Status == opt.StatusUnsat || ctx.Err() != nil {
				return certifyServed(ctx, w, r, ro), true
			}
			// The engine answered Unknown while the solve is still wanted
			// (it poisoned itself, or exhausted its memory budget): fall
			// through to a from-scratch run of the same snapshot.
		}
		return solveFresh(ctx, w, shared, ro), false
	}
}

// Session returns an open session by ID (the HTTP daemon's lookup path).
func (s *Server) Session(id uint64) (*Session, bool) {
	ss, ok := s.s.Session(id)
	if !ok {
		return nil, false
	}
	return &Session{s: ss, algo: Algorithm(ss.Meta())}, true
}

// ID returns the server-assigned session ID.
func (sess *Session) ID() uint64 { return sess.s.ID() }

// Client returns the owning client's identity.
func (sess *Session) Client() string { return sess.s.Client() }

// Push applies one delta atomically: clause additions, reweights, and the
// assumption update all land, or (on a validation error) none do. Fails
// with ErrSessionBusy while a solve is in flight and with ErrWeighted when
// a weighted soft clause or reweight reaches a unit-weight-only algorithm.
func (sess *Session) Push(d Delta) error {
	if algoRequiresUnitWeights(sess.algo) {
		for _, c := range d.Softs {
			if c.Weight != 1 {
				return ErrWeighted
			}
		}
		for _, rw := range d.Reweights {
			if rw.Weight != 1 {
				return ErrWeighted
			}
		}
	}
	return sess.s.Push(d)
}

// AddHard pushes one hard clause.
func (sess *Session) AddHard(lits ...Lit) error {
	return sess.Push(Delta{Hards: []Clause{Clause(lits)}})
}

// AddSoft pushes one soft clause of the given weight.
func (sess *Session) AddSoft(w Weight, lits ...Lit) error {
	return sess.Push(Delta{Softs: []cnf.WClause{{Clause: Clause(lits), Weight: w}}})
}

// Assume replaces the session's assumption set (no literals clears it).
// Assumptions scope every subsequent Solve: they join the accumulated
// formula as hard unit clauses for that solve's snapshot.
func (sess *Session) Assume(lits ...Lit) error {
	return sess.Push(Delta{Assumptions: lits, SetAssumptions: true})
}

// Reweight changes the weight of the soft-th pushed soft clause (0-based,
// in push order, base softs first). The first reweight permanently retires
// the session's warm solver.
func (sess *Session) Reweight(soft int, w Weight) error {
	return sess.Push(Delta{Reweights: []SessionReweight{{Soft: soft, Weight: w}}})
}

// Solve submits a delta solve of the accumulated formula and returns its
// job handle immediately; Wait on it like any submitted job. Result.Reused
// reports whether the warm solver answered. A solve that is offered the
// warm solver never takes on a one-shot submission of the same formula,
// which gets its own from-scratch run. Only one solve may be in flight per
// session (ErrSessionBusy).
func (sess *Session) Solve(ctx context.Context) (*Job, error) {
	h, err := sess.s.Solve(ctx)
	if err != nil {
		return nil, err
	}
	return &Job{h: h, algo: sess.algo}, nil
}

// Accumulated returns a copy of the formula the next Solve would answer
// for: base plus every pushed delta, with active assumptions as hard units.
func (sess *Session) Accumulated() *WCNF { return sess.s.Accumulated() }

// Size reports the variable and clause counts of the formula Accumulated
// would return, without copying it.
func (sess *Session) Size() (vars, clauses int) { return sess.s.Size() }

// Counters reports how many solves this session has submitted and how many
// the warm solver answered.
func (sess *Session) Counters() (solves, reused int64) { return sess.s.Counters() }

// Close ends the session, releasing its pinned worker slot, quota unit,
// and warm solver. A solve in flight completes first; its handle stays
// valid. Close is idempotent.
func (sess *Session) Close() { sess.s.Close() }

// algoRequiresUnitWeights reports whether the algorithm rejects weighted
// soft clauses (the paper's unweighted msu family).
func algoRequiresUnitWeights(a Algorithm) bool {
	switch a {
	case AlgoMSU4V2, AlgoMSU1, AlgoMSU2, AlgoMSU3:
		return true
	}
	return false
}
