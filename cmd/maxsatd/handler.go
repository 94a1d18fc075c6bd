package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
)

// daemonOpts is the handler-level configuration (request-size, timeout and
// memory ceilings, plus the bearer-token table).
type daemonOpts struct {
	maxBody    int64
	maxTimeout time.Duration
	defaultMem int64             // per-job clause-storage budget when the client asks for none
	maxMem     int64             // hard ceiling on client-requested budgets (0 = no cap)
	tokens     map[string]string // bearer secret → client name; empty = auth off
}

// daemon wires a maxsat.Server to the HTTP API:
//
//	POST /solve            DIMACS .cnf/.wcnf body → job (or cached result)
//	GET  /jobs/{id}        poll a job; ?sse=1 (or Accept: text/event-stream)
//	                       streams anytime bounds, then the result
//	GET  /jobs/{id}/certificate  raw binary proof certificate of a completed
//	                       job submitted with cert=1 (see cmd/proofcheck)
//	POST /sessions         open an incremental session (see session.go)
//	POST /sessions/{id}/delta   push clauses/assumptions/reweights
//	POST /sessions/{id}/solve   delta re-solve of the accumulated formula
//	DELETE /sessions/{id}  close the session
//	GET  /stats            service counters
//	GET  /livez            process liveness (200 while the process serves)
//	GET  /readyz           readiness (503 while recovering or draining)
//	GET  /healthz          alias of /readyz, kept for older probes
//
// Every endpoint except the probes passes through the auth middleware: with a
// token table configured, requests need a valid Authorization: Bearer secret
// and are accounted to the token's client name; without one, requests are
// accounted per peer IP (so the per-client rate limits still bite).
type daemon struct {
	srv      *maxsat.Server
	opts     daemonOpts
	draining atomic.Bool
	// ready gates /readyz: false while the daemon replays the journal of a
	// previous life (main flips it once Recover returns). A restarted durable
	// daemon thus joins the load balancer only after it can account for every
	// job it promised before the crash.
	ready atomic.Bool
	start time.Time
}

func newDaemon(srv *maxsat.Server, opts daemonOpts) *daemon {
	d := &daemon{srv: srv, opts: opts, start: time.Now()}
	d.ready.Store(true) // main clears this when it has recovery to run
	return d
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", d.solve)
	mux.HandleFunc("GET /jobs/{id}", d.job)
	mux.HandleFunc("GET /jobs/{id}/certificate", d.certificate)
	d.registerSessions(mux)
	mux.HandleFunc("GET /stats", d.stats)
	mux.HandleFunc("GET /livez", d.livez)
	mux.HandleFunc("GET /readyz", d.readyz)
	mux.HandleFunc("GET /healthz", d.readyz)
	return d.auth(mux)
}

// ctxKey keys the authenticated client name in the request context.
type ctxKey int

const clientKey ctxKey = 0

// auth is the admission middleware: it resolves the client identity that the
// serving layer's rate limits, quotas, and audit log are charged to. The
// health probes are exempt — checkers do not carry credentials.
func (d *daemon) auth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/livez", "/readyz":
			next.ServeHTTP(w, r)
			return
		}
		var client string
		if len(d.opts.tokens) == 0 {
			// Authentication off: account per peer address so one host
			// cannot starve the rest even on an open server.
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				host = r.RemoteAddr
			}
			client = "ip:" + host
		} else {
			const prefix = "Bearer "
			h := r.Header.Get("Authorization")
			if !strings.HasPrefix(h, prefix) {
				w.Header().Set("WWW-Authenticate", `Bearer realm="maxsatd"`)
				httpError(w, http.StatusUnauthorized, "missing bearer token")
				return
			}
			name, ok := d.opts.tokens[strings.TrimSpace(strings.TrimPrefix(h, prefix))]
			if !ok {
				w.Header().Set("WWW-Authenticate", `Bearer realm="maxsatd", error="invalid_token"`)
				httpError(w, http.StatusUnauthorized, "invalid bearer token")
				return
			}
			client = name
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), clientKey, client)))
	})
}

// clientFrom returns the client identity the auth middleware resolved.
func clientFrom(r *http.Request) string {
	c, _ := r.Context().Value(clientKey).(string)
	return c
}

// jobJSON is the poll/submit response shape.
type jobJSON struct {
	ID     uint64      `json:"id"`
	State  string      `json:"state"`
	LB     *int64      `json:"lb,omitempty"`
	UB     *int64      `json:"ub,omitempty"`
	Result *resultJSON `json:"result,omitempty"`
}

// resultJSON is the completed-result shape (also the SSE "result" event).
type resultJSON struct {
	Status     string `json:"status"`
	Cost       int64  `json:"cost"`
	LowerBound int64  `json:"lb"`
	Algorithm  string `json:"algorithm"`
	Winner     string `json:"winner,omitempty"`
	Cached     bool   `json:"cached"`
	// Reused: a session's warm (retained) solver answered this delta
	// re-solve; always false for one-shot /solve jobs.
	Reused bool  `json:"reused,omitempty"`
	Model  []int `json:"model,omitempty"`
	// Certificate is the base64 (JSON []byte) proof certificate when the
	// job was submitted with cert=1 and the verdict was certified; check it
	// with maxsat.CheckCertificate (or cmd/proofcheck) against the instance.
	Certificate []byte  `json:"certificate,omitempty"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

// boundJSON is the SSE "bound" event shape.
type boundJSON struct {
	LB *int64 `json:"lb,omitempty"`
	UB *int64 `json:"ub,omitempty"`
}

func toBoundJSON(e maxsat.BoundUpdate) boundJSON {
	var b boundJSON
	if e.HasLB {
		lb := int64(e.LB)
		b.LB = &lb
	}
	if e.HasUB {
		ub := int64(e.UB)
		b.UB = &ub
	}
	return b
}

func toResultJSON(r maxsat.Result, withModel bool) *resultJSON {
	out := &resultJSON{
		Status:      r.Status.String(),
		Cost:        int64(r.Cost),
		LowerBound:  int64(r.LowerBound),
		Algorithm:   string(r.Algorithm),
		Winner:      r.Winner,
		Cached:      r.Cached,
		Reused:      r.Reused,
		Certificate: r.Certificate,
		ElapsedSec:  r.Elapsed.Seconds(),
	}
	if withModel && r.Model != nil {
		out.Model = make([]int, len(r.Model))
		for v, val := range r.Model {
			lit := v + 1
			if !val {
				lit = -lit
			}
			out.Model[v] = lit
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// serverError maps an error from submitting work to the server — a job, a
// session open, a delta, a session solve — onto an HTTP status.
func serverError(w http.ResponseWriter, err error) {
	after, shed := maxsat.RetryAfter(err)
	switch {
	case errors.Is(err, maxsat.ErrServerClosed):
		// Draining or shut down: tell keep-alive clients to reconnect
		// elsewhere, not to retry on this connection.
		w.Header().Set("Connection", "close")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case shed:
		// Shed, not failed (queue full, rate limited, over quota, session
		// limit): 429 plus the server's retry hint.
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(after.Seconds())))))
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, maxsat.ErrSessionsDisabled):
		httpError(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, maxsat.ErrSessionBusy):
		httpError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, maxsat.ErrSessionClosed):
		httpError(w, http.StatusGone, "%v", err)
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

// solve admits a job. The body is a DIMACS .cnf or .wcnf instance; options
// travel as query parameters: alg, enc, jobs, share, pre, timeout, and
// wait=1 to block until the result instead of returning the job handle.
func (d *daemon) solve(w http.ResponseWriter, r *http.Request) {
	opts, err := optionsFromQuery(r, d.opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, d.opts.maxBody)
	formula, err := maxsat.ParseWCNF(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	job, err := d.srv.SubmitAs(clientFrom(r), formula, opts)
	if err != nil {
		serverError(w, err)
		return
	}
	withModel := r.URL.Query().Get("model") != "0"
	if isTrue(r.URL.Query().Get("wait")) {
		if _, err := job.Wait(r.Context()); err != nil {
			// Client went away; the job keeps running for other requesters.
			return
		}
		writeJSON(w, http.StatusOK, jobView(job, withModel))
		return
	}
	writeJSON(w, http.StatusAccepted, jobView(job, withModel))
}

// job serves GET /jobs/{id}: a JSON snapshot, or an SSE stream of bound
// improvements followed by the final result.
func (d *daemon) job(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	job, ok := d.srv.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	withModel := r.URL.Query().Get("model") != "0"
	if isTrue(r.URL.Query().Get("sse")) ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		d.stream(w, r, job, withModel)
		return
	}
	writeJSON(w, http.StatusOK, jobView(job, withModel))
}

// certificate serves GET /jobs/{id}/certificate: the raw binary proof
// certificate of a completed job, for offline checking with cmd/proofcheck.
func (d *daemon) certificate(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	job, ok := d.srv.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	res, done := job.Result()
	if !done {
		httpError(w, http.StatusConflict, "job not finished")
		return
	}
	if len(res.Certificate) == 0 {
		httpError(w, http.StatusNotFound, "no certificate (submit with cert=1 and an OPTIMAL or UNSATISFIABLE verdict)")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.Certificate)))
	_, _ = w.Write(res.Certificate)
}

func jobView(job *maxsat.Job, withModel bool) jobJSON {
	state, best := job.State()
	out := jobJSON{ID: job.ID(), State: state.String()}
	b := toBoundJSON(best)
	out.LB, out.UB = b.LB, b.UB
	if res, done := job.Result(); done {
		out.Result = toResultJSON(res, withModel)
	}
	return out
}

// stream writes Server-Sent Events: one "bound" event per improvement (the
// current best bounds are replayed first, so a late subscriber sees at least
// one), then a single "result" event. Bound improvements are monotone — the
// lower bound never falls, the upper bound never rises.
func (d *daemon) stream(w http.ResponseWriter, r *http.Request, job *maxsat.Job, withModel bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	emit := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
		return err == nil
	}

	updates := job.Updates()
	for {
		select {
		case e, open := <-updates:
			if !open {
				// Job complete: the result is available now.
				if res, done := job.Result(); done {
					emit("result", toResultJSON(res, withModel))
				}
				return
			}
			if !emit("bound", toBoundJSON(e)) {
				return
			}
		case <-r.Context().Done():
			// Subscriber left; the job itself keeps running.
			return
		}
	}
}

func (d *daemon) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.srv.Stats())
}

// livez is pure process liveness: 200 for as long as the daemon can serve
// HTTP at all, including while it recovers or drains. Restarting on a failed
// /livez is what an orchestrator should do; restarting on a slow recovery is
// not — that is /readyz's job.
func (d *daemon) livez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"uptime_sec": time.Since(d.start).Seconds(),
	})
}

// readyz is traffic-worthiness: 503 while the daemon is replaying a previous
// life's journal (it cannot yet account for pre-crash job IDs) and once it
// starts draining (it will not accept new work). /healthz aliases this —
// existing probe configs keep their drain semantics.
func (d *daemon) readyz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	body := map[string]any{
		"ok":         true,
		"uptime_sec": time.Since(d.start).Seconds(),
	}
	if !d.ready.Load() {
		code = http.StatusServiceUnavailable
		body["ok"] = false
		body["recovering"] = true
	}
	if d.draining.Load() {
		// Fail the readiness probe during drain so load balancers stop
		// routing here while in-flight jobs run down.
		code = http.StatusServiceUnavailable
		body["ok"] = false
		body["draining"] = true
	}
	writeJSON(w, code, body)
}

func isTrue(s string) bool { return s == "1" || s == "true" || s == "yes" }

// optionsFromQuery maps the /solve query parameters onto maxsat.Options.
func optionsFromQuery(r *http.Request, d daemonOpts) (maxsat.Options, error) {
	q := r.URL.Query()
	o := maxsat.Options{
		Algorithm:    maxsat.Algorithm(q.Get("alg")),
		Encoding:     q.Get("enc"),
		Preprocess:   isTrue(q.Get("pre")),
		ShareClauses: isTrue(q.Get("share")),
		Certify:      isTrue(q.Get("cert")),
	}
	if v := q.Get("jobs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return o, fmt.Errorf("bad jobs %q", v)
		}
		o.Parallelism = n
	}
	if v := q.Get("timeout"); v != "" {
		to, err := time.ParseDuration(v)
		if err != nil || to < 0 {
			return o, fmt.Errorf("bad timeout %q", v)
		}
		o.Timeout = to
	}
	// Clamp only explicit requests; an unset timeout stays zero so the
	// server's DefaultTimeout applies (main caps that default too, keeping
	// -max-timeout a hard ceiling either way).
	if d.maxTimeout > 0 && o.Timeout > d.maxTimeout {
		o.Timeout = d.maxTimeout
	}
	// mem is the per-job clause-storage budget in bytes; unset falls back to
	// the daemon default, and -max-mem is a hard ceiling on both.
	if v := q.Get("mem"); v != "" {
		mem, err := strconv.ParseInt(v, 10, 64)
		if err != nil || mem < 0 {
			return o, fmt.Errorf("bad mem %q", v)
		}
		o.MemoryBudget = mem
	}
	if o.MemoryBudget == 0 {
		o.MemoryBudget = d.defaultMem
	}
	if d.maxMem > 0 && (o.MemoryBudget <= 0 || o.MemoryBudget > d.maxMem) {
		o.MemoryBudget = d.maxMem
	}
	return o, nil
}
