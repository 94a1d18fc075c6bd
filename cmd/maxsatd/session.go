package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro"
)

// Session endpoints: the incremental-solving surface of the daemon.
//
//	POST   /sessions             open a session; body = base instance (may be
//	                             empty), query = same solve options as /solve.
//	POST   /sessions/{id}/delta  push a delta; body = WCNF fragment in the
//	                             headerless 2022 dialect ("h 1 2 0" hard,
//	                             "1 -2 0" soft); query: assume=1,-2 replaces
//	                             the assumption set (assume= clears it),
//	                             reweight=IDX:W (repeatable) re-weights the
//	                             IDX-th soft clause.
//	POST   /sessions/{id}/solve  submit a delta re-solve of the accumulated
//	                             formula; query: wait=1, model=0 as on /solve.
//	                             Returns the job JSON; result.reused reports
//	                             whether the warm solver answered.
//	DELETE /sessions/{id}        close the session, releasing its slot.
//
// A session belongs to the client that opened it: other clients' requests
// against its id fail with 403. A solve in flight serializes the session —
// delta and solve return 409 until the running job completes; a closed or
// idle-evicted session returns 410 (reopen and replay).

// sessionJSON is the session snapshot shape.
type sessionJSON struct {
	ID        uint64 `json:"id"`
	Client    string `json:"client,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Vars      int    `json:"vars"`
	Clauses   int    `json:"clauses"`
	Solves    int64  `json:"solves"`
	Reused    int64  `json:"reused"`
}

func sessionView(sess *maxsat.Session) sessionJSON {
	acc := sess.Accumulated()
	solves, reused := sess.Counters()
	return sessionJSON{
		ID:      sess.ID(),
		Client:  sess.Client(),
		Vars:    acc.NumVars,
		Clauses: len(acc.Clauses),
		Solves:  solves,
		Reused:  reused,
	}
}

func (d *daemon) registerSessions(mux *http.ServeMux) {
	mux.HandleFunc("POST /sessions", d.sessionOpen)
	mux.HandleFunc("POST /sessions/{id}/delta", d.sessionDelta)
	mux.HandleFunc("POST /sessions/{id}/solve", d.sessionSolve)
	mux.HandleFunc("DELETE /sessions/{id}", d.sessionClose)
}

// parseOptionalWCNF reads a request body that may be empty (no base formula,
// or an assumption/reweight-only delta) or a DIMACS/WCNF instance in any of
// the dialects ParseWCNF accepts.
func parseOptionalWCNF(w http.ResponseWriter, r *http.Request, limit int64) (*maxsat.WCNF, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, nil
	}
	return maxsat.ParseWCNF(bytes.NewReader(body))
}

// ownedSession resolves {id} to a session owned by the requesting client;
// it writes the error response itself when the lookup fails.
func (d *daemon) ownedSession(w http.ResponseWriter, r *http.Request) (*maxsat.Session, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad session id")
		return nil, false
	}
	sess, ok := d.srv.Session(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return nil, false
	}
	if sess.Client() != clientFrom(r) {
		httpError(w, http.StatusForbidden, "session belongs to another client")
		return nil, false
	}
	return sess, true
}

func (d *daemon) sessionOpen(w http.ResponseWriter, r *http.Request) {
	opts, err := optionsFromQuery(r, d.opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	base, err := parseOptionalWCNF(w, r, d.opts.maxBody)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	sess, err := d.srv.OpenSessionAs(r.Context(), clientFrom(r), base, opts)
	if err != nil {
		serverError(w, err)
		return
	}
	view := sessionView(sess)
	view.Algorithm = string(opts.Algorithm)
	writeJSON(w, http.StatusCreated, view)
}

func (d *daemon) sessionDelta(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.ownedSession(w, r)
	if !ok {
		return
	}
	var delta maxsat.Delta
	frag, err := parseOptionalWCNF(w, r, d.opts.maxBody)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	if frag != nil {
		for _, c := range frag.Clauses {
			if c.Hard() {
				delta.Hards = append(delta.Hards, c.Clause)
			} else {
				delta.Softs = append(delta.Softs, c)
			}
		}
	}
	q := r.URL.Query()
	if q.Has("assume") {
		delta.SetAssumptions = true
		for _, tok := range strings.Split(q.Get("assume"), ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			v, err := strconv.Atoi(tok)
			if err != nil || v == 0 {
				httpError(w, http.StatusBadRequest, "bad assumption literal %q", tok)
				return
			}
			delta.Assumptions = append(delta.Assumptions, maxsat.FromDIMACS(v))
		}
	}
	for _, spec := range q["reweight"] {
		idx, wt, ok := strings.Cut(spec, ":")
		i, err1 := strconv.Atoi(idx)
		n, err2 := strconv.ParseInt(wt, 10, 64)
		if !ok || err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "bad reweight %q (want IDX:WEIGHT)", spec)
			return
		}
		delta.Reweights = append(delta.Reweights, maxsat.SessionReweight{Soft: i, Weight: maxsat.Weight(n)})
	}
	if err := sess.Push(delta); err != nil {
		serverError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionView(sess))
}

func (d *daemon) sessionSolve(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.ownedSession(w, r)
	if !ok {
		return
	}
	job, err := sess.Solve(r.Context())
	if err != nil {
		serverError(w, err)
		return
	}
	withModel := r.URL.Query().Get("model") != "0"
	if isTrue(r.URL.Query().Get("wait")) {
		if _, err := job.Wait(r.Context()); err != nil {
			// Client went away; the solve keeps running on the session.
			return
		}
		writeJSON(w, http.StatusOK, jobView(job, withModel))
		return
	}
	writeJSON(w, http.StatusAccepted, jobView(job, withModel))
}

func (d *daemon) sessionClose(w http.ResponseWriter, r *http.Request) {
	sess, ok := d.ownedSession(w, r)
	if !ok {
		return
	}
	sess.Close()
	writeJSON(w, http.StatusOK, map[string]any{"closed": true, "id": sess.ID()})
}
