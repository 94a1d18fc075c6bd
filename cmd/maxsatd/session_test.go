package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro"
)

// sessionReq fires one request against the session endpoints and decodes the
// JSON response into out (skipped when out is nil or the body is empty).
func sessionReq(t *testing.T, ts *httptest.Server, method, path string, body []byte, token string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestSessionEndToEnd is the daemon-level session smoke: open a session,
// push two deltas, and check (a) every delta re-solve reports the warm
// solver answered, (b) a from-scratch POST /solve of the same accumulated
// formula is served from the verified cache the session populated — the
// interchangeability contract over the wire — and (c) the /stats session
// counters moved.
func TestSessionEndToEnd(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})

	// Base: a contradictory unit-soft pair over x1 (optimum 1), in the
	// headerless 2022 dialect the delta endpoint speaks.
	var sess sessionJSON
	if code := sessionReq(t, ts, "POST", "/sessions", []byte("1 1 0\n1 -1 0\n"), "", &sess); code != http.StatusCreated {
		t.Fatalf("open: status %d", code)
	}
	acc := maxsat.NewWCNF(0) // test-maintained mirror of the accumulation
	acc.AddSoft(1, maxsat.FromDIMACS(1))
	acc.AddSoft(1, maxsat.FromDIMACS(-1))

	base := fmt.Sprintf("/sessions/%d", sess.ID)
	steps := []struct {
		delta string
		apply func()
		want  int64
	}{
		{"1 2 0\n1 -2 0\n", func() {
			acc.AddSoft(1, maxsat.FromDIMACS(2))
			acc.AddSoft(1, maxsat.FromDIMACS(-2))
		}, 2},
		{"h 3 0\n1 -3 0\n", func() {
			acc.AddHard(maxsat.FromDIMACS(3))
			acc.AddSoft(1, maxsat.FromDIMACS(-3))
		}, 3},
	}
	for i, step := range steps {
		var view sessionJSON
		if code := sessionReq(t, ts, "POST", base+"/delta", []byte(step.delta), "", &view); code != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, code)
		}
		step.apply()
		if view.Clauses != len(acc.Clauses) {
			t.Fatalf("delta %d: view reports %d clauses, want %d", i, view.Clauses, len(acc.Clauses))
		}
		var job jobJSON
		if code := sessionReq(t, ts, "POST", base+"/solve?wait=1", nil, "", &job); code != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, code)
		}
		if job.Result == nil || job.Result.Status != "OPTIMAL" || job.Result.Cost != step.want {
			t.Fatalf("solve %d: result %+v, want OPTIMAL cost %d", i, job.Result, step.want)
		}
		if !job.Result.Reused {
			t.Fatalf("solve %d: warm solver not reused", i)
		}
	}

	// Interchangeability over the wire: one-shot /solve of the accumulated
	// DIMACS hits the verified cache the session's last solve populated.
	job, code := postSolve(t, ts, dimacs(t, acc), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("one-shot solve: status %d", code)
	}
	if job.Result == nil || job.Result.Cost != 3 {
		t.Fatalf("one-shot result %+v, want cost 3", job.Result)
	}
	if !job.Result.Cached {
		t.Fatal("one-shot solve of the session's accumulation was not a cache hit")
	}

	var stats maxsat.ServerStats
	if code := sessionReq(t, ts, "GET", "/stats", nil, "", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.SessionsOpen != 1 || stats.SessionSolves != 2 || stats.SessionReused != 2 {
		t.Fatalf("stats: open=%d solves=%d reused=%d, want 1/2/2",
			stats.SessionsOpen, stats.SessionSolves, stats.SessionReused)
	}

	if code := sessionReq(t, ts, "DELETE", base, nil, "", nil); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}
	if code := sessionReq(t, ts, "DELETE", base, nil, "", nil); code != http.StatusNotFound {
		t.Fatalf("double close: status %d, want 404", code)
	}
}

// TestSessionOwnership checks the per-client boundary: with bearer tokens
// on, a session opened by alice is invisible to bob's credentials.
func TestSessionOwnership(t *testing.T) {
	srv := maxsat.NewServer(maxsat.ServerConfig{Workers: 2})
	d := newDaemon(srv, daemonOpts{
		maxBody: 1 << 20,
		tokens:  map[string]string{"s3cret": "alice", "hunter2": "bob"},
	})
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	var sess sessionJSON
	if code := sessionReq(t, ts, "POST", "/sessions", []byte("1 1 0\n"), "s3cret", &sess); code != http.StatusCreated {
		t.Fatalf("open: status %d", code)
	}
	base := fmt.Sprintf("/sessions/%d", sess.ID)
	if code := sessionReq(t, ts, "POST", base+"/delta", []byte("h 1 0\n"), "hunter2", nil); code != http.StatusForbidden {
		t.Fatalf("cross-client delta: status %d, want 403", code)
	}
	if code := sessionReq(t, ts, "DELETE", base, nil, "hunter2", nil); code != http.StatusForbidden {
		t.Fatalf("cross-client close: status %d, want 403", code)
	}
	if code := sessionReq(t, ts, "DELETE", base, nil, "s3cret", nil); code != http.StatusOK {
		t.Fatalf("owner close: status %d", code)
	}
}

// TestSessionHTTPErrors exercises the error mapping: disabled sessions,
// bad ids, bad delta syntax, and weighted softs under a unit-weight-only
// algorithm.
func TestSessionHTTPErrors(t *testing.T) {
	off := newTestServer(t, maxsat.ServerConfig{MaxSessions: -1})
	if code := sessionReq(t, off, "POST", "/sessions", nil, "", nil); code != http.StatusForbidden {
		t.Fatalf("disabled open: status %d, want 403", code)
	}

	ts := newTestServer(t, maxsat.ServerConfig{})
	if code := sessionReq(t, ts, "POST", "/sessions/zzz/delta", nil, "", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", code)
	}
	if code := sessionReq(t, ts, "POST", "/sessions/999/delta", nil, "", nil); code != http.StatusNotFound {
		t.Fatalf("missing session: status %d, want 404", code)
	}

	var sess sessionJSON
	if code := sessionReq(t, ts, "POST", "/sessions?alg=msu3", []byte("1 1 0\n"), "", &sess); code != http.StatusCreated {
		t.Fatalf("open: status %d", code)
	}
	base := fmt.Sprintf("/sessions/%d", sess.ID)
	if code := sessionReq(t, ts, "POST", base+"/delta?reweight=nope", nil, "", nil); code != http.StatusBadRequest {
		t.Fatalf("bad reweight: status %d, want 400", code)
	}
	if code := sessionReq(t, ts, "POST", base+"/delta?assume=0", nil, "", nil); code != http.StatusBadRequest {
		t.Fatalf("bad assumption: status %d, want 400", code)
	}
	// A weighted soft under msu3 (unit-weight-only) is rejected before it
	// reaches the accumulation.
	if code := sessionReq(t, ts, "POST", base+"/delta", []byte("5 2 0\n"), "", nil); code != http.StatusBadRequest {
		t.Fatalf("weighted soft under msu3: status %d, want 400", code)
	}
	if code := sessionReq(t, ts, "DELETE", base, nil, "", nil); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}

	// A rate-limited session solve is shed like a rate-limited /solve: the
	// open and the first solve take the bucket's two tokens, so the second
	// solve gets 429 with a Retry-After hint.
	limited := newTestServer(t, maxsat.ServerConfig{RatePerSec: 0.001, Burst: 2})
	if code := sessionReq(t, limited, "POST", "/sessions?alg=msu3", []byte("1 1 0\n"), "", &sess); code != http.StatusCreated {
		t.Fatalf("rate-limited server open: status %d", code)
	}
	solve := fmt.Sprintf("/sessions/%d/solve?wait=1", sess.ID)
	if code := sessionReq(t, limited, "POST", solve, nil, "", nil); code != http.StatusOK {
		t.Fatalf("first solve: status %d", code)
	}
	resp, err := http.Post(limited.URL+solve, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited solve: status %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("rate-limited solve: Retry-After %q, want whole seconds >= 1",
			resp.Header.Get("Retry-After"))
	}
}
