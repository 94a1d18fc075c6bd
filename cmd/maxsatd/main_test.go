package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
)

func newTestServer(t *testing.T, cfg maxsat.ServerConfig) *httptest.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv := maxsat.NewServer(cfg)
	d := newDaemon(srv, daemonOpts{maxBody: 16 << 20, maxTimeout: time.Minute})
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func dimacs(t *testing.T, w *maxsat.WCNF) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := maxsat.WriteWCNF(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSolve(t *testing.T, ts *httptest.Server, body []byte, query string) (jobJSON, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobJSON
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return out, resp.StatusCode
}

// TestSolveEndToEnd POSTs an instance and checks the daemon returns the same
// optimum as the direct library call (the cmd/maxsat path).
func TestSolveEndToEnd(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})
	inst := gen.Pigeonhole(4)
	direct, err := maxsat.Solve(inst.W, maxsat.Options{})
	if err != nil {
		t.Fatal(err)
	}

	job, code := postSolve(t, ts, dimacs(t, inst.W), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if job.Result == nil || job.Result.Status != "OPTIMAL" || job.Result.Cost != int64(direct.Cost) {
		t.Fatalf("daemon result %+v, want OPTIMAL cost %d", job.Result, direct.Cost)
	}
	if len(job.Result.Model) != inst.W.NumVars {
		t.Fatalf("model has %d literals, want %d", len(job.Result.Model), inst.W.NumVars)
	}
}

// TestJobCertificateEndpoint reads a finished job's answer back by ID: GET
// /jobs/{id} reports the result with its algorithm, GET
// /jobs/{id}/certificate returns bytes the independent checker accepts
// against the instance, and a job solved without cert=1 has no certificate.
func TestJobCertificateEndpoint(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})
	inst := gen.Pigeonhole(4)
	job, code := postSolve(t, ts, dimacs(t, inst.W), "?wait=1&cert=1")
	if code != http.StatusOK || job.Result == nil || job.Result.Status != "OPTIMAL" {
		t.Fatalf("certified solve: status %d, %+v", code, job.Result)
	}

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	resp := get(fmt.Sprintf("/jobs/%d", job.ID))
	var polled jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || polled.State != "done" || polled.Result == nil {
		t.Fatalf("GET /jobs/%d: status %d, %+v", job.ID, resp.StatusCode, polled)
	}
	if polled.Result.Algorithm == "" || polled.Result.Algorithm != job.Result.Algorithm ||
		polled.Result.Cost != job.Result.Cost {
		t.Fatalf("polled result %+v, want the submitted answer %+v", polled.Result, job.Result)
	}

	resp = get(fmt.Sprintf("/jobs/%d/certificate", job.ID))
	cert, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(cert, job.Result.Certificate) {
		t.Fatalf("GET /jobs/%d/certificate: status %d, %d bytes, want the %d-byte certificate",
			job.ID, resp.StatusCode, len(cert), len(job.Result.Certificate))
	}
	if err := maxsat.CheckCertificate(inst.W, cert); err != nil {
		t.Fatalf("served certificate rejected by the checker: %v", err)
	}

	// A distinct formula, so no certified verdict in the cache answers it.
	plain, code := postSolve(t, ts, dimacs(t, gen.EquivMiter(5).W), "?wait=1")
	if code != http.StatusOK || plain.Result == nil || plain.Result.Cached {
		t.Fatalf("uncertified solve: status %d, %+v", code, plain.Result)
	}
	if resp := get(fmt.Sprintf("/jobs/%d/certificate", plain.ID)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("certificate of a cert=0 job: status %d, want 404", resp.StatusCode)
	}
}

// TestCacheHitObservableInStats resubmits the same instance and checks the
// second answer is served from cache, visible in GET /stats.
func TestCacheHitObservableInStats(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})
	body := dimacs(t, gen.EquivMiter(5).W)

	first, _ := postSolve(t, ts, body, "?wait=1")
	if first.Result == nil || first.Result.Cached {
		t.Fatalf("first solve: %+v", first.Result)
	}
	// Different algorithm, same formula: still a cache hit.
	second, _ := postSolve(t, ts, body, "?wait=1&alg=maxsatz")
	if second.Result == nil || !second.Result.Cached {
		t.Fatalf("second solve not cached: %+v", second.Result)
	}
	if second.Result.Cost != first.Result.Cost {
		t.Fatalf("cached cost %d != first cost %d", second.Result.Cost, first.Result.Cost)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st maxsat.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.Submitted != 2 {
		t.Fatalf("stats %+v, want 1 cache hit of 2 submissions", st)
	}
}

// TestJobPollAndSSE submits without waiting, then watches the SSE stream:
// at least one monotone "bound" event must arrive before the "result" event.
func TestJobPollAndSSE(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})
	// A slow-ish instance so anytime bounds actually stream mid-run.
	inst := gen.Pigeonhole(7)
	job, code := postSolve(t, ts, dimacs(t, inst.W), "")
	if code != http.StatusAccepted {
		t.Fatalf("status %d, want 202", code)
	}

	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d?sse=1", ts.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var (
		bounds    []boundJSON
		result    *resultJSON
		event     string
		sawResult bool
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && !sawResult {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "bound":
				var b boundJSON
				if err := json.Unmarshal([]byte(data), &b); err != nil {
					t.Fatalf("bound event %q: %v", data, err)
				}
				bounds = append(bounds, b)
			case "result":
				result = new(resultJSON)
				if err := json.Unmarshal([]byte(data), result); err != nil {
					t.Fatalf("result event %q: %v", data, err)
				}
				sawResult = true
			}
		}
	}
	if len(bounds) == 0 {
		t.Fatal("no bound event before the result")
	}
	for i := 1; i < len(bounds); i++ {
		p, c := bounds[i-1], bounds[i]
		if p.LB != nil && c.LB != nil && *c.LB < *p.LB {
			t.Fatalf("SSE LB fell: %v after %v", *c.LB, *p.LB)
		}
		if p.UB != nil && c.UB != nil && *c.UB > *p.UB {
			t.Fatalf("SSE UB rose: %v after %v", *c.UB, *p.UB)
		}
	}
	if result == nil || result.Status != "OPTIMAL" || result.Cost != int64(inst.KnownCost) {
		t.Fatalf("SSE result %+v, want OPTIMAL cost %d", result, inst.KnownCost)
	}
	last := bounds[len(bounds)-1]
	if last.LB == nil || last.UB == nil || *last.LB != result.Cost || *last.UB != result.Cost {
		t.Fatalf("closing bound %+v, want lb=ub=%d", last, result.Cost)
	}

	// Poll view of the finished job.
	pollResp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer pollResp.Body.Close()
	var poll jobJSON
	if err := json.NewDecoder(pollResp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	if poll.State != "done" || poll.Result == nil || poll.Result.Cost != result.Cost {
		t.Fatalf("poll after SSE: %+v", poll)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || !h.OK {
		t.Fatalf("healthz body: ok=%v err=%v", h.OK, err)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})
	if _, code := postSolve(t, ts, []byte("this is not dimacs"), ""); code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", code)
	}
	// A variable index no literal can encode is a parse error, never a
	// solve sized by it.
	if _, code := postSolve(t, ts, []byte("p cnf 5 1\n3000000000 0\n"), ""); code != http.StatusBadRequest {
		t.Errorf("out-of-range literal: status %d, want 400", code)
	}
	body := dimacs(t, gen.Pigeonhole(3).W)
	if _, code := postSolve(t, ts, body, "?alg=nope"); code != http.StatusBadRequest {
		t.Errorf("unknown algorithm: status %d, want 400", code)
	}
	if _, code := postSolve(t, ts, body, "?timeout=eleven"); code != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d, want 400", code)
	}
	// Weighted instance under a unit-weight-only algorithm.
	w := maxsat.NewWCNF(1)
	w.AddSoft(2, maxsat.FromDIMACS(1))
	w.AddSoft(1, maxsat.FromDIMACS(-1))
	if _, code := postSolve(t, ts, dimacs(t, w), "?alg=msu4-v2"); code != http.StatusBadRequest {
		t.Errorf("weighted msu4: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

// TestRunFlagParsing keeps the CLI surface honest without binding a port.
func TestRunFlagParsing(t *testing.T) {
	if code := run([]string{"-badflag"}); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
}

// TestAuthBearerTokens checks the token table gates every endpoint except
// the health probe.
func TestAuthBearerTokens(t *testing.T) {
	srv := maxsat.NewServer(maxsat.ServerConfig{Workers: 1})
	d := newDaemon(srv, daemonOpts{maxBody: 16 << 20, maxTimeout: time.Minute,
		tokens: map[string]string{"s3cret": "alice"}})
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	body := dimacs(t, gen.Pigeonhole(3).W)

	// No credentials → 401 with a challenge.
	resp, err := http.Post(ts.URL+"/solve?wait=1", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated: status %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without a WWW-Authenticate challenge")
	}
	// Wrong secret → 401.
	req, _ := http.NewRequest("POST", ts.URL+"/solve?wait=1", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: status %d, want 401", resp.StatusCode)
	}
	// Right secret → solves.
	req, _ = http.NewRequest("POST", ts.URL+"/solve?wait=1", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated solve: status %d, want 200", resp.StatusCode)
	}
	// The health probe stays open for credential-less checkers.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth: status %d", hresp.StatusCode)
	}
}

// TestShedReturns429WithRetryAfter fills the queue and checks the shed
// submission gets 429 plus a Retry-After hint instead of a bare 503.
func TestShedReturns429WithRetryAfter(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{Workers: 1, QueueDepth: 1})
	// Occupy the only queue slot with a job that will not finish on its own.
	long := dimacs(t, gen.Pigeonhole(9).W)
	if _, code := postSolve(t, ts, long, "?timeout=1m"); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/solve", "text/plain",
		bytes.NewReader(dimacs(t, gen.Pigeonhole(4).W)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After header")
	}
}

// TestRateLimit429 drives the per-client token bucket over HTTP: same peer,
// burst 1 → the second request sheds with 429.
func TestRateLimit429(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{Workers: 1, RatePerSec: 0.001, Burst: 1})
	body := dimacs(t, gen.Pigeonhole(3).W)
	if _, code := postSolve(t, ts, body, "?wait=1"); code != http.StatusOK {
		t.Fatalf("first submit: status %d", code)
	}
	_, code := postSolve(t, ts, body, "?wait=1")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", code)
	}
}

// TestDrainGraceful boots the real daemon loop, attaches an SSE stream to a
// long job, then cancels the run context (the SIGTERM path): the daemon must
// stop admitting, deliver a terminal "result" event to the stream, and exit 0.
func TestDrainGraceful(t *testing.T) {
	ready := make(chan string, 1)
	onReady = func(addr string) { ready <- addr }
	defer func() { onReady = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	exit := make(chan int, 1)
	go func() {
		exit <- runWith(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "1", "-drain", "500ms",
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	base := "http://" + addr

	// A job too hard to finish: it will still be running when the drain
	// deadline cancels it, and must then report its best bounds.
	job, code := postSolve(t, &httptest.Server{URL: base}, dimacs(t, gen.Pigeonhole(10).W), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	stream, err := http.Get(fmt.Sprintf("%s/jobs/%d?sse=1", base, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	cancel() // SIGTERM

	// During the drain, admissions fail and the health probe goes dark.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hresp, err := http.Get(base + "/healthz")
		if err != nil {
			break // listener already closed: drain finished
		}
		st := hresp.StatusCode
		hresp.Body.Close()
		if st == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The SSE stream must end with a terminal "result" event.
	var sawResult bool
	var event string
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		} else if strings.HasPrefix(line, "data: ") && event == "result" {
			sawResult = true
		}
	}
	if !sawResult {
		t.Fatal("SSE stream ended without a terminal result event")
	}

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never exited after the drain")
	}
}

// TestSolveAlgOLL submits a weighted instance with alg=oll and checks the
// daemon routes it to the OLL optimizer and returns the known optimum.
func TestSolveAlgOLL(t *testing.T) {
	ts := newTestServer(t, maxsat.ServerConfig{})
	inst := gen.SelectionWeighted(3, 3, 4)

	job, code := postSolve(t, ts, dimacs(t, inst.W), "?wait=1&alg=oll")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if job.Result == nil || job.Result.Status != "OPTIMAL" || job.Result.Cost != int64(inst.KnownCost) {
		t.Fatalf("daemon result %+v, want OPTIMAL cost %d", job.Result, inst.KnownCost)
	}
	if job.Result.Algorithm != "oll" {
		t.Fatalf("algorithm %q, want oll", job.Result.Algorithm)
	}
}
