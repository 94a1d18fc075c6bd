package maxsat

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestServerDifferential submits a spread of instances through the service
// layer and checks every result against the direct SolveFormula path — the
// cache, coalescing and pool machinery must never change an answer.
func TestServerDifferential(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2})
	defer s.Close()
	instances := []gen.Instance{
		gen.Pigeonhole(4),
		gen.RandomKSAT(7, 14, 3, 5.5),
		gen.EquivMiter(6),
		gen.Coloring(3, 8, 18, 2),
	}
	for _, inst := range instances {
		direct, err := Solve(inst.W, Options{})
		if err != nil {
			t.Fatalf("%s direct: %v", inst.Name, err)
		}
		job, err := s.Submit(inst.W, Options{})
		if err != nil {
			t.Fatalf("%s submit: %v", inst.Name, err)
		}
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s wait: %v", inst.Name, err)
		}
		if res.Status != Optimal || res.Cost != direct.Cost {
			t.Errorf("%s: served %v cost %d, direct cost %d",
				inst.Name, res.Status, res.Cost, direct.Cost)
		}
		if res.Cached {
			t.Errorf("%s: first submission claims a cache hit", inst.Name)
		}
		// Resubmission — different algorithm, same formula — is served from
		// the verified-result cache with the same optimum.
		again, err := s.Submit(inst.W, Options{Algorithm: AlgoPortfolio, Parallelism: 2})
		if err != nil {
			t.Fatalf("%s resubmit: %v", inst.Name, err)
		}
		res2, err := again.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s rewait: %v", inst.Name, err)
		}
		if !res2.Cached || res2.Cost != direct.Cost {
			t.Errorf("%s: resubmission cached=%v cost=%d, want cached cost %d",
				inst.Name, res2.Cached, res2.Cost, direct.Cost)
		}
	}
	st := s.Stats()
	if st.CacheHits != int64(len(instances)) {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, len(instances))
	}
}

// TestServerWeighted covers the weighted-partial path end to end.
func TestServerWeighted(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1})
	defer s.Close()
	w := NewWCNF(2)
	w.AddHard(FromDIMACS(1), FromDIMACS(2))
	w.AddSoft(3, FromDIMACS(-1))
	w.AddSoft(1, FromDIMACS(-2))
	job, err := s.Submit(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Cost != 1 {
		t.Fatalf("weighted result %v cost %d, want Optimal cost 1", res.Status, res.Cost)
	}
	// A unit-weight-only algorithm is rejected at Submit, like at Solve.
	if _, err := s.Submit(w, Options{Algorithm: AlgoMSU4V2}); err != ErrWeighted {
		t.Fatalf("weighted msu4 submit: %v, want ErrWeighted", err)
	}
}

// TestServerUpdatesMonotone streams bound improvements for a real solve and
// checks monotonicity plus the closing lb == ub == optimum event.
func TestServerUpdatesMonotone(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2})
	defer s.Close()
	inst := gen.Pigeonhole(6)
	job, err := s.Submit(inst.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var events []BoundUpdate
	for e := range job.Updates() {
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("no bound updates streamed")
	}
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		if prev.HasLB && cur.HasLB && cur.LB < prev.LB {
			t.Fatalf("LB fell: %+v after %+v", cur, prev)
		}
		if prev.HasUB && cur.HasUB && cur.UB > prev.UB {
			t.Fatalf("UB rose: %+v after %+v", cur, prev)
		}
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if !last.HasLB || !last.HasUB || last.LB != res.Cost || last.UB != res.Cost {
		t.Fatalf("closing event %+v, want lb=ub=%d", last, res.Cost)
	}
}

// TestServerCancelNoGoroutineLeak cancels running and queued jobs (including
// a portfolio job) and then closes the server; every solver goroutine must
// exit. Run under -race this also exercises the portfolio's teardown.
func TestServerCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(ServerConfig{Workers: 2})
	inst := gen.Pigeonhole(20) // far too hard to finish: cancellation does the work
	var jobs []*Job
	for _, o := range []Options{
		{},
		{Algorithm: AlgoPortfolio, Parallelism: 4},
		{Algorithm: AlgoBnB},
	} {
		job, err := s.Submit(inst.W, o)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	time.Sleep(50 * time.Millisecond) // let the pool start what it can
	for _, j := range jobs {
		j.Cancel()
	}
	for _, j := range jobs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("cancelled job never completed: %v", err)
		}
		cancel()
	}
	s.Close()
	// Goroutine counts settle asynchronously; poll with a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerPortfolioSlots proves the oversubscription guard: a portfolio
// job asking for more members than the pool has slots races a truncated
// line-up and still answers correctly.
func TestServerPortfolioSlots(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2})
	defer s.Close()
	inst := gen.Pigeonhole(4)
	job, err := s.Submit(inst.W, Options{Algorithm: AlgoPortfolio, Parallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Cost != inst.KnownCost {
		t.Fatalf("clamped portfolio: %v cost %d, want Optimal cost %d",
			res.Status, res.Cost, inst.KnownCost)
	}
}

// TestServerTimeoutUnknown bounds a hopeless job and checks the deadline
// produces Unknown instead of hanging.
func TestServerTimeoutUnknown(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1, DefaultTimeout: 50 * time.Millisecond})
	defer s.Close()
	inst := gen.Pigeonhole(20)
	job, err := s.Submit(inst.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown {
		t.Fatalf("status %v, want Unknown at the deadline", res.Status)
	}
}

// TestServerDurableRestart round-trips a certified answer through a durable
// server restart: the second life serves it from the recovered, re-proved
// store without solving.
func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()
	w := NewWCNF(1)
	w.AddSoft(1, FromDIMACS(1))
	w.AddSoft(1, FromDIMACS(-1))

	s, err := OpenServer(ServerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	job, err := s.Submit(w, Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != Optimal || r1.Cost != 1 || len(r1.Certificate) == 0 {
		t.Fatalf("first life: %+v", r1)
	}
	s.Close()

	s2, err := OpenServer(ServerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st := s2.Stats(); st.Recovered != 1 || st.RecoveredRejected != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	// Different options, same formula: answered from the recovered store.
	job2, err := s2.Submit(w, Options{Algorithm: AlgoOLL, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Status != Optimal || r2.Cost != 1 {
		t.Fatalf("second life: %+v", r2)
	}
	if err := CheckCertificate(w, r2.Certificate); err != nil {
		t.Fatalf("recovered certificate: %v", err)
	}
	// The hit reports the algorithm that proved it, not the resubmitter's.
	if r2.Algorithm != r1.Algorithm {
		t.Fatalf("recovered hit reports algorithm %q, want %q", r2.Algorithm, r1.Algorithm)
	}
	byID, ok := s2.Job(job2.ID())
	if !ok {
		t.Fatalf("job %d not addressable", job2.ID())
	}
	if r3, _ := byID.Result(); r3.Algorithm != r1.Algorithm {
		t.Fatalf("Job(%d) reports algorithm %q, want %q", job2.ID(), r3.Algorithm, r1.Algorithm)
	}
}

// TestServerReplaysInterruptedJob shuts a durable server down mid-solve and
// checks the next life replays the job under its original ID.
func TestServerReplaysInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	inst := gen.Pigeonhole(8) // hard enough that Close always wins the race

	s, err := OpenServer(ServerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	job, err := s.Submit(inst.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := job.ID()
	s.Close() // cancels the running solve; the journal entry stays pending

	s2, err := OpenServer(ServerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	replayed, ok := s2.Job(id)
	if !ok {
		t.Fatalf("job %d not addressable after restart", id)
	}
	if st, _ := replayed.State(); st == JobDone {
		if r, _ := replayed.Result(); r.Status != Unknown {
			t.Fatalf("replayed job finished with unexpected result: %+v", r)
		}
	}
	if st := s2.Stats(); st.Replayed != 1 {
		t.Fatalf("Stats.Replayed = %d, want 1", st.Replayed)
	}
}

// atMostOne adds hard clauses allowing at most one of x1, x2, x3 true.
func atMostOne(w *WCNF) {
	w.AddHard(FromDIMACS(-1), FromDIMACS(-2))
	w.AddHard(FromDIMACS(-1), FromDIMACS(-3))
	w.AddHard(FromDIMACS(-2), FromDIMACS(-3))
}

// TestParentLogsLoad opens a data directory that an earlier build wrote
// through OpenServer: three certified solves (msu4-v2, oll and pbo, job IDs
// 1-3), then php-10 under msu3 with non-default options (job 4, a 2 s
// timeout), left pending by Close. Every stored record must be re-proved
// and serve a hit, and the pending job must replay as it was submitted.
func TestParentLogsLoad(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"results.log", "journal.log"} {
		// Open compacts the logs, so the fixtures are opened from a copy.
		b, err := os.ReadFile(filepath.Join("testdata", "parent-logs", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f1 := NewWCNF(3)
	for v := 1; v <= 3; v++ {
		f1.AddSoft(1, FromDIMACS(v))
	}
	atMostOne(f1)
	f2 := NewWCNF(3)
	for v, wt := range []Weight{3, 5, 4} {
		f2.AddSoft(wt, FromDIMACS(v+1))
	}
	atMostOne(f2)
	f3 := NewWCNF(4)
	f3.AddHard(FromDIMACS(1), FromDIMACS(2))
	f3.AddHard(FromDIMACS(3), FromDIMACS(4))
	for v, wt := range []Weight{2, 3, 1, 4} {
		f3.AddSoft(wt, FromDIMACS(-(v + 1)))
	}

	s, err := OpenServer(ServerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.Recovered != 3 || st.RecoveredRejected != 0 {
		t.Fatalf("recovery stats: Recovered=%d RecoveredRejected=%d, want 3/0", st.Recovered, st.RecoveredRejected)
	}
	for _, c := range []struct {
		w    *WCNF
		algo Algorithm
		cost Weight
	}{{f1, AlgoMSU4V2, 2}, {f2, AlgoOLL, 7}, {f3, AlgoPBO, 3}} {
		job, err := s.Submit(c.w, Options{Algorithm: AlgoPBOBin, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Cached || r.Status != Optimal || r.Cost != c.cost || r.Algorithm != c.algo {
			t.Fatalf("resubmission of the %s record: cached=%t %v cost=%d algorithm=%q, want a hit of cost %d by %q",
				c.algo, r.Cached, r.Status, r.Cost, r.Algorithm, c.cost, c.algo)
		}
		if err := CheckCertificate(c.w, r.Certificate); err != nil {
			t.Fatalf("%s record's certificate: %v", c.algo, err)
		}
	}

	if err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st := s.Stats(); st.Replayed != 1 {
		t.Fatalf("Stats.Replayed = %d, want 1", st.Replayed)
	}
	const pendingID = 4
	replayed, ok := s.Job(pendingID)
	if !ok {
		t.Fatalf("pending job %d not addressable after Recover", pendingID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := replayed.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != AlgoMSU3 {
		t.Fatalf("replayed job ran %q, want %q", r.Algorithm, AlgoMSU3)
	}
}

// TestOptionsPayloadBytes pins the journaled options payload, which is also
// the in-flight coalescing key: golden payloads written by an earlier build
// decode to the options they were written for, and a durable server encodes
// those options to the same bytes. A payload with a key that no option reads
// any more ("skip", "share") still decodes, and re-encodes without the key.
func TestOptionsPayloadBytes(t *testing.T) {
	s, err := OpenServer(ServerConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full := Options{Algorithm: AlgoPortfolio, Timeout: 2 * time.Second, MemoryBudget: 1 << 20,
		Preprocess: true, Parallelism: 3, Certify: true}
	fullGolden := `{"alg":"portfolio","to":2000000000,"mem":1048576,"pre":true,"par":3,"cert":true}`
	for _, c := range []struct {
		payload string // as a journal holds it
		want    Options
		golden  string // the bytes want encodes to
	}{
		{`{"alg":"msu4-v2"}`, Options{Algorithm: AlgoMSU4V2}, `{"alg":"msu4-v2"}`},
		{fullGolden, full, fullGolden},
		{`{"alg":"portfolio","to":2000000000,"mem":1048576,"skip":true,"pre":true,"par":3,"cert":true}`, full, fullGolden},
		{`{"alg":"portfolio","to":2000000000,"mem":1048576,"skip":true,"pre":true,"par":3,"share":true,"cert":true}`, full, fullGolden},
	} {
		var got Options
		if err := json.Unmarshal([]byte(c.payload), &got); err != nil {
			t.Fatalf("decode %s: %v", c.payload, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("decode %s: got %+v, want %+v", c.payload, got, c.want)
		}
		spec, _, err := s.canonical("", gen.Pigeonhole(3).W, got)
		if err != nil {
			t.Fatal(err)
		}
		if spec.OptsKey != c.golden {
			t.Fatalf("encode %+v: key %s, want %s", got, spec.OptsKey, c.golden)
		}
	}
}
