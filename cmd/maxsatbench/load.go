package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
)

// clients is the closed-loop concurrency: one client per worker slot of the
// daemon (-workers 2), each sending its next request only after the previous
// answer is read.
const clients = 2

// sample is one timed operation of the window that was answered correctly.
type sample struct {
	start   time.Time
	lat     time.Duration // send to full body read
	cached  bool          // result.cached
	elapsed float64       // server-reported solve seconds
	bytes   int           // response body size
}

// loadResult is what the window measured.
type loadResult struct {
	samples       []sample
	elapsed       time.Duration // window start to the last window completion
	before, after stats         // /stats at the window's start and end
	rss           []float64     // the daemon's resident set in MB, every 100 ms once it is steady
}

// rssReadings is how many resident-set readings, 100 ms apart, a window
// takes once the daemon's memory is steady. When it gets steady late, the
// clients keep sending, untimed, until the readings are taken.
const rssReadings = 20

// solve sends one /solve request and checks the answer. The sample is
// returned only for a correct answer.
func solve(d *daemon, chk *checker, sp *spec, jb job) (sample, *resultJSON, bool) {
	start := time.Now()
	code, body, err := d.do("POST", "/solve?"+sp.query, jb.body)
	lat := time.Since(start)
	if err != nil {
		chk.attempt()
		chk.fail("transport error", false)
		return sample{}, nil, false
	}
	r := chk.answer(jb.w, jb.want, sp.cert, code, body)
	if r == nil {
		return sample{}, nil, false
	}
	return sample{start: start, lat: lat, cached: r.Cached, elapsed: r.ElapsedSec, bytes: len(body)}, r, true
}

// fill submits jobs untimed with the closed-loop clients and returns the
// served result of each correctly answered job.
func fill(d *daemon, chk *checker, sp *spec, jobs []job) map[*cnf.WCNF]*resultJSON {
	var (
		mu     sync.Mutex
		served = make(map[*cnf.WCNF]*resultJSON, len(jobs))
		next   atomic.Int64
		wg     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				if _, r, ok := solve(d, chk, sp, jobs[i]); ok {
					mu.Lock()
					served[jobs[i].w] = r
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return served
}

// drive runs the closed loop for warmup+window and keeps the samples whose
// request was sent inside the window; the window's length is taken up to its
// last completion. The daemon has finished `finished` jobs before the call.
//
// The daemon's memory grows until it retains steadyAfter finished jobs (its
// table of jobs addressable by ID), which on the slower workloads takes most
// of a window. So the resident set is read, every 100 ms, only from then on,
// and the clients keep sending untimed requests past the window until
// rssReadings readings are taken.
func drive(d *daemon, chk *checker, sp *spec, warmup, window time.Duration, finished, steadyAfter int) (loadResult, error) {
	var (
		lr       loadResult
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     atomic.Int64
		done     atomic.Int64 // jobs the daemon finished
		readings atomic.Int64
		winStart = time.Now().Add(warmup)
		winEnd   = winStart.Add(window)
	)
	done.Store(int64(finished))
	// A daemon that stops answering correctly never gets steady; the
	// clients then give up a minute after the window.
	giveUp := winEnd.Add(time.Minute)
	running := func() bool {
		now := time.Now()
		return now.Before(winEnd) || readings.Load() < rssReadings && now.Before(giveUp)
	}
	keep := func(s sample) {
		done.Add(1)
		if s.start.Before(winStart) || !s.start.Before(winEnd) {
			return
		}
		mu.Lock()
		lr.samples = append(lr.samples, s)
		if end := s.start.Add(s.lat).Sub(winStart); end > lr.elapsed {
			lr.elapsed = end
		}
		mu.Unlock()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running() {
				i := int(next.Add(1) - 1)
				if sp.session != nil {
					runSession(d, chk, sp, sp.session(i), running, keep)
					continue
				}
				if s, _, ok := solve(d, chk, sp, sp.next(i)); ok {
					keep(s)
				}
			}
		}()
	}
	time.Sleep(time.Until(winStart))
	before, errBefore := d.stats()
	stop := make(chan struct{})
	var errRSS error
	var sampled sync.WaitGroup
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if done.Load() < int64(steadyAfter) {
					continue
				}
				mb, err := d.memMB("VmRSS")
				if err != nil {
					errRSS = err
					readings.Store(rssReadings) // let the clients stop
					return
				}
				lr.rss = append(lr.rss, mb)
				readings.Add(1)
			}
		}
	}()
	time.Sleep(time.Until(winEnd))
	after, errAfter := d.stats()
	wg.Wait()
	close(stop)
	sampled.Wait()
	if errBefore != nil || errAfter != nil {
		return lr, fmt.Errorf("reading /stats: %v %v", errBefore, errAfter)
	}
	if errRSS != nil || len(lr.rss) == 0 {
		return lr, fmt.Errorf("reading the daemon's resident set: %v (%d readings)", errRSS, len(lr.rss))
	}
	lr.before, lr.after = before, after
	return lr, nil
}

// runSession opens a session, pushes one frame and solves after each push
// until the frames run out or running reports false, then closes it. One
// sample is one delta+solve step.
func runSession(d *daemon, chk *checker, sp *spec, steps []step, running func() bool, keep func(sample)) {
	body, ok := expect(d, chk, "POST", "/sessions?"+sp.query, nil, http.StatusCreated)
	if !ok {
		return
	}
	var open struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(body, &open); err != nil {
		chk.fail("malformed response", true)
		return
	}
	path := fmt.Sprintf("/sessions/%d", open.ID)
	acc := cnf.NewWCNF(0)
	for _, st := range steps {
		if !running() {
			break
		}
		start := time.Now()
		if _, ok := expect(d, chk, "POST", path+"/delta", st.body, http.StatusOK); !ok {
			break
		}
		code, body, err := d.do("POST", path+"/solve?wait=1", nil)
		lat := time.Since(start)
		if err != nil {
			chk.attempt()
			chk.fail("transport error", false)
			break
		}
		for _, c := range st.hards {
			acc.AddHard(c...)
		}
		acc.AddSoft(1, st.prop)
		r := chk.answer(acc, st.want, false, code, body)
		if r == nil {
			break
		}
		keep(sample{start: start, lat: lat, cached: r.Cached, elapsed: r.ElapsedSec, bytes: len(body)})
	}
	expect(d, chk, "DELETE", path, nil, http.StatusOK)
}

// expect sends one request whose only check is its HTTP status.
func expect(d *daemon, chk *checker, method, path string, body []byte, want int) ([]byte, bool) {
	code, b, err := d.do(method, path, body)
	if err != nil {
		chk.attempt()
		chk.fail("transport error", false)
		return nil, false
	}
	return b, chk.status(code, want)
}
