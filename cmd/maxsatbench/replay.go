package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/proof"
	"repro/internal/serve"
	"repro/internal/store"
)

// replayResult is what one pass over the replayed requests measured beyond
// its spans.
type replayResult struct {
	wall      time.Duration // the whole pass
	certBytes int           // certificates produced by opt.Certify
	certs     int
	incSolves int // session solves, and those that reused the kept trail
	incWarm   int
}

// replay runs the first n requests of sp's stream in-process on one
// goroutine, through the public functions of the layers the daemon calls for
// that workload, recording one root span per request and one child per call
// into rec (nil: untraced). served holds the results the daemon returned for
// the cert-repeat working set; hits re-check those exact bytes. dir receives
// the durable workload's store log.
func replay(sp *spec, n int, served map[*cnf.WCNF]*resultJSON, rec *recorder, dir string) (replayResult, error) {
	var out replayResult
	if sp.session != nil {
		var sessions [][]step
		for s := 0; len(sessions)*bmcDepth < n; s++ {
			sessions = append(sessions, sp.session(s))
		}
		start, req := time.Now(), 0
		for _, steps := range sessions {
			if err := replaySession(steps, &req, n, rec, &out); err != nil {
				return out, err
			}
		}
		out.wall = time.Since(start)
		return out, nil
	}
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = sp.next(i)
	}
	var log *store.Log
	if sp.durable {
		path := filepath.Join(dir, "replay.log")
		os.Remove(path) // each pass starts from an empty log
		l, _, _, err := store.Open(path, store.Options{})
		if err != nil {
			return out, err
		}
		defer l.Close()
		log = l
	}
	start := time.Now()
	ctx := context.Background()
	for i, jb := range jobs {
		root := rec.begin("request", i, 0)
		id := rec.begin("cnf.parse", i, root)
		w, err := cnf.ParseWCNF(bytes.NewReader(jb.body))
		rec.end(id)
		if err != nil {
			return out, err
		}
		id = rec.begin("serve.fingerprint", i, root)
		_ = serve.Fingerprint(w)
		rec.end(id)
		var res opt.Result
		if jb.hit {
			s, ok := served[jb.w]
			if !ok {
				return out, fmt.Errorf("request %d: no served answer for a working-set formula", i)
			}
			a, _ := assignment(s.Model, w.NumVars)
			res = opt.Result{Status: opt.StatusOptimal, Cost: cnf.Weight(s.Cost), LowerBound: cnf.Weight(s.Cost), Model: a, Certificate: s.Certificate}
			id = rec.begin("opt.verify", i, root)
			ok = opt.VerifyModel(w, res)
			rec.end(id)
			id = rec.begin("proof.check", i, root)
			err := proof.CheckBytes(w, res.Certificate)
			rec.end(id)
			if !ok || err != nil {
				return out, fmt.Errorf("request %d: served answer does not re-check: model ok %t, certificate %v", i, ok, err)
			}
		} else {
			var solver opt.Solver = core.NewMSU4V2(opt.Options{})
			if sp.durable {
				solver = core.NewOLL(opt.Options{})
			}
			id = rec.begin("core.solve", i, root)
			res = solver.Solve(ctx, w, nil)
			rec.endSolve(id, res)
			id = rec.begin("opt.verify", i, root)
			ok := opt.VerifyModel(w, res)
			rec.end(id)
			if !ok || res.Status != opt.StatusOptimal || res.Cost != jb.want {
				return out, fmt.Errorf("request %d: in-process solve %v cost %d, want OPTIMAL %d", i, res.Status, res.Cost, jb.want)
			}
			if sp.cert {
				id = rec.begin("opt.certify", i, root)
				res.Certificate, err = opt.Certify(ctx, w, res, opt.Options{})
				rec.end(id)
				if err != nil {
					return out, fmt.Errorf("request %d: certify: %v", i, err)
				}
				out.certs++
				out.certBytes += len(res.Certificate)
			}
			if log != nil {
				// The payload is sized like the serving layer's store record,
				// which holds the formula and its certificate.
				id = rec.begin("store.append", i, root)
				err = log.Append(1, append(jb.body[:len(jb.body):len(jb.body)], res.Certificate...), true)
				rec.end(id)
				if err != nil {
					return out, err
				}
			}
		}
		id = rec.begin("maxsatd.encode", i, root)
		_, err = json.Marshal(jobJSON{ID: uint64(i + 1), State: "done", Result: toResultJSON(res, jb.hit)})
		rec.end(id)
		rec.end(root)
		if err != nil {
			return out, err
		}
	}
	out.wall = time.Since(start)
	return out, nil
}

// replaySession replays one session's steps, counting each delta+solve as
// one request, until *req reaches n.
func replaySession(steps []step, req *int, n int, rec *recorder, out *replayResult) error {
	ctx := context.Background()
	inc := core.NewInc(opt.Options{}, nil)
	defer inc.Close()
	acc := cnf.NewWCNF(0)
	for _, st := range steps {
		if *req >= n {
			return nil
		}
		i := *req
		*req++
		root := rec.begin("request", i, 0)
		id := rec.begin("cnf.parse", i, root)
		frag, err := cnf.ParseWCNF(bytes.NewReader(st.body))
		rec.end(id)
		if err != nil {
			return err
		}
		var hards []cnf.Clause
		var softs []cnf.WClause
		for _, c := range frag.Clauses {
			if c.Hard() {
				hards = append(hards, c.Clause)
			} else {
				softs = append(softs, c)
			}
		}
		id = rec.begin("core.inc_absorb", i, root)
		inc.Absorb(hards, softs)
		rec.end(id)
		id = rec.begin("serve.accumulate", i, root)
		acc.Clauses = append(acc.Clauses, frag.Clauses...)
		acc.NumVars = max(acc.NumVars, frag.NumVars)
		snap := acc.Clone()
		rec.end(id)
		id = rec.begin("serve.fingerprint", i, root)
		_ = serve.Fingerprint(snap)
		rec.end(id)
		reused := inc.TrailReused()
		id = rec.begin("core.inc_solve", i, root)
		res := inc.SolveDelta(ctx, snap, nil)
		rec.endSolve(id, res)
		out.incSolves++
		if inc.TrailReused() > reused {
			out.incWarm++
		}
		id = rec.begin("opt.verify", i, root)
		ok := opt.VerifyModel(snap, res)
		rec.end(id)
		if !ok || res.Status != opt.StatusOptimal || res.Cost != st.want {
			return fmt.Errorf("session step k=%d: in-process solve %v cost %d, want OPTIMAL %d", st.k, res.Status, res.Cost, st.want)
		}
		id = rec.begin("maxsatd.encode", i, root)
		_, err = json.Marshal(jobJSON{ID: uint64(i + 1), State: "done", Result: toResultJSON(res, false)})
		rec.end(id)
		rec.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// toResultJSON builds the daemon's result shape, model included.
func toResultJSON(r opt.Result, cached bool) *resultJSON {
	out := &resultJSON{
		Status:      r.Status.String(),
		Cost:        int64(r.Cost),
		LowerBound:  int64(r.LowerBound),
		Algorithm:   r.Solver,
		Cached:      cached,
		Certificate: r.Certificate,
		ElapsedSec:  r.Elapsed.Seconds(),
		Model:       make([]int, len(r.Model)),
	}
	for v, val := range r.Model {
		out.Model[v] = v + 1
		if !val {
			out.Model[v] = -(v + 1)
		}
	}
	return out
}
