package maxsat

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// sessionScript drives one session through a randomized delta script and
// checks every intermediate solve against a from-scratch Solve of a
// test-maintained mirror of the accumulation — the differential contract:
// a delta re-solve answers exactly like a fresh solve.
type sessionScript struct {
	t    *testing.T
	name string
	rng  *rand.Rand
	opts Options

	sess    *Session
	acc     *WCNF // mirror: base plus every pushed clause, reweights applied
	softIdx []int // soft index (push order) → clause index in acc
	assume  []Lit // active assumptions

	weightedOK bool // the algorithm accepts non-unit weights
	reweighted bool // a reweight happened (warm solver retired)
	coldSolves int  // solves with active assumptions (warm path bypassed)
	solves     int
}

func (sc *sessionScript) push(d Delta) {
	sc.t.Helper()
	if err := sc.sess.Push(d); err != nil {
		sc.t.Fatalf("%s: push: %v", sc.name, err)
	}
	for _, c := range d.Hards {
		sc.acc.AddHard(c...)
	}
	for _, c := range d.Softs {
		sc.softIdx = append(sc.softIdx, len(sc.acc.Clauses))
		sc.acc.AddSoft(c.Weight, c.Clause...)
	}
	for _, rw := range d.Reweights {
		sc.acc.Clauses[sc.softIdx[rw.Soft]].Weight = rw.Weight
		sc.reweighted = true
	}
	if d.SetAssumptions {
		sc.assume = append([]Lit(nil), d.Assumptions...)
	}
}

// randomDelta builds one valid delta: hard clauses, soft clauses (weighted
// only under weighted-capable algorithms), a reweight, or an assumption
// update.
func (sc *sessionScript) randomDelta() Delta {
	rng := sc.rng
	freshVar := func() int { return 1 + rng.Intn(sc.acc.NumVars+1) }
	clause := func() Clause {
		width := 1 + rng.Intn(3)
		c := make(Clause, 0, width)
		for j := 0; j < width; j++ {
			v := freshVar()
			if rng.Intn(2) == 0 {
				v = -v
			}
			c = append(c, FromDIMACS(v))
		}
		return c
	}
	var d Delta
	switch op := rng.Intn(8); {
	case op < 3: // hard growth
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			d.Hards = append(d.Hards, clause())
		}
	case op < 6: // soft growth
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			w := Weight(1)
			if sc.weightedOK && rng.Intn(3) == 0 {
				w = Weight(2 + rng.Intn(3))
			}
			d.Softs = append(d.Softs, cnf.WClause{Clause: clause(), Weight: w})
		}
	case op == 6 && sc.weightedOK && len(sc.softIdx) > 0: // reweight
		d.Reweights = []SessionReweight{{
			Soft:   rng.Intn(len(sc.softIdx)),
			Weight: Weight(1 + rng.Intn(4)),
		}}
	default: // assumption update (sometimes a clear)
		d.SetAssumptions = true
		if rng.Intn(3) > 0 {
			v := freshVar()
			if rng.Intn(2) == 0 {
				v = -v
			}
			d.Assumptions = []Lit{FromDIMACS(v)}
		}
	}
	return d
}

// solveBoth runs the session solve and the from-scratch solve of the mirror
// and compares verdicts (and certificates, when enabled).
func (sc *sessionScript) solveBoth(step int) {
	sc.t.Helper()
	job, err := sc.sess.Solve(context.Background())
	if err != nil {
		sc.t.Fatalf("%s step %d: session solve: %v", sc.name, step, err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		sc.t.Fatalf("%s step %d: wait: %v", sc.name, step, err)
	}
	sc.solves++
	if len(sc.assume) > 0 {
		sc.coldSolves++
	}

	snap := sc.acc.Clone()
	for _, a := range sc.assume {
		snap.AddHard(a)
	}
	direct, err := Solve(snap, sc.opts)
	if err != nil {
		sc.t.Fatalf("%s step %d: from-scratch solve: %v", sc.name, step, err)
	}
	if res.Status != direct.Status || (res.Status == Optimal && res.Cost != direct.Cost) {
		sc.t.Fatalf("%s step %d: session %v cost %d, from-scratch %v cost %d",
			sc.name, step, res.Status, res.Cost, direct.Status, direct.Cost)
	}
	if res.Status == Optimal && res.Model != nil {
		cost, hardOK := snap.CostOf(res.Model)
		if !hardOK || cost != res.Cost {
			sc.t.Fatalf("%s step %d: model does not witness cost %d (hardOK=%v cost=%d)",
				sc.name, step, res.Cost, hardOK, cost)
		}
	}
	if sc.opts.Certify && (res.Status == Optimal || res.Status == Unsatisfiable) {
		if len(res.Certificate) == 0 {
			sc.t.Fatalf("%s step %d: certified session solve returned no certificate", sc.name, step)
		}
		if err := CheckCertificate(snap, res.Certificate); err != nil {
			sc.t.Fatalf("%s step %d: certificate rejected against accumulation: %v", sc.name, step, err)
		}
	}
}

// TestSessionDifferential is the randomized differential suite: delta
// scripts over gen-family bases × {msu3, msu4-v2, oll, portfolio} ×
// {preprocess on/off} × {certify on/off}; every intermediate session
// solve must return the same verdict as a from-scratch solve of the
// accumulated formula, with a verifiable certificate on the certified
// half of the configs.
func TestSessionDifferential(t *testing.T) {
	algos := []Algorithm{AlgoMSU3, AlgoMSU4V2, AlgoOLL, AlgoPortfolio}
	bases := []*WCNF{
		gen.Pigeonhole(3).W,
		gen.RandomKSAT(11, 10, 3, 4.4).W,
		gen.Coloring(1, 6, 12, 2).W,
		gen.EquivMiter(3).W,
	}
	cfg := 0
	for _, algo := range algos {
		for _, pre := range []bool{false, true} {
			for _, cert := range []bool{false, true} {
				cfg++
				name := fmt.Sprintf("%s/pre=%v/cert=%v", algo, pre, cert)
				opts := Options{
					Algorithm:  algo,
					Preprocess: pre,
					Certify:    cert,
				}
				base := bases[cfg%len(bases)]

				s := NewServer(ServerConfig{Workers: 2})
				sess, err := s.OpenSession(context.Background(), base, opts)
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				sc := &sessionScript{
					t:          t,
					name:       name,
					rng:        rand.New(rand.NewSource(int64(cfg) * 7919)),
					opts:       opts,
					sess:       sess,
					acc:        base.Clone(),
					weightedOK: !algoRequiresUnitWeights(algo),
				}
				for i, c := range sc.acc.Clauses {
					if !c.Hard() {
						sc.softIdx = append(sc.softIdx, i)
					}
				}
				sc.solveBoth(0)
				for step := 1; step <= 4; step++ {
					sc.push(sc.randomDelta())
					sc.solveBoth(step)
				}
				// The warm solver must have earned its keep on unweighted
				// unit-only accumulations with at least one assumption-free
				// solve.
				if !sc.acc.Weighted() && !sc.reweighted && sc.coldSolves < sc.solves {
					if _, reused := sess.Counters(); reused == 0 {
						t.Errorf("%s: warm solver never answered (%d solves)", name, sc.solves)
					}
				}
				sess.Close()
				s.Close()
			}
		}
	}
}

// TestSessionCrashRecovery: sessions are ephemeral across restarts, but a
// session's certified answers survive via the durable result store — the
// reopened session's first solve of an already-certified accumulation is a
// verified cache hit, counted in Stats.SessionHits.
func TestSessionCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := NewWCNF(1)
	base.AddSoft(1, FromDIMACS(1))
	base.AddSoft(1, FromDIMACS(-1))
	delta := Delta{Softs: []cnf.WClause{
		{Clause: Clause{FromDIMACS(2)}, Weight: 1},
		{Clause: Clause{FromDIMACS(-2)}, Weight: 1},
	}}

	s1, err := OpenServer(ServerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	sess, err := s1.OpenSession(context.Background(), base, Options{Algorithm: AlgoMSU3, Certify: true})
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	oldID := sess.ID()
	if err := sess.Push(delta); err != nil {
		t.Fatal(err)
	}
	job, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != Optimal || r1.Cost != 2 || len(r1.Certificate) == 0 {
		t.Fatalf("first life: %+v", r1)
	}
	s1.Close()

	s2, err := OpenServer(ServerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// The session itself did not survive — only its answers did.
	if _, ok := s2.Session(oldID); ok {
		t.Fatal("session survived a restart; sessions must be ephemeral")
	}
	sess2, err := s2.OpenSession(context.Background(), base, Options{Algorithm: AlgoMSU3, Certify: true})
	if err != nil {
		t.Fatalf("reopen session: %v", err)
	}
	defer sess2.Close()
	if err := sess2.Push(delta); err != nil {
		t.Fatal(err)
	}
	job2, err := sess2.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Status != Optimal || r2.Cost != 2 {
		t.Fatalf("second life: cached=%v %+v", r2.Cached, r2)
	}
	if err := CheckCertificate(sess2.Accumulated(), r2.Certificate); err != nil {
		t.Fatalf("recovered certificate: %v", err)
	}
	if st := s2.Stats(); st.SessionHits < 1 {
		t.Fatalf("SessionHits = %d, want >= 1", st.SessionHits)
	}
}

// TestPortfolioSessionKeyIsOneMember: every solve of a portfolio session
// races one member on the session's pinned slot, so a one-shot
// full-portfolio submission of the same accumulated formula must not
// coalesce onto it. The assumption keeps the warm engine out of the solve,
// and php-10 keeps the session solve running while the one-shot job is
// admitted.
func TestPortfolioSessionKeyIsOneMember(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2})
	defer s.Close()
	o := Options{Algorithm: AlgoPortfolio, Timeout: 700 * time.Millisecond}
	sess, err := s.OpenSession(context.Background(), gen.Pigeonhole(10).W, o)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	defer sess.Close()
	if err := sess.Assume(FromDIMACS(1)); err != nil {
		t.Fatal(err)
	}
	job, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.Submit(sess.Accumulated(), o)
	if err != nil {
		t.Fatal(err)
	}
	one.Cancel()
	if st := s.Stats(); st.Coalesced != 0 || one.ID() == job.ID() {
		t.Errorf("one-shot portfolio job %d attached to session job %d: Coalesced = %d, want 0",
			one.ID(), job.ID(), st.Coalesced)
	}
	for _, j := range []*Job{job, one} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionWarmAnswerNamesNoWinner: Winner names a portfolio race's
// member, so a warm session answer leaves it empty like any
// single-algorithm run, and a one-shot cache hit on the same formula does
// not pass an engine name on either.
func TestSessionWarmAnswerNamesNoWinner(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2})
	defer s.Close()
	base := NewWCNF(1)
	base.AddSoft(1, FromDIMACS(1))
	base.AddSoft(1, FromDIMACS(-1))
	sess, err := s.OpenSession(context.Background(), base, Options{Algorithm: AlgoMSU3})
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	defer sess.Close()
	job, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || warm.Cost != 1 || !warm.Reused || warm.Winner != "" {
		t.Fatalf("warm solve: status %v cost %d reused %t winner %q, want OPTIMAL 1, reused, no winner",
			warm.Status, warm.Cost, warm.Reused, warm.Winner)
	}
	one, err := s.Submit(sess.Accumulated(), Options{Algorithm: AlgoOLL})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := one.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Winner != "" {
		t.Fatalf("one-shot oll: cached %t winner %q, want a cache hit with no winner", hit.Cached, hit.Winner)
	}
}
