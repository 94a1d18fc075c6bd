package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
)

// job is one /solve request: the renamed formula the client keeps for
// checking, its wire form, and the reference optimum.
type job struct {
	w    *cnf.WCNF
	body []byte
	want cnf.Weight
	hit  bool // drawn from a prefilled working set, so the daemon should answer from its cache
}

// step is one session request pair: a delta (one renamed BMC frame) and the
// solve after it.
type step struct {
	k     int          // depth after this delta
	hards []cnf.Clause // renamed frame clauses
	prop  cnf.Lit      // renamed property literal, pushed as a unit soft clause
	body  []byte       // the delta in the headerless 2022 dialect
	want  cnf.Weight   // k - floor(k/64)
}

// Session workload shape: a 6-bit counter unrolled to depth 96, so the
// optimum k - floor(k/64) dips once inside every session.
const (
	bmcBits  = 6
	bmcDepth = 96
)

// spec is one named workload: how its daemon runs, what is filled in before
// the timed window, and the request stream the window draws from. Every
// stream is a pure function of the seed and the request index.
type spec struct {
	name       string
	durable    bool     // run a first daemon life that stores prefill, then measure restarts
	daemonArgs []string // beyond the common -addr/-workers/-drain
	query      string   // /solve query (one-shot) or /sessions query (sessions)
	cert       bool     // answers must carry certificates
	prefill    []job    // submitted untimed before the window
	next       func(i int) job
	session    func(s int) []step // nil for one-shot workloads
}

// suiteSeed fixes the generator suites. The benchmark seed picks only the
// renamings, so runs with different seeds submit the same instances under
// different names and measure the same work.
const suiteSeed = 1

var workloadNames = []string{"cold-unique", "cert-repeat", "session-bmc", "durable-weighted"}

// newSpec builds the named workload for seed. prefill sizes the durable
// workload's stored first life.
func newSpec(name string, seed int64, prefill int) (*spec, error) {
	switch name {
	case "cold-unique":
		insts := gen.Suite(suiteSeed)
		want, err := optima(insts)
		if err != nil {
			return nil, err
		}
		return &spec{
			name:  name,
			query: "wait=1&model=1",
			next: func(i int) job {
				j := i % len(insts)
				return newJob(insts[j].W, want[j], rngFor(seed, "cold", i))
			},
		}, nil
	case "cert-repeat":
		insts := gen.Suite(suiteSeed)
		want, err := optima(insts)
		if err != nil {
			return nil, err
		}
		// The working set does not depend on the seed: its slowest hits
		// re-check one php-7 certificate and set p99_ms, and drawing that
		// renaming per seed made p99_ms vary by 20-30% between seeds.
		set := make([]job, 0, 2*len(insts))
		for r := 0; r < 2; r++ {
			for j := range insts {
				jb := newJob(insts[j].W, want[j], rngFor(suiteSeed, "set", r*len(insts)+j))
				jb.hit = true
				set = append(set, jb)
			}
		}
		return &spec{
			name:    name,
			query:   "wait=1&cert=1",
			cert:    true,
			prefill: set,
			// Every tenth request is a fresh renaming, cycling through the
			// suite; the other nine pick from the working set, each formula
			// once per pass in a seeded order. Balanced schedules keep the
			// draw of a few heavy misses from deciding the tail of a run.
			next: func(i int) job {
				b, p := i/10, i%10
				if p == 9 {
					j := b % len(insts)
					return newJob(insts[j].W, want[j], rngFor(seed, "fresh", b))
				}
				k := 9*b + p
				return set[rngFor(seed, "pass", k/len(set)).Perm(len(set))[k%len(set)]]
			},
		}, nil
	case "session-bmc":
		frames := gen.BMCCounterFrames(bmcBits, bmcDepth)
		return &spec{
			name:       name,
			daemonArgs: []string{"-sessions", "2"},
			query:      "alg=msu3",
			session: func(s int) []step {
				return sessionSteps(frames, rngFor(seed, "session", s))
			},
		}, nil
	case "durable-weighted":
		insts := gen.WeightedSuite(suiteSeed)
		want, err := optima(insts)
		if err != nil {
			return nil, err
		}
		stored := make([]job, prefill)
		for i := range stored {
			j := i % len(insts)
			stored[i] = newJob(insts[j].W, want[j], rngFor(seed, "stored", i))
		}
		return &spec{
			name:    name,
			durable: true,
			query:   "wait=1&alg=oll&cert=1",
			cert:    true,
			prefill: stored,
			next: func(i int) job {
				j := i % len(insts)
				return newJob(insts[j].W, want[j], rngFor(seed, "durable", i))
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// optima returns the reference optimum of each instance: the generator's
// KnownCost, or one in-process solve when that is unknown (-1).
func optima(insts []gen.Instance) ([]cnf.Weight, error) {
	want := make([]cnf.Weight, len(insts))
	for i, in := range insts {
		if in.KnownCost >= 0 {
			want[i] = in.KnownCost
			continue
		}
		var s opt.Solver = core.NewMSU4V2(opt.Options{})
		if in.W.Weighted() {
			s = core.NewOLL(opt.Options{})
		}
		res := s.Solve(context.Background(), in.W, nil)
		if res.Status != opt.StatusOptimal {
			return nil, fmt.Errorf("reference solve of %s: %v", in.Name, res.Status)
		}
		want[i] = res.Cost
	}
	return want, nil
}

// rngFor derives the generator for request i of a named stream.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// renaming is a signed permutation of variables. Applied to every clause it
// maps assignments bijectively onto assignments with the same clause truth
// values, so it preserves the optimum while changing the fingerprint.
type renaming struct {
	perm []int
	flip []bool
}

func newRenaming(vars int, rng *rand.Rand) renaming {
	r := renaming{perm: rng.Perm(vars), flip: make([]bool, vars)}
	for v := range r.flip {
		r.flip[v] = rng.Intn(2) == 1
	}
	return r
}

func (r renaming) lit(l cnf.Lit) cnf.Lit {
	v := l.Var()
	return cnf.NewLit(cnf.Var(r.perm[v]), l.Sign() != r.flip[v])
}

// clause renames c and shuffles its literals.
func (r renaming) clause(c cnf.Clause, rng *rand.Rand) cnf.Clause {
	out := make(cnf.Clause, len(c))
	for i, l := range c {
		out[i] = r.lit(l)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newJob renames w and shuffles its clause order.
func newJob(w *cnf.WCNF, want cnf.Weight, rng *rand.Rand) job {
	r := newRenaming(w.NumVars, rng)
	out := &cnf.WCNF{NumVars: w.NumVars, Clauses: make([]cnf.WClause, len(w.Clauses))}
	for i, c := range w.Clauses {
		out.Clauses[i] = cnf.WClause{Clause: r.clause(c.Clause, rng), Weight: c.Weight}
	}
	rng.Shuffle(len(out.Clauses), func(i, j int) { out.Clauses[i], out.Clauses[j] = out.Clauses[j], out.Clauses[i] })
	return job{w: out, body: appendWCNF(nil, out), want: want}
}

// sessionSteps renames one BMC unrolling for a whole session: the same
// renaming applies to every frame, so the accumulated formula at depth k is
// a renaming of the depth-k instance.
func sessionSteps(frames []gen.BMCFrame, rng *rand.Rand) []step {
	r := newRenaming(frames[len(frames)-1].Vars, rng)
	steps := make([]step, len(frames))
	for i, fr := range frames {
		k := i + 1
		st := step{k: k, prop: r.lit(fr.Prop), want: cnf.Weight(k - k/(1<<bmcBits))}
		st.hards = make([]cnf.Clause, len(fr.Hards))
		for j, c := range fr.Hards {
			st.hards[j] = r.clause(c, rng)
		}
		rng.Shuffle(len(st.hards), func(i, j int) { st.hards[i], st.hards[j] = st.hards[j], st.hards[i] })
		var b []byte
		for _, c := range st.hards {
			b = appendClause(append(b, "h "...), c)
		}
		st.body = appendClause(append(b, "1 "...), cnf.Clause{st.prop})
		steps[i] = st
	}
	return steps
}

// appendWCNF writes w in the classic "p wcnf" dialect with hard clauses at
// weight top = soft sum + 1. It does what cnf.WriteWCNF does without the
// per-literal formatting cost, which would otherwise take client CPU from the
// daemon on a small machine.
func appendWCNF(b []byte, w *cnf.WCNF) []byte {
	top := int64(w.SoftWeightSum()) + 1
	b = fmt.Appendf(b, "p wcnf %d %d %d\n", w.NumVars, len(w.Clauses), top)
	for _, c := range w.Clauses {
		wt := int64(c.Weight)
		if c.Hard() {
			wt = top
		}
		b = appendClause(append(strconv.AppendInt(b, wt, 10), ' '), c.Clause)
	}
	return b
}

func appendClause(b []byte, c cnf.Clause) []byte {
	for _, l := range c {
		b = append(strconv.AppendInt(b, int64(l.DIMACS()), 10), ' ')
	}
	return append(b, "0\n"...)
}
