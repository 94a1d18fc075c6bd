//go:build !race

// The race detector slows every solve several times over, enough for some
// kept runs to reach the cap; this test checks search determinism, not
// concurrency, so the race job leaves it out.

package maxsat

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/opt"
	"repro/internal/portfolio"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters.golden from this build's searches")

const (
	goldenPath = "testdata/counters.golden"
	// goldenCap bounds every run. A run is kept only if it finished in
	// under goldenKeep when the file was recorded, ten times inside the
	// cap, so a kept run never reaches the cap and its counters cannot
	// depend on wall time.
	goldenCap  = 2 * time.Second
	goldenKeep = 200 * time.Millisecond

	excludedWeighted = "weighted instance under a unit-weight algorithm"
	excludedAborted  = "aborted"
	excludedSlow     = "over 200 ms"
)

// goldenRun solves one instance under one configuration. It returns
// ErrWeighted when the configuration takes unit weights only.
type goldenRun func(ctx context.Context, w *cnf.WCNF) (opt.Result, error)

type goldenConfig struct {
	name string
	run  goldenRun
}

// served runs a configuration the public API serves, through buildSolver.
func served(algo Algorithm, pre bool) goldenRun {
	return func(ctx context.Context, w *cnf.WCNF) (opt.Result, error) {
		s, _, err := buildSolver(w, Options{Algorithm: algo, Preprocess: pre})
		if err != nil {
			return opt.Result{}, err
		}
		return s.Solve(ctx, w, nil), nil
	}
}

// unitOnly runs a unit-weight optimizer built outside buildSolver.
func unitOnly(mk func(opt.Options) opt.Solver) goldenRun {
	return func(ctx context.Context, w *cnf.WCNF) (opt.Result, error) {
		if w.Weighted() {
			return opt.Result{}, ErrWeighted
		}
		return mk(opt.Options{}).Solve(ctx, w, nil), nil
	}
}

// goldenConfigs lists every deterministic configuration: the served ones,
// the paper's msu4 v1 and v2 as Table 1 builds them, and the portfolio's
// two Glucose-restart members run alone (the only served path through the
// Glucose restart code). The portfolio itself races and stays out.
func goldenConfigs(t *testing.T) []goldenConfig {
	out := []goldenConfig{
		{"msu4-v2", served(AlgoMSU4V2, false)},
		{"msu4-v2+pre", served(AlgoMSU4V2, true)},
		{"oll", served(AlgoOLL, false)},
		{"oll+pre", served(AlgoOLL, true)},
		{"msu1", served(AlgoMSU1, false)},
		{"msu2", served(AlgoMSU2, false)},
		{"msu3", served(AlgoMSU3, false)},
		{"msu3+pre", served(AlgoMSU3, true)},
		{"wmsu1", served(AlgoWMSU1, false)},
		{"wmsu4", served(AlgoWMSU4, false)},
		{"wmsu4+pre", served(AlgoWMSU4, true)},
		{"pbo", served(AlgoPBO, false)},
		{"pbo+pre", served(AlgoPBO, true)},
		{"pbo-bin", served(AlgoPBOBin, false)},
		{"maxsatz", served(AlgoBnB, false)},
		{"maxsatz+pre", served(AlgoBnB, true)},
	}
	for _, name := range []string{"msu4-bdd", "msu4-sorter"} {
		spec, ok := harness.SolverByName(name)
		if !ok {
			t.Fatalf("harness has no %s", name)
		}
		out = append(out, goldenConfig{name, unitOnly(spec.Make)})
	}
	members := map[string]string{"msu4-glucose": "portfolio/msu4-glucose", "msu3": "portfolio/msu3-glucose"}
	for _, m := range portfolio.DefaultMembers() {
		if name, ok := members[m.Name]; ok {
			out = append(out, goldenConfig{name, unitOnly(m.Make)})
			delete(members, m.Name)
		}
	}
	if len(members) != 0 {
		t.Fatalf("portfolio line-up lost %v", members)
	}
	return out
}

// goldenInstances is the genbench suite at its default seed: the Table 1
// and Table 2 suites and the weighted suite, 101 instances.
func goldenInstances(t *testing.T) []gen.Instance {
	insts := append(gen.Suite(42), gen.DebugSuite(42)...)
	insts = append(insts, gen.WeightedSuite(42)...)
	seen := make(map[string]bool, len(insts))
	for _, in := range insts {
		if seen[in.Name] {
			t.Fatalf("duplicate instance name %s", in.Name)
		}
		seen[in.Name] = true
	}
	return insts
}

// goldenLine renders one run: the counters that pin a search move for move,
// or the reason the run is excluded. slow marks a finished run that took
// longer than goldenKeep while the file was being recorded.
func goldenLine(config, inst string, r opt.Result, weighted, slow bool) string {
	prefix := config + " " + inst + " "
	switch {
	case weighted:
		return prefix + "excluded: " + excludedWeighted
	case r.Status == opt.StatusUnknown:
		return prefix + "excluded: " + excludedAborted
	case slow:
		return prefix + "excluded: " + excludedSlow
	}
	return fmt.Sprintf("%s%s cost=%d iters=%d sat=%d unsat=%d conflicts=%d",
		prefix, r.Status, r.Cost, r.Iterations, r.SatCalls, r.UnsatCalls, r.Conflicts)
}

// goldenSolve runs one configuration on one instance under the cap.
func goldenSolve(run goldenRun, w *cnf.WCNF) (opt.Result, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), goldenCap)
	defer cancel()
	start := time.Now()
	r, err := run(ctx, w.Clone())
	return r, time.Since(start), err
}

// sessionSteps replays the session-bmc workload's search in process: a
// core.Inc engine takes gen.BMCCounterFrames(6, 96) one frame at a time,
// one Absorb and one SolveDelta per frame, and reports every step. The
// engine is warm across steps, so every step runs whether or not its line
// is compared.
func sessionSteps(report func(inst string, r opt.Result, elapsed time.Duration)) {
	inc := core.NewInc(opt.Options{}, nil)
	defer inc.Close()
	acc := cnf.NewWCNF(0)
	for k, fr := range gen.BMCCounterFrames(6, 96) {
		soft := cnf.WClause{Clause: cnf.Clause{fr.Prop}, Weight: 1}
		inc.Absorb(fr.Hards, []cnf.WClause{soft})
		for _, c := range fr.Hards {
			acc.AddHard(c...)
		}
		acc.AddSoft(1, fr.Prop)
		acc.NumVars = max(acc.NumVars, fr.Vars)
		ctx, cancel := context.WithTimeout(context.Background(), goldenCap)
		start := time.Now()
		r := inc.SolveDelta(ctx, acc, nil)
		elapsed := time.Since(start)
		cancel()
		report(fmt.Sprintf("bmc-counter-6-k%d", k+1), r, elapsed)
	}
}

// TestGoldenCounters pins the search of every deterministic configuration
// on the genbench suite: status, cost, iterations, SAT and UNSAT calls and
// conflicts must match testdata/counters.golden line for line. A change
// that must keep every search (a refactor or a deletion of code no served
// path reaches) leaves the file as it is; one that changes a search
// rewrites it with
//
//	go test -run '^TestGoldenCounters$' -update .
//
// and says why. Runs the file lists as excluded are not solved again.
func TestGoldenCounters(t *testing.T) {
	configs := goldenConfigs(t)
	insts := goldenInstances(t)
	want := map[string][]string{}
	if !*updateGolden {
		want = readGolden(t)
	}

	// got[i] is configuration i's lines, the last entry the session's; each
	// subtest writes only its own entry.
	got := make([][]string, len(configs)+1)
	t.Run("group", func(t *testing.T) {
		for ci, c := range configs {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				golden := want[c.name]
				if !*updateGolden && len(golden) != len(insts) {
					t.Fatalf("%s: %d golden lines for %d instances; the suite changed, rerun with -update", c.name, len(golden), len(insts))
				}
				var lines []string
				for i, in := range insts {
					if !*updateGolden {
						if reason, ok := excludedReason(golden[i]); ok && reason != excludedWeighted {
							lines = append(lines, golden[i])
							continue
						}
					}
					r, elapsed, err := goldenSolve(c.run, in.W)
					weighted := errors.Is(err, ErrWeighted)
					if err != nil && !weighted {
						t.Fatalf("%s %s: %v", c.name, in.Name, err)
					}
					line := goldenLine(c.name, in.Name, r, weighted, *updateGolden && elapsed > goldenKeep)
					lines = append(lines, line)
					if !*updateGolden && line != golden[i] {
						t.Errorf("search moved (%v):\n got  %s\n want %s", elapsed, line, golden[i])
					}
				}
				got[ci] = lines
			})
		}
		t.Run("session-bmc", func(t *testing.T) {
			t.Parallel()
			const name = "session-bmc"
			golden := want[name]
			var lines []string
			sessionSteps(func(inst string, r opt.Result, elapsed time.Duration) {
				line := goldenLine(name, inst, r, false, *updateGolden && elapsed > goldenKeep)
				i := len(lines)
				if !*updateGolden {
					if i >= len(golden) {
						t.Fatalf("%s: more steps than golden lines (%d); rerun with -update", name, len(golden))
					}
					if _, ok := excludedReason(golden[i]); ok {
						line = golden[i]
					} else if line != golden[i] {
						t.Errorf("search moved:\n got  %s\n want %s", line, golden[i])
					}
				}
				lines = append(lines, line)
			})
			if !*updateGolden && len(lines) != len(golden) {
				t.Fatalf("%s: %d steps, %d golden lines; rerun with -update", name, len(lines), len(golden))
			}
			got[len(configs)] = lines
		})
	})

	if *updateGolden && !t.Failed() {
		writeGolden(t, got)
	}
}

// TestObservedSolveKeepsSearch checks that observing a solve leaves its
// search alone. Every single algorithm buildSolver serves, with and without
// Preprocess, solves a fixed set of golden instances twice: handed nil
// bounds and handed opt.NewBounds(). Both runs must report the same
// counters, and the bounds must end with the upper bound at the result's
// cost and the lower bound at most that cost. The set is the instances that
// every served configuration in the golden file finished under goldenKeep
// (47: 40 unweighted and 7 weighted).
func TestObservedSolveKeepsSearch(t *testing.T) {
	golden := readGolden(t)
	insts := goldenInstances(t)
	var set []gen.Instance
	for i, in := range insts {
		if finishedByAll(golden, i) {
			set = append(set, in)
		}
	}
	for _, algo := range Algorithms() {
		if algo == AlgoPortfolio {
			continue // races: its counters vary from run to run
		}
		for _, pre := range []bool{false, true} {
			name := string(algo)
			if pre {
				name += "+pre"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				solve := func(w *cnf.WCNF, shared *opt.Bounds) (opt.Result, error) {
					r, _, err := goldenSolve(func(ctx context.Context, w *cnf.WCNF) (opt.Result, error) {
						s, _, err := buildSolver(w, Options{Algorithm: algo, Preprocess: pre})
						if err != nil {
							return opt.Result{}, err
						}
						return s.Solve(ctx, w, shared), nil
					}, w)
					return r, err
				}
				for _, in := range set {
					quiet, err := solve(in.W, nil)
					if errors.Is(err, ErrWeighted) {
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", in.Name, err)
					}
					if quiet.Status == opt.StatusUnknown {
						t.Fatalf("%s: no longer finishes under the %v cap", in.Name, goldenCap)
					}
					b := opt.NewBounds()
					watched, _ := solve(in.W, b)
					q, got := goldenLine(name, in.Name, quiet, false, false), goldenLine(name, in.Name, watched, false, false)
					if q != got {
						t.Errorf("observing the solve moved its search:\n nil bounds    %s\n shared bounds %s", q, got)
						continue
					}
					if quiet.Status != opt.StatusOptimal {
						continue
					}
					if ub, ok := b.UB(); !ok || ub != watched.Cost {
						t.Errorf("%s: bounds end with UB %d (set %v), result cost %d", in.Name, ub, ok, watched.Cost)
					}
					if lb, ok := b.LB(); ok && lb > watched.Cost {
						t.Errorf("%s: bounds end with LB %d above the result cost %d", in.Name, lb, watched.Cost)
					}
				}
			})
		}
	}
}

// finishedByAll reports whether every served configuration in the golden
// file that takes instance i finished it under goldenKeep when the file was
// recorded.
func finishedByAll(golden map[string][]string, i int) bool {
	for _, algo := range Algorithms() {
		for _, name := range []string{string(algo), string(algo) + "+pre"} {
			lines := golden[name]
			if lines == nil {
				continue
			}
			if reason, ok := excludedReason(lines[i]); ok && reason != excludedWeighted {
				return false
			}
		}
	}
	return true
}

// excludedReason returns the reason of an excluded golden line.
func excludedReason(line string) (string, bool) {
	_, reason, ok := strings.Cut(line, " excluded: ")
	return reason, ok
}

// readGolden returns the golden lines per configuration, in file order.
func readGolden(t *testing.T) map[string][]string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	defer f.Close()
	out := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		config, _, _ := strings.Cut(line, " ")
		out[config] = append(out[config], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, got [][]string) {
	var b strings.Builder
	b.WriteString("# Search counters per (configuration, instance) on the genbench suite\n")
	b.WriteString("# (seed 42) and per step of a core.Inc replay of gen.BMCCounterFrames(6, 96).\n")
	b.WriteString("# Checked by TestGoldenCounters; rewrite with\n")
	b.WriteString("#   go test -run '^TestGoldenCounters$' -update .\n")
	b.WriteString("# A run is kept if it finished in under 200 ms (2 s cap) when recorded.\n")
	kept, excluded := 0, 0
	for _, lines := range got {
		for _, line := range lines {
			if _, ok := excludedReason(line); ok {
				excluded++
			} else {
				kept++
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d kept runs, %d excluded", goldenPath, kept, excluded)
}
