// Package harness runs MaxSAT solver line-ups over benchmark suites under
// per-instance timeouts and renders the paper's artifacts: abort-count
// tables (Tables 1 and 2) and log-log scatter plots (Figures 1–3).
package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bnb"
	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/pbo"
	"repro/internal/portfolio"
)

// SolverSpec names a solver and knows how to build a fresh instance of it
// for one run (fresh state per instance, like restarting the binary).
type SolverSpec struct {
	Name string
	Make func(o opt.Options) opt.Solver
}

// DefaultSolvers returns the paper's Table 1 line-up: maxsatz, the PBO
// formulation, the paper's two msu4 versions, which re-encode the line-30
// bound at every improvement (v1 with BDDs as msu4-bdd, v2 with sorting
// networks as msu4-sorter), and msu4-v2, the incremental-totalizer msu4
// this repository serves.
func DefaultSolvers() []SolverSpec {
	return []SolverSpec{
		{Name: "maxsatz", Make: func(opt.Options) opt.Solver { return bnb.New() }},
		{Name: "pbo", Make: func(o opt.Options) opt.Solver { return &pbo.Linear{Opts: o} }},
		{Name: "msu4-bdd", Make: func(o opt.Options) opt.Solver {
			return &core.MSU4{Opts: o, ReencodeBounds: true, Encoding: card.BDD}
		}},
		{Name: "msu4-sorter", Make: func(o opt.Options) opt.Solver {
			return &core.MSU4{Opts: o, ReencodeBounds: true, Encoding: card.Sorter}
		}},
		{Name: "msu4-v2", Make: func(o opt.Options) opt.Solver { return core.NewMSU4V2(o) }},
	}
}

// ExtendedSolvers adds the related-work algorithms (msu1/msu2/msu3) and the
// binary-search PBO variant to the default line-up.
func ExtendedSolvers() []SolverSpec {
	out := DefaultSolvers()
	out = append(out,
		SolverSpec{Name: "msu1", Make: func(o opt.Options) opt.Solver { return core.NewMSU1(o) }},
		SolverSpec{Name: "msu2", Make: func(o opt.Options) opt.Solver { return core.NewMSU2(o) }},
		SolverSpec{Name: "msu3", Make: func(o opt.Options) opt.Solver { return core.NewMSU3(o) }},
		SolverSpec{Name: "wmsu1", Make: func(o opt.Options) opt.Solver { return core.NewWMSU1(o) }},
		SolverSpec{Name: "wmsu4", Make: func(o opt.Options) opt.Solver { return core.NewWMSU4(o) }},
		SolverSpec{Name: "oll", Make: func(o opt.Options) opt.Solver { return core.NewOLL(o) }},
		SolverSpec{Name: "pbo-bin", Make: func(o opt.Options) opt.Solver { return &pbo.BinarySearch{Opts: o} }},
	)
	return out
}

// WeightedSolvers is the line-up for the weighted-table experiment: every
// complete weighted-capable algorithm in the repo, with the core-guided
// pair (wmsu4, oll) alongside the PBO baselines.
func WeightedSolvers() []SolverSpec {
	return []SolverSpec{
		{Name: "pbo", Make: func(o opt.Options) opt.Solver { return &pbo.Linear{Opts: o} }},
		{Name: "pbo-bin", Make: func(o opt.Options) opt.Solver { return &pbo.BinarySearch{Opts: o} }},
		{Name: "wmsu1", Make: func(o opt.Options) opt.Solver { return core.NewWMSU1(o) }},
		{Name: "wmsu4", Make: func(o opt.Options) opt.Solver { return core.NewWMSU4(o) }},
		{Name: "oll", Make: func(o opt.Options) opt.Solver { return core.NewOLL(o) }},
	}
}

// WithPreprocessing returns a copy of spec whose solver runs behind the
// soft-aware preprocessing stage (opt.Preprocessed); its column is named
// "<name>+pre" so with/without runs sit side by side in the paper-style
// tables.
func WithPreprocessing(spec SolverSpec) SolverSpec {
	mk := spec.Make
	return SolverSpec{Name: spec.Name + "+pre", Make: func(o opt.Options) opt.Solver {
		return opt.Preprocessed(mk(o))
	}}
}

// ComparePreprocessing doubles every spec with its preprocessing-enabled
// twin, interleaved (name, name+pre, ...), for Table-1-style with/without
// comparisons. CheckAgreement then doubles as a differential test: a
// preprocessed column disagreeing with its raw twin fails the run.
func ComparePreprocessing(specs []SolverSpec) []SolverSpec {
	out := make([]SolverSpec, 0, 2*len(specs))
	for _, s := range specs {
		out = append(out, s, WithPreprocessing(s))
	}
	return out
}

// PortfolioSpec returns a spec racing the default portfolio line-up with
// the given parallelism, so experiment reports can show a portfolio row
// next to the paper's per-algorithm rows.
func PortfolioSpec(jobs int) SolverSpec {
	name := "portfolio"
	if jobs > 0 {
		name = fmt.Sprintf("portfolio-%d", jobs)
	}
	return SolverSpec{Name: name, Make: func(o opt.Options) opt.Solver {
		e := portfolio.New(o, jobs)
		e.Label = name
		return e
	}}
}

// SolverByName returns the spec with the given name from the extended
// line-up.
func SolverByName(name string) (SolverSpec, bool) {
	for _, s := range ExtendedSolvers() {
		if s.Name == name {
			return s, true
		}
	}
	return SolverSpec{}, false
}

// Config controls a harness run.
type Config struct {
	// Timeout is the per-instance, per-solver wall-clock budget (the
	// paper's 1000 s, scaled; see EXPERIMENTS.md).
	Timeout time.Duration
	// Solvers is the line-up; nil selects DefaultSolvers.
	Solvers []SolverSpec
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

// RunResult is the outcome of one (instance, solver) run.
type RunResult struct {
	Instance string
	Family   string
	Solver   string
	Status   opt.Status
	Cost     cnf.Weight
	Elapsed  time.Duration
	// Aborted mirrors the paper's "aborted instances": the solver failed to
	// prove an optimum (or hard-unsatisfiability) within the timeout.
	Aborted bool
}

// Report aggregates a harness run.
type Report struct {
	Solvers   []string
	Instances []gen.Instance
	Timeout   time.Duration
	// Results[i][s]: instance i, solver s.
	Results [][]RunResult
}

// Run executes every solver on every instance.
func Run(insts []gen.Instance, cfg Config) *Report {
	specs := cfg.Solvers
	if specs == nil {
		specs = DefaultSolvers()
	}
	rep := &Report{Timeout: cfg.Timeout, Instances: insts}
	for _, s := range specs {
		rep.Solvers = append(rep.Solvers, s.Name)
	}
	for _, in := range insts {
		row := make([]RunResult, len(specs))
		for si, spec := range specs {
			solver := spec.Make(opt.Options{})
			ctx := context.Background()
			var cancel context.CancelFunc = func() {}
			if cfg.Timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			}
			start := time.Now()
			r := solver.Solve(ctx, in.W, nil)
			cancel()
			elapsed := time.Since(start)
			row[si] = RunResult{
				Instance: in.Name,
				Family:   in.Family,
				Solver:   spec.Name,
				Status:   r.Status,
				Cost:     r.Cost,
				Elapsed:  elapsed,
				Aborted:  r.Status == opt.StatusUnknown,
			}
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-28s %-12s %v\n", in.Name, spec.Name, r)
			}
		}
		rep.Results = append(rep.Results, row)
	}
	return rep
}

// AbortCounts returns the per-solver aborted-instance counts — the rows of
// Tables 1 and 2.
func (r *Report) AbortCounts() map[string]int {
	out := map[string]int{}
	for _, row := range r.Results {
		for _, res := range row {
			if res.Aborted {
				out[res.Solver]++
			}
		}
	}
	return out
}

// RenderAbortTable writes the paper-style abort table.
func (r *Report) RenderAbortTable(w io.Writer, title string) {
	counts := r.AbortCounts()
	fmt.Fprintf(w, "%s (timeout %v per instance)\n", title, r.Timeout)
	fmt.Fprintf(w, "%-8s", "Total")
	for _, s := range r.Solvers {
		fmt.Fprintf(w, " %10s", s)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8d", len(r.Instances))
	for _, s := range r.Solvers {
		fmt.Fprintf(w, " %10d", counts[s])
	}
	fmt.Fprintln(w)
}

// CheckAgreement verifies that all solvers that proved an optimum agree on
// the cost, and that the cost matches the instance's analytically known
// optimum where available. It returns the list of inconsistencies.
func (r *Report) CheckAgreement() []string {
	var problems []string
	for i, row := range r.Results {
		known := r.Instances[i].KnownCost
		agreed := cnf.Weight(-1)
		for _, res := range row {
			if res.Status != opt.StatusOptimal {
				continue
			}
			if known >= 0 && res.Cost != known {
				problems = append(problems, fmt.Sprintf(
					"%s: %s found cost %d, known optimum %d",
					res.Instance, res.Solver, res.Cost, known))
			}
			if agreed < 0 {
				agreed = res.Cost
			} else if res.Cost != agreed {
				problems = append(problems, fmt.Sprintf(
					"%s: %s found cost %d, another solver found %d",
					res.Instance, res.Solver, res.Cost, agreed))
			}
		}
	}
	return problems
}

// ScatterPoint is one instance in a solver-vs-solver comparison; times are
// clamped to the timeout for aborted runs (as in the paper's plots, where
// aborts sit on the timeout border).
type ScatterPoint struct {
	Instance string
	X, Y     float64 // seconds
}

// Scatter extracts the Figure 1–3 data: x = time of solverX, y = time of
// solverY per instance.
func (r *Report) Scatter(solverX, solverY string) []ScatterPoint {
	xi, yi := -1, -1
	for i, s := range r.Solvers {
		if s == solverX {
			xi = i
		}
		if s == solverY {
			yi = i
		}
	}
	if xi < 0 || yi < 0 {
		return nil
	}
	clamp := func(res RunResult) float64 {
		if res.Aborted && r.Timeout > 0 {
			return r.Timeout.Seconds()
		}
		t := res.Elapsed.Seconds()
		if r.Timeout > 0 && t > r.Timeout.Seconds() {
			t = r.Timeout.Seconds()
		}
		return t
	}
	var out []ScatterPoint
	for _, row := range r.Results {
		out = append(out, ScatterPoint{
			Instance: row[xi].Instance,
			X:        clamp(row[xi]),
			Y:        clamp(row[yi]),
		})
	}
	return out
}

// WriteScatterCSV emits the scatter data as CSV (instance, x, y).
func (r *Report) WriteScatterCSV(w io.Writer, solverX, solverY string) {
	fmt.Fprintf(w, "instance,%s,%s\n", solverX, solverY)
	for _, p := range r.Scatter(solverX, solverY) {
		fmt.Fprintf(w, "%s,%.6f,%.6f\n", p.Instance, p.X, p.Y)
	}
}

// WriteCSV emits the full result table as CSV.
func (r *Report) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "instance,family,solver,status,cost,seconds,aborted")
	for _, row := range r.Results {
		for _, res := range row {
			fmt.Fprintf(w, "%s,%s,%s,%s,%d,%.6f,%v\n",
				res.Instance, res.Family, res.Solver, res.Status,
				res.Cost, res.Elapsed.Seconds(), res.Aborted)
		}
	}
}
