// Command experiments regenerates the evaluation artifacts of the DATE 2008
// paper on the synthesized benchmark suites:
//
//	table1  — aborted-instance counts for maxsatz / pbo / msu4-bdd /
//	          msu4-sorter / msu4-v2: the paper's msu4 v1 and v2, which
//	          re-encode the bound with BDDs and sorting networks, beside the
//	          served incremental-totalizer msu4-v2
//	table2  — aborted counts on the 29 design-debugging instances
//	wtable  — weighted suite across pbo / pbo-bin / wmsu1 / wmsu4 / oll
//	fig1    — scatter maxsatz vs msu4-v2 (ASCII + CSV)
//	fig2    — scatter pbo vs msu4-v2
//	fig3    — scatter msu4-bdd vs msu4-sorter (the paper's v1 vs v2)
//	all     — everything above, plus the cross-solver agreement check
//
// Usage:
//
//	experiments [-run all] [-timeout 5s] [-seed 42] [-extended] [-pre] [-portfolio N] [-csv dir] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gen"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		what      = fs.String("run", "all", "experiment: table1, table2, wtable, fig1, fig2, fig3, all")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-instance per-solver timeout (paper: 1000s)")
		seed      = fs.Int64("seed", 42, "benchmark generator seed")
		extended  = fs.Bool("extended", false, "add msu1/msu2/msu3/pbo-bin to the line-up")
		pre       = fs.Bool("pre", false, "double every solver with a preprocessing-enabled +pre column")
		portfolio = fs.Int("portfolio", 0, "also run the bound-sharing portfolio with N parallel solvers (0 = off)")
		csvDir    = fs.String("csv", "", "also write CSV files into this directory")
		verbose   = fs.Bool("v", false, "per-run progress output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := harness.Config{Timeout: *timeout}
	if *extended {
		cfg.Solvers = harness.ExtendedSolvers()
	}
	if *pre {
		if cfg.Solvers == nil {
			cfg.Solvers = harness.DefaultSolvers()
		}
		cfg.Solvers = harness.ComparePreprocessing(cfg.Solvers)
	}
	if *portfolio > 0 {
		if cfg.Solvers == nil {
			cfg.Solvers = harness.DefaultSolvers()
		}
		cfg.Solvers = append(cfg.Solvers, harness.PortfolioSpec(*portfolio))
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}

	needMain := *what == "all" || *what == "table1" || *what == "fig1" || *what == "fig2" || *what == "fig3"
	needDebug := *what == "all" || *what == "table2"
	needWeighted := *what == "all" || *what == "wtable"

	var mainRep, debugRep, weightedRep *harness.Report
	if needMain {
		insts := gen.Suite(*seed)
		fmt.Fprintf(out, "running %d industrial-style instances x %d solvers (timeout %v) ...\n",
			len(insts), len(solverNames(cfg)), *timeout)
		mainRep = harness.Run(insts, cfg)
	}
	if needDebug {
		insts := gen.DebugSuite(*seed)
		fmt.Fprintf(out, "running %d design-debugging instances x %d solvers (timeout %v) ...\n",
			len(insts), len(solverNames(cfg)), *timeout)
		debugRep = harness.Run(insts, cfg)
	}
	if needWeighted {
		// The weighted table runs its own line-up: the unweighted branch-
		// and-bound and msu4 columns cannot prove weighted optima.
		wcfg := harness.Config{Timeout: *timeout, Solvers: harness.WeightedSolvers(), Progress: cfg.Progress}
		if *pre {
			wcfg.Solvers = harness.ComparePreprocessing(wcfg.Solvers)
		}
		insts := gen.WeightedSuite(*seed)
		fmt.Fprintf(out, "running %d weighted instances x %d solvers (timeout %v) ...\n",
			len(insts), len(wcfg.Solvers), *timeout)
		weightedRep = harness.Run(insts, wcfg)
	}

	switch *what {
	case "table1":
		mainRep.RenderAbortTable(out, "Table 1: number of aborted instances")
	case "table2":
		debugRep.RenderAbortTable(out, "Table 2: design debugging instances (aborted)")
	case "wtable":
		weightedRep.RenderAbortTable(out, "Weighted table: weighted partial MaxSAT (aborted)")
	case "fig1":
		mainRep.RenderScatterASCII(out, "msu4-v2", "maxsatz", 64, 24)
	case "fig2":
		mainRep.RenderScatterASCII(out, "msu4-v2", "pbo", 64, 24)
	case "fig3":
		mainRep.RenderScatterASCII(out, "msu4-sorter", "msu4-bdd", 64, 24)
	case "all":
		mainRep.RenderAbortTable(out, "Table 1: number of aborted instances")
		fmt.Fprintln(out)
		fmt.Fprintln(out, "Per-family abort breakdown:")
		mainRep.RenderFamilyTable(out)
		solved, vbsTotal := mainRep.VBS()
		fmt.Fprintf(out, "virtual best solver: %d/%d solved, %.2fs total\n",
			solved, len(mainRep.Instances), vbsTotal.Seconds())
		fmt.Fprintln(out)
		debugRep.RenderAbortTable(out, "Table 2: design debugging instances (aborted)")
		fmt.Fprintln(out)
		weightedRep.RenderAbortTable(out, "Weighted table: weighted partial MaxSAT (aborted)")
		fmt.Fprintln(out)
		fmt.Fprintln(out, "Figure 1: maxsatz (y) vs msu4-v2 (x)")
		mainRep.RenderScatterASCII(out, "msu4-v2", "maxsatz", 64, 24)
		fmt.Fprintln(out)
		fmt.Fprintln(out, "Figure 2: pbo (y) vs msu4-v2 (x)")
		mainRep.RenderScatterASCII(out, "msu4-v2", "pbo", 64, 24)
		fmt.Fprintln(out)
		fmt.Fprintln(out, "Figure 3: msu4-bdd (y) vs msu4-sorter (x)")
		mainRep.RenderScatterASCII(out, "msu4-sorter", "msu4-bdd", 64, 24)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *what)
		return 2
	}

	// Agreement check: every proved optimum must be consistent across
	// solvers and with analytically known optima.
	bad := 0
	for _, rep := range []*harness.Report{mainRep, debugRep, weightedRep} {
		if rep == nil {
			continue
		}
		for _, p := range rep.CheckAgreement() {
			fmt.Fprintf(os.Stderr, "AGREEMENT VIOLATION: %s\n", p)
			bad++
		}
	}
	if bad == 0 {
		fmt.Fprintln(out, "\nagreement check: all proved optima consistent")
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if mainRep != nil {
			writeCSV(*csvDir, "table1.csv", mainRep.WriteCSV)
			writeScatter(*csvDir, "fig1.csv", mainRep, "msu4-v2", "maxsatz")
			writeScatter(*csvDir, "fig2.csv", mainRep, "msu4-v2", "pbo")
			writeScatter(*csvDir, "fig3.csv", mainRep, "msu4-sorter", "msu4-bdd")
		}
		if debugRep != nil {
			writeCSV(*csvDir, "table2.csv", debugRep.WriteCSV)
		}
		if weightedRep != nil {
			writeCSV(*csvDir, "wtable.csv", weightedRep.WriteCSV)
		}
		fmt.Fprintf(out, "CSV written to %s\n", *csvDir)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func solverNames(cfg harness.Config) []string {
	specs := cfg.Solvers
	if specs == nil {
		specs = harness.DefaultSolvers()
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

func writeCSV(dir, name string, f func(io.Writer)) {
	fh, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer fh.Close()
	f(fh)
}

func writeScatter(dir, name string, rep *harness.Report, x, y string) {
	fh, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer fh.Close()
	rep.WriteScatterCSV(fh, x, y)
}
