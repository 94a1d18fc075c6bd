package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/opt"
)

func smallSuite() []gen.Instance {
	return []gen.Instance{
		gen.Pigeonhole(3),
		gen.EquivMiter(3),
		gen.BMCCounter(3, 4),
		gen.RandomKSAT(5, 12, 3, 6.0),
	}
}

func TestRunProducesFullGrid(t *testing.T) {
	rep := Run(smallSuite(), Config{Timeout: 10 * time.Second})
	if len(rep.Results) != 4 {
		t.Fatalf("got %d instance rows", len(rep.Results))
	}
	if len(rep.Solvers) != 5 {
		t.Fatalf("default line-up should have 5 solvers, got %v", rep.Solvers)
	}
	for _, row := range rep.Results {
		for _, res := range row {
			if res.Status == opt.StatusUnknown && !res.Aborted {
				t.Fatal("unknown status must be marked aborted")
			}
			if res.Elapsed < 0 {
				t.Fatal("negative elapsed time")
			}
		}
	}
	if problems := rep.CheckAgreement(); len(problems) > 0 {
		t.Fatalf("solver disagreement: %v", problems)
	}
}

func TestAbortCounting(t *testing.T) {
	// A microscopic timeout forces aborts everywhere possible.
	rep := Run([]gen.Instance{gen.Pigeonhole(6)}, Config{Timeout: time.Nanosecond})
	counts := rep.AbortCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("nanosecond timeout should abort at least one solver")
	}
	var buf bytes.Buffer
	rep.RenderAbortTable(&buf, "Table test")
	out := buf.String()
	if !strings.Contains(out, "Table test") || !strings.Contains(out, "maxsatz") {
		t.Fatalf("table rendering missing pieces:\n%s", out)
	}
}

func TestScatterData(t *testing.T) {
	rep := Run(smallSuite(), Config{Timeout: 10 * time.Second})
	pts := rep.Scatter("maxsatz", "msu4-v2")
	if len(pts) != len(rep.Instances) {
		t.Fatalf("scatter has %d points, want %d", len(pts), len(rep.Instances))
	}
	for _, p := range pts {
		if p.X < 0 || p.Y < 0 {
			t.Fatal("negative scatter coordinates")
		}
		if p.X > 10 || p.Y > 10 {
			t.Fatal("scatter coordinates exceed timeout clamp")
		}
	}
	if pts := rep.Scatter("nope", "msu4-v2"); pts != nil {
		t.Fatal("unknown solver should produce nil scatter")
	}
}

func TestScatterASCIIRenders(t *testing.T) {
	rep := Run(smallSuite(), Config{Timeout: 10 * time.Second})
	var buf bytes.Buffer
	rep.RenderScatterASCII(&buf, "msu4-v2", "maxsatz", 40, 16)
	out := buf.String()
	if !strings.Contains(out, "+") {
		t.Fatalf("no points plotted:\n%s", out)
	}
	if !strings.Contains(out, "points above diagonal") {
		t.Fatalf("summary line missing:\n%s", out)
	}
}

func TestCSVOutputs(t *testing.T) {
	rep := Run(smallSuite()[:2], Config{Timeout: 10 * time.Second})
	var buf bytes.Buffer
	rep.WriteCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+2*len(rep.Solvers) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+2*len(rep.Solvers))
	}
	buf.Reset()
	rep.WriteScatterCSV(&buf, "pbo", "msu4-bdd")
	if !strings.HasPrefix(buf.String(), "instance,pbo,msu4-bdd") {
		t.Fatalf("scatter CSV header wrong: %q", buf.String())
	}
}

func TestSolverByName(t *testing.T) {
	for _, name := range []string{"maxsatz", "pbo", "pbo-bin", "msu1", "msu2", "msu3", "msu4-bdd", "msu4-v2"} {
		spec, ok := SolverByName(name)
		if !ok {
			t.Fatalf("solver %q not found", name)
		}
		s := spec.Make(opt.Options{})
		if s.Name() == "" {
			t.Fatalf("solver %q has empty name", name)
		}
	}
	if _, ok := SolverByName("zchaff"); ok {
		t.Fatal("unknown solver should not resolve")
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	Run(smallSuite()[:1], Config{Timeout: 10 * time.Second, Progress: &buf})
	if !strings.Contains(buf.String(), "php-3") {
		t.Fatalf("progress output missing instance name:\n%s", buf.String())
	}
}

func TestFamilyBreakdown(t *testing.T) {
	rep := Run(smallSuite(), Config{Timeout: 10 * time.Second})
	aborts, totals := rep.FamilyAborts("msu4-v2")
	sum := 0
	for _, n := range totals {
		sum += n
	}
	if sum != len(rep.Instances) {
		t.Fatalf("family totals %d != instances %d", sum, len(rep.Instances))
	}
	for fam, n := range aborts {
		if n > totals[fam] {
			t.Fatalf("family %s: %d aborts > %d total", fam, n, totals[fam])
		}
	}
	var buf bytes.Buffer
	rep.RenderFamilyTable(&buf)
	if !strings.Contains(buf.String(), "pigeonhole") {
		t.Fatalf("family table missing rows:\n%s", buf.String())
	}
	if a, _ := rep.FamilyAborts("nope"); len(a) != 0 {
		t.Fatal("unknown solver should have empty breakdown")
	}
}

func TestVBSAndSolvedWithin(t *testing.T) {
	rep := Run(smallSuite(), Config{Timeout: 10 * time.Second})
	solved, total := rep.VBS()
	if solved != len(rep.Instances) {
		t.Fatalf("VBS solved %d, want all %d", solved, len(rep.Instances))
	}
	if total <= 0 {
		t.Fatal("VBS total time must be positive")
	}
	within := rep.SolvedWithin(10 * time.Second)
	if within["msu4-v2"] != len(rep.Instances) {
		t.Fatalf("msu4-v2 should finish all within timeout: %v", within)
	}
	if n := rep.SolvedWithin(0)["msu4-v2"]; n != 0 {
		t.Fatalf("zero limit should solve none, got %d", n)
	}
}

// TestPaperLineupDistinct pins Table 1's msu4 columns to three different
// searches: the paper's v1 and v2 (per-bound BDD and sorting-network
// re-encodings) and the served incremental-totalizer msu4-v2. Two columns
// running the same search would report identical work on every instance.
func TestPaperLineupDistinct(t *testing.T) {
	in := gen.EquivMiter(3)
	type work struct {
		iters     int
		conflicts int64
	}
	seen := map[work]string{}
	optimum := cnf.Weight(-1)
	for _, spec := range DefaultSolvers() {
		if !strings.HasPrefix(spec.Name, "msu4") {
			continue
		}
		s := spec.Make(opt.Options{})
		if s.Name() != spec.Name {
			t.Errorf("spec %q builds a solver named %q", spec.Name, s.Name())
		}
		r := s.Solve(context.Background(), in.W, nil)
		if r.Status != opt.StatusOptimal {
			t.Fatalf("%s: status %v", spec.Name, r.Status)
		}
		if optimum >= 0 && r.Cost != optimum {
			t.Fatalf("%s: cost %d, another msu4 found %d", spec.Name, r.Cost, optimum)
		}
		optimum = r.Cost
		w := work{r.Iterations, r.Conflicts}
		if other, dup := seen[w]; dup {
			t.Errorf("%s and %s both report %d iterations and %d conflicts",
				other, spec.Name, w.iters, w.conflicts)
		}
		seen[w] = spec.Name
		t.Logf("%s: cost %d, %d iterations, %d conflicts", spec.Name, r.Cost, w.iters, w.conflicts)
	}
	if len(seen) != 3 {
		t.Fatalf("want 3 distinct msu4 columns, got %v", seen)
	}
}
