package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that compare reads.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// spread summarizes one side's runs of one metric.
type spread struct {
	n           int
	q1, med, q3 float64
}

// setupFloor is the smallest change of setup_s, in seconds, that counts as a
// regression: a daemon without a data directory starts in about 2 ms, so a
// millisecond of scheduling jitter would exceed any relative bound.
const setupFloor = 0.05

// row is one metric on one workload.
type row struct {
	workload, metric string
	gate             bool    // an end-to-end metric, or the failures: worse fails the comparison
	bound            float64 // share of the old median the metric may worsen by
	old, new         spread
	delta            float64 // median change as a share of the old median, positive = worse
	wins, pairs      int     // pairs in which the new run reads better
	verdict          string
}

// compareMain implements "maxsatbench compare old.jsonl new.jsonl": for each
// workload and each metric in BENCHMARK.json it reports both sides' median
// and quartiles and a verdict. It exits 1 when an end-to-end metric got worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maxsatbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "", "BENCHMARK.json holding the bounds (default: the nearest one at or above the working directory)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: maxsatbench compare [-bench BENCHMARK.json] old.jsonl new.jsonl\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	bm, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "maxsatbench compare: %v\n", err)
		return 1
	}
	old, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "maxsatbench compare: %v\n", err)
		return 1
	}
	cur, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "maxsatbench compare: %v\n", err)
		return 1
	}
	rows := compareRuns(bm, old, cur)
	fmt.Fprintf(stdout, "%-17s %-24s %28s %28s %8s %6s %6s  %s\n", "workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "delta", "wins", "bound", "verdict")
	worse := false
	for _, r := range rows {
		bound := "-"
		if r.gate {
			bound = fmt.Sprintf("%.0f%%", 100*r.bound)
			worse = worse || r.verdict == "worse"
		}
		fmt.Fprintf(stdout, "%-17s %-24s %28s %28s %+7.1f%% %6s %6s  %s\n", r.workload, r.metric,
			r.old.String(), r.new.String(), 100*r.delta, fmt.Sprintf("%d/%d", r.wins, r.pairs), bound, r.verdict)
	}
	if worse {
		return 1
	}
	return 0
}

func (s spread) String() string {
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", s.med, s.q1, s.q3, s.n)
}

// judgedAs names, for the metrics that only cert-repeat reports and
// BENCHMARK.json therefore cannot list, the listed metric whose bound or
// rule they follow.
var judgedAs = map[string]string{"hit_p50_ms": "p50_ms", "miss_p50_ms": "p50_ms"}

// compareRuns pairs the two sides' runs per workload, in file order, and
// judges every BENCHMARK.json metric both sides report, the metrics of
// judgedAs, and the failures: any failed operation or wrong answer on the
// new side makes its workload worse.
func compareRuns(bm benchmarkFile, old, cur []result) []row {
	byWorkload := func(runs []result) map[string][]result {
		m := make(map[string][]result)
		for _, r := range runs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	oldBy, curBy := byWorkload(old), byWorkload(cur)
	var workloads []string
	for w := range oldBy {
		if _, ok := curBy[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	listed := append(append([]benchMetric(nil), bm.EndToEnd...), bm.PerLayer...)
	metrics := listed
	for _, name := range slices.Sorted(maps.Keys(judgedAs)) {
		for _, m := range listed {
			if m.Name == judgedAs[name] {
				m.Name = name
				metrics = append(metrics, m)
			}
		}
	}
	var rows []row
	for _, w := range workloads {
		rows = append(rows, judgeFailures(w, oldBy[w], curBy[w]))
		for _, m := range metrics {
			a, b := values(oldBy[w], m.Name), values(curBy[w], m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			rows = append(rows, judgeMetric(w, m, a, b))
		}
	}
	return rows
}

// judgeFailures compares the share of failed operations. Failures may not
// rise at all, and a correct benchmark has none, so any failure or wrong
// answer on the new side is worse.
func judgeFailures(workload string, old, cur []result) row {
	rate := func(runs []result) (spread, bool) {
		var failed, attempted int
		clean := true
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
			clean = clean && r.Correct && r.Failed == 0
		}
		f := ratio(int64(failed), int64(attempted))
		return spread{n: len(runs), q1: f, med: f, q3: f}, clean
	}
	r := row{workload: workload, metric: "fail_rate", gate: true, verdict: "~"}
	r.old, _ = rate(old)
	var clean bool
	r.new, clean = rate(cur)
	r.delta = r.new.med - r.old.med
	if !clean {
		r.verdict = "worse"
	}
	return r
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judgeMetric gives one verdict:
//
//   - better: the new side wins at least nine tenths of the pairs (ties
//     count for neither) and its median gained more than the old side's
//     interquartile distance — the rule for claiming a gain;
//   - worse: the median got worse by more than the bound; for a per-layer
//     metric, which has no bound, the mirror of the gain rule;
//   - unresolved: either side's interquartile spread, as a share of its
//     median, is wider than the bound, so "no change" cannot be claimed;
//   - ~: within the bound.
//
// For setup_s the bound is at least setupFloor in absolute terms.
func judgeMetric(workload string, m benchMetric, a, b []float64) row {
	r := row{workload: workload, metric: m.Name, gate: m.Bound > 0, bound: m.Bound, old: summarize(a), new: summarize(b)}
	sign := 1.0 // +1: a rise is worse
	if m.Better == "higher" {
		sign = -1
	}
	switch {
	case r.old.med != 0:
		r.delta = sign * (r.new.med - r.old.med) / math.Abs(r.old.med)
	case r.new.med != r.old.med:
		r.delta = sign * math.Copysign(math.Inf(1), r.new.med-r.old.med)
	}
	losses := 0
	for i := 0; i < min(len(a), len(b)); i++ {
		switch d := sign * (b[i] - a[i]); {
		case d < 0:
			r.wins++
		case d > 0:
			losses++
		}
		r.pairs++
	}
	tol := func(s spread) float64 {
		t := m.Bound * math.Abs(s.med)
		if m.Name == "setup_s" {
			t = max(t, setupFloor)
		}
		return t
	}
	moved := math.Abs(r.new.med-r.old.med) > r.old.q3-r.old.q1
	switch {
	case moved && r.delta < 0 && 10*r.wins >= 9*r.pairs:
		r.verdict = "better"
	case m.Bound > 0 && sign*(r.new.med-r.old.med) > tol(r.old):
		r.verdict = "worse"
	case m.Bound == 0 && moved && r.delta > 0 && 10*losses >= 9*r.pairs:
		r.verdict = "worse"
	case m.Bound > 0 && (r.old.q3-r.old.q1 > tol(r.old) || r.new.q3-r.new.q1 > tol(r.new)):
		r.verdict = "unresolved"
	default:
		r.verdict = "~"
	}
	return r
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method).
func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return spread{n: 1, q1: s[0], med: s[0], q3: s[0]}
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return spread{n: len(s), q1: cut(1), med: cut(2), q3: cut(3)}
}

// loadBenchmark reads BENCHMARK.json from path, or from the nearest
// directory at or above the working directory when path is empty.
func loadBenchmark(path string) (benchmarkFile, error) {
	var bm benchmarkFile
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return bm, err
		}
		for {
			path = filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(path); err == nil {
				break
			}
			if filepath.Dir(dir) == dir {
				return bm, fmt.Errorf("no BENCHMARK.json at or above the working directory (use -bench)")
			}
			dir = filepath.Dir(dir)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return bm, err
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		return bm, fmt.Errorf("%s: %w", path, err)
	}
	return bm, nil
}

// loadRuns reads a result set written with -out: one JSON object per line.
func loadRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}
