package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.med != 5.5 || s.q3 != 8.25 || s.n != 10 {
		t.Fatalf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	s = summarize([]float64{16, 1, 8, 2, 4})
	if s.q1 != 1.5 || s.med != 4 || s.q3 != 12 {
		t.Fatalf("got %+v", s)
	}
}

func TestJudgeMetric(t *testing.T) {
	lower := benchMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := benchMetric{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	layer := benchMetric{Name: "cnf.parse_ms", Better: "lower"}
	setup := benchMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		m    benchMetric
		a, b []float64
		want string
	}{
		{"same", lower, base, scale(base, 1.01), "~"},
		{"faster", lower, base, scale(base, 0.8), "better"},
		{"slower", lower, base, scale(base, 1.2), "worse"},
		{"slower within bound", lower, base, scale(base, 1.05), "~"},
		{"throughput up", higher, base, scale(base, 1.2), "better"},
		{"throughput down", higher, base, scale(base, 0.8), "worse"},
		{"noisy", lower, []float64{5, 10, 15, 10, 8}, []float64{10, 6, 14, 9, 12}, "unresolved"},
		// The median moved past the spread, but only 8 of 10 pairs won:
		// not enough for a gain claim.
		{"8 of 10 wins", lower,
			[]float64{10, 10, 10, 10, 10, 10, 10, 10, 7, 7},
			[]float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}, "~"},
		{"layer faster", layer, base, scale(base, 0.5), "better"},
		{"layer slower", layer, base, scale(base, 2), "worse"},
		{"layer same", layer, base, base, "~"},
		// setup_s changes count only beyond 50 ms: a 2 ms start with a
		// millisecond of jitter is unchanged, a 1.5 s recovery that grew by
		// 40% is not.
		{"fast setup jitter", setup, []float64{0.002, 0.0021, 0.0031, 0.0019, 0.002}, []float64{0.0026, 0.003, 0.0022, 0.0033, 0.0021}, "~"},
		{"slow setup", setup, []float64{1.5, 1.52, 1.48, 1.51, 1.49}, []float64{2.1, 2.12, 2.08, 2.11, 2.09}, "worse"},
	}
	for _, tc := range cases {
		if got := judgeMetric("w", tc.m, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestHitLatencyFollowsP50 checks that hit_p50_ms, which BENCHMARK.json
// cannot list, is judged by the rule of p50_ms wherever p50_ms is listed.
func TestHitLatencyFollowsP50(t *testing.T) {
	runs := func(v float64) []result {
		var out []result
		for i := 0; i < 5; i++ {
			out = append(out, result{Workload: "cert-repeat", Correct: true, Attempted: 1,
				Metrics: map[string]metric{"hit_p50_ms": {Value: v + 0.01*float64(i), Unit: "ms"}}})
		}
		return out
	}
	p50 := benchMetric{Name: "p50_ms", Unit: "ms", Better: "lower"}
	for _, tc := range []struct {
		name string
		bm   benchmarkFile
		gate bool
	}{
		{"end-to-end", benchmarkFile{EndToEnd: []benchMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}, true},
		{"per-layer", benchmarkFile{PerLayer: []benchMetric{p50}}, false},
	} {
		var hit *row
		for _, r := range compareRuns(tc.bm, runs(2), runs(4)) {
			if r.metric == "hit_p50_ms" {
				hit = &r
			}
		}
		if hit == nil || hit.verdict != "worse" || hit.gate != tc.gate {
			t.Errorf("%s: hit_p50_ms row %+v, want worse with gate %t", tc.name, hit, tc.gate)
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("BENCHMARK.json", `{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"cnf.parse_ms","unit":"ms","better":"lower"}]}`)
	// line is one run of cert-repeat with p50_ms = v and hit_p50_ms = hit,
	// of whose 100 operations failed fail.
	line := func(v, hit float64, failed int) string {
		f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
		return `{"workload":"cert-repeat","seed":1,"correct":` + strconv.FormatBool(failed == 0) +
			`,"attempted":100,"failed":` + strconv.Itoa(failed) + `,"metrics":{"p50_ms":{"value":` + f(v) +
			`,"unit":"ms"},"hit_p50_ms":{"value":` + f(hit) + `,"unit":"ms"}}}` + "\n"
	}
	set := func(name string, scale, hitScale float64, failed int) string {
		var b strings.Builder
		for _, v := range []float64{2.0, 2.02, 1.98, 2.01, 1.99} {
			b.WriteString(line(scale*v, hitScale*v/2, failed))
		}
		return write(name, b.String())
	}
	old := set("old.jsonl", 1, 1, 0)
	cases := []struct {
		name      string
		new       string
		code      int
		worseRows []string // metrics whose row must read worse
	}{
		{"same commit", set("same.jsonl", 1.001, 1.001, 0), 0, nil},
		{"slower", set("slow.jsonl", 1.5, 1, 0), 1, []string{"p50_ms"}},
		{"slower hits only", set("slowhit.jsonl", 1, 1.5, 0), 1, []string{"hit_p50_ms"}},
		// Faster, but with failures: the failures decide.
		{"failures", set("fail.jsonl", 0.5, 0.5, 1), 1, []string{"fail_rate"}},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := compareMain([]string{"-bench", bench, old, tc.new}, &out, &errb); code != tc.code {
			t.Fatalf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errb.String())
		}
		worse := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(l)
			if f[0] != "cert-repeat" {
				t.Fatalf("%s: unexpected row %q", tc.name, l)
			}
			if f[len(f)-1] == "worse" {
				worse[f[1]] = true
			}
		}
		if len(worse) != len(tc.worseRows) {
			t.Errorf("%s: worse rows %v, want %v\n%s", tc.name, worse, tc.worseRows, out.String())
		}
		for _, m := range tc.worseRows {
			if !worse[m] {
				t.Errorf("%s: %s not worse\n%s", tc.name, m, out.String())
			}
		}
	}
	var out, errb bytes.Buffer
	if code := compareMain([]string{"-bench", bench, old}, &out, &errb); code != 2 {
		t.Fatalf("one file: exit %d, want 2", code)
	}
}
