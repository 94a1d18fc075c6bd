package main

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs all four workloads briefly against a freshly built
// daemon, traced, and checks that every metric BENCHMARK.json names is
// printed, that nothing failed, and that the last-line JSON carries exactly
// the end-to-end metrics untraced and the per-layer metrics traced.
func TestWorkloadsSmoke(t *testing.T) {
	bm, err := loadBenchmark("")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, window: time.Second, warmup: 200 * time.Millisecond, prefill: 20, replay: 20, daemon: bin, work: t.TempDir()}
	var log bytes.Buffer
	reports, err := run(cfg, workloadNames, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	var e2e, layer []string
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bm.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, r := range reports {
		var out bytes.Buffer
		r.print(&out)
		for _, name := range append(append([]string(nil), e2e...), layer...) {
			if !strings.Contains(out.String(), "\n"+r.workload+" "+name+" ") {
				t.Errorf("%s: metric %s not printed", r.workload, name)
			}
		}
		if fr, ok := r.find("fail_rate"); r.failed != 0 || !r.correct || !ok || fr.Value != 0 {
			t.Errorf("%s: %d of %d operations failed: %s", r.workload, r.failed, r.attempted, r.failures)
		}
		for traced, want := range map[bool][]string{false: e2e, true: layer} {
			var got []string
			for k := range summary([]*report{r}, bm, traced).Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			want = slices.Sorted(slices.Values(want))
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%t: summary metrics %v, want %v", r.workload, traced, got, want)
			}
		}
		if cov, _ := r.find("trace.layer_coverage"); cov.Value < 0.9 {
			t.Errorf("%s: layer self times cover %.3f of the replay's root spans, want at least 0.9", r.workload, cov.Value)
		}
	}
}
