package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cnf"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	seed    int64
	window  time.Duration // timed window per workload
	warmup  time.Duration // untimed closed-loop traffic before the window
	prefill int           // records the durable workload stores before its measured life
	replay  int           // requests replayed in-process with tracing (0: no traced run)
	retain  int           // finished jobs the daemon retains by ID; its memory is read once it has finished that many
	daemon  string        // maxsatd binary
	work    string        // scratch directory for data dirs and logs
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type named struct {
	name string
	metric
}

// report is one workload run: every metric it measured, in print order, and
// the checker's verdict.
type report struct {
	workload  string
	metrics   []named
	correct   bool
	attempted int
	failed    int
	failures  string
	spans     []span      // traced replay
	rows      []layerTime // its self-time table
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, named{name, metric{value, unit}})
}

func (r *report) find(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.metric, true
		}
	}
	return metric{}, false
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maxsatbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: the same seed submits byte-identical requests")
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seconds := fs.Float64("seconds", 20, "timed window per workload, in seconds")
	trace := fs.Int("trace", 0, "1: after the daemon pass, replay the first 500 requests in-process with spans and report per-layer metrics")
	out := fs.String("out", "", "append one JSON line per workload run to this file (input of maxsatbench compare)")
	spansPath := fs.String("spans", "", "with -trace 1, write the replay's spans as JSONL to this file")
	daemonBin := fs.String("daemon", "", "maxsatd binary to benchmark (default: build ./cmd/maxsatd)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: maxsatbench [flags]\n       maxsatbench compare [-bench BENCHMARK.json] old.jsonl new.jsonl\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	bm, err := loadBenchmark("")
	if err != nil {
		fmt.Fprintf(stderr, "maxsatbench: %v\n", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	// maxsatd retains 1024 finished jobs by ID (the serve default).
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), warmup: time.Second, prefill: 300, retain: 1024, daemon: *daemonBin}
	if *trace == 1 {
		cfg.replay = 500
	}
	reports, err := run(cfg, names, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "maxsatbench: %v\n", err)
		return 1
	}
	if *spansPath != "" && *trace == 1 {
		if err := writeSpans(*spansPath, reports); err != nil {
			fmt.Fprintf(stderr, "maxsatbench: %v\n", err)
			return 1
		}
	}
	ok := true
	for _, r := range reports {
		r.print(stdout)
		if r.failed > 0 {
			ok = false
			fmt.Fprintf(stderr, "maxsatbench: %s: %d of %d operations failed: %s\n", r.workload, r.failed, r.attempted, r.failures)
		}
		if *out != "" {
			if err := appendResult(*out, cfg, *trace == 1, r); err != nil {
				fmt.Fprintf(stderr, "maxsatbench: %v\n", err)
				return 1
			}
		}
	}
	b, err := json.Marshal(summary(reports, bm, *trace == 1))
	if err != nil {
		fmt.Fprintf(stderr, "maxsatbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !ok {
		return 1
	}
	return 0
}

// run measures each workload in turn. Unless cfg names them, it builds the
// daemon and makes a scratch directory under .bench_build in the working
// directory.
func run(cfg config, names []string, stderr io.Writer) ([]*report, error) {
	for _, name := range names {
		if !slices.Contains(workloadNames, name) {
			return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
		}
	}
	if cfg.work == "" || cfg.daemon == "" {
		base, err := filepath.Abs(".bench_build")
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		if cfg.daemon == "" {
			if cfg.daemon, err = buildDaemon(base); err != nil {
				return nil, err
			}
		}
		if cfg.work == "" {
			if cfg.work, err = os.MkdirTemp(base, "run-"); err != nil {
				return nil, err
			}
			defer os.RemoveAll(cfg.work)
		}
	}
	var reports []*report
	for _, name := range names {
		fmt.Fprintf(stderr, "maxsatbench: %s (seed %d, %s window)\n", name, cfg.seed, cfg.window)
		r, err := measure(cfg, name, stderr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// measure runs one workload: set-up (several daemon starts, median taken),
// prefill, the closed-loop window, the post-window certificate checks, and
// with cfg.replay > 0 the traced and untraced in-process replays.
func measure(cfg config, name string, stderr io.Writer) (*report, error) {
	sp, err := newSpec(name, cfg.seed, cfg.prefill)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, name+"-")
	if err != nil {
		return nil, err
	}
	chk := newChecker()
	args := sp.daemonArgs
	starts := 21
	var emptySetup time.Duration
	var stored int
	if sp.durable {
		// The first life stores the prefill; the measured starts then each
		// re-prove every stored record before /readyz turns 200.
		data := filepath.Join(work, "data")
		if err := os.Mkdir(data, 0o755); err != nil {
			return nil, err
		}
		args = append(args[:len(args):len(args)], "-data-dir", data)
		d, setup, err := startDaemon(cfg.daemon, args...)
		if err != nil {
			return nil, err
		}
		emptySetup = setup
		stored = len(fill(d, chk, sp, sp.prefill))
		if err := d.stop(); err != nil {
			return nil, err
		}
		starts = 5
	}
	var (
		d      *daemon
		setups []float64
	)
	for i := 0; i < starts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var setup time.Duration
		if d, setup, err = startDaemon(cfg.daemon, args...); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	lr, peak, served, err := window(cfg, d, chk, sp, stored)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	certs := chk.finish(clients)
	fmt.Fprintf(stderr, "maxsatbench: %s: %d window samples, %d certificates re-proved\n", name, len(lr.samples), certs)

	r := &report{workload: name}
	lats, hits, misses, overhead, solveMS := make([]float64, 0, len(lr.samples)), []float64{}, []float64{}, []float64{}, []float64{}
	var bytes int
	for _, s := range lr.samples {
		l := ms(s.lat)
		lats = append(lats, l)
		bytes += s.bytes
		if s.cached {
			hits = append(hits, l)
			overhead = append(overhead, l)
		} else {
			misses = append(misses, l)
			overhead = append(overhead, l-1000*s.elapsed)
			solveMS = append(solveMS, 1000*s.elapsed)
		}
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("no request completed correctly in the window (%s)", chk.summary())
	}
	delta := lr.after.minus(lr.before)
	for i := int64(0); i < delta.CertRejected; i++ {
		chk.fail("daemon rejected a cached certificate", true)
	}
	r.attempted, r.failed, r.correct, r.failures = chk.attempted, chk.failed, chk.wrong == 0, chk.summary()
	recovery := 0.0
	if sp.durable && stored > 0 {
		recovery = (median(setups) - emptySetup.Seconds()) * 1000 / float64(stored)
	}
	r.add("jobs_per_s", float64(len(lats))/lr.elapsed.Seconds(), "1/s")
	r.add("p50_ms", percentile(lats, 0.50), "ms")
	r.add("p99_ms", percentile(lats, 0.99), "ms")
	r.add("setup_s", median(setups), "s")
	// The peak is one reading that the timing of a garbage collection
	// decides; the 90th percentile of the steady readings is steadier.
	r.add("daemon_rss_mb", percentile(lr.rss, 0.9), "MB")
	r.add("samples", float64(len(lats)), "count")
	r.add("fail_rate", ratio(int64(r.failed), int64(r.attempted)), "ratio")
	if len(hits) > 0 && len(misses) > 0 {
		r.add("hit_p50_ms", percentile(hits, 0.50), "ms")
		r.add("miss_p50_ms", percentile(misses, 0.50), "ms")
	}
	r.add("maxsatd.peak_rss_mb", peak, "MB")
	r.add("maxsatd.overhead_ms_p50", percentile(overhead, 0.50), "ms")
	r.add("maxsatd.response_kb", float64(bytes)/float64(len(lats))/1024, "kB")
	r.add("serve.solve_ms_p50", percentile(solveMS, 0.50), "ms")
	r.add("serve.cache_hit_ratio", ratio(delta.CacheHits, delta.CacheHits+delta.CacheMisses), "ratio")
	r.add("serve.session_reused_ratio", ratio(delta.SessionReused, delta.SessionSolves), "ratio")
	r.add("serve.cert_rejected", float64(delta.CertRejected), "count")
	r.add("store.recovery_ms_per_record", recovery, "ms")
	if cfg.replay > 0 {
		if err := traceReplay(cfg, sp, served, work, r); err != nil {
			return nil, err
		}
	}
	os.RemoveAll(work)
	return r, nil
}

// window fills what the workload needs before timing, runs the closed loop,
// and reads the daemon's peak memory since it started (VmHWM). It returns
// the served answers of the cert-repeat working set for the replay.
func window(cfg config, d *daemon, chk *checker, sp *spec, stored int) (loadResult, float64, map[*cnf.WCNF]*resultJSON, error) {
	var served map[*cnf.WCNF]*resultJSON
	if sp.durable {
		st, err := d.stats()
		if err != nil {
			return loadResult{}, 0, nil, err
		}
		if st.Recovered != int64(stored) {
			chk.fail(fmt.Sprintf("restart recovered %d of %d stored records", st.Recovered, stored), true)
		}
	} else if len(sp.prefill) > 0 {
		served = fill(d, chk, sp, sp.prefill)
	}
	lr, err := drive(d, chk, sp, cfg.warmup, cfg.window, len(served), cfg.retain)
	if err != nil {
		return lr, 0, nil, err
	}
	peak, err := d.memMB("VmHWM")
	return lr, peak, served, err
}

// traceReplay runs the in-process replay traced, then untraced, and adds the
// per-layer metrics to r.
func traceReplay(cfg config, sp *spec, served map[*cnf.WCNF]*resultJSON, work string, r *report) error {
	rec := newRecorder()
	traced, err := replay(sp, cfg.replay, served, rec, work)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	untraced, err := replay(sp, cfg.replay, served, nil, work)
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	r.spans = rec.spans
	rows := selfTimes(rec.spans)
	r.rows = rows
	mean := func(names ...string) float64 {
		var busy time.Duration
		var n int
		for _, row := range rows {
			for _, name := range names {
				if row.name == name {
					busy += row.busy
					n += row.count
				}
			}
		}
		if n == 0 {
			return 0
		}
		return ms(busy) / float64(n)
	}
	var rootBusy, layerSelf time.Duration
	for _, row := range rows {
		if row.name == "request" {
			rootBusy += row.busy
		} else {
			layerSelf += row.self
		}
	}
	counts := map[string]float64{}
	var solves int
	for _, s := range rec.spans {
		if s.Counts != nil {
			solves++
			for k, v := range s.Counts {
				counts[k] += float64(v)
			}
		}
	}
	perSolve := func(k string) float64 {
		if solves == 0 {
			return 0
		}
		return counts[k] / float64(solves)
	}
	// The check share compares medians: a few large certificates dominate the
	// mean check time but not the median hit.
	var checks []float64
	for _, s := range rec.spans {
		if s.Name == "proof.check" {
			checks = append(checks, ms(s.dur()))
		}
	}
	hitP50, _ := r.find("hit_p50_ms")
	r.add("maxsatd.encode_ms", mean("maxsatd.encode"), "ms")
	r.add("cnf.parse_ms", mean("cnf.parse"), "ms")
	r.add("serve.fingerprint_us", 1000*mean("serve.fingerprint"), "us")
	r.add("core.solve_ms", mean("core.solve", "core.inc_solve"), "ms")
	r.add("core.iterations", perSolve("iterations"), "count")
	r.add("core.sat_calls", perSolve("sat_calls"), "count")
	r.add("core.unsat_calls", perSolve("unsat_calls"), "count")
	r.add("sat.conflicts", perSolve("conflicts"), "count")
	r.add("core.inc_solve_ms", mean("core.inc_solve"), "ms")
	r.add("core.inc_warm_ratio", ratio(int64(traced.incWarm), int64(traced.incSolves)), "ratio")
	r.add("opt.verify_us", 1000*mean("opt.verify"), "us")
	r.add("opt.certify_ms", mean("opt.certify"), "ms")
	r.add("opt.cert_kb", safeDiv(float64(traced.certBytes), float64(traced.certs))/1024, "kB")
	r.add("proof.check_ms", mean("proof.check"), "ms")
	r.add("proof.check_share", safeDiv(median(checks), hitP50.Value), "ratio")
	r.add("store.append_fsync_ms", mean("store.append"), "ms")
	r.add("trace.requests", float64(cfg.replay), "count")
	r.add("trace.untraced_ms", ms(untraced.wall), "ms")
	r.add("trace.overhead_ms", ms(traced.wall-untraced.wall), "ms")
	r.add("trace.layer_coverage", safeDiv(float64(layerSelf), float64(rootBusy)), "ratio")
	return nil
}

// print writes the self-time table of a traced run, then one line per
// metric: "<workload> <metric> <value> <unit>".
func (r *report) print(w io.Writer) {
	if r.rows != nil {
		printSelfTimes(w, r.workload, r.rows)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.workload, m.name, m.Value, m.Unit)
	}
}

// result is the last line of standard output and each line of -out.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Seconds   float64           `json:"seconds,omitempty"`
	Trace     bool              `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is the final stdout line: the metrics BENCHMARK.json lists as
// end-to-end untraced, and those it lists as per-layer traced. Several
// workloads prefix each name with the workload.
func summary(reports []*report, bm benchmarkFile, traced bool) result {
	list := bm.EndToEnd
	if traced {
		list = bm.PerLayer
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reports {
		res.Correct = res.Correct && r.correct
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, bmm := range list {
			m, ok := r.find(bmm.Name)
			if !ok {
				continue
			}
			key := bmm.Name
			if len(reports) > 1 {
				key = r.workload + "/" + key
			}
			res.Metrics[key] = m
		}
	}
	return res
}

func appendResult(path string, cfg config, traced bool, r *report) error {
	res := result{Workload: r.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: traced,
		Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = m.metric
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, reports []*report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range reports {
		for _, s := range r.spans {
			line := struct {
				Workload string `json:"workload"`
				span
			}{r.workload, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates linearly between the order statistics of xs
// (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
