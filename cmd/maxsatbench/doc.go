// Command maxsatbench is the repository's end-to-end benchmark. It builds
// cmd/maxsatd, runs the real daemon on loopback with -workers 2, drives it
// with closed-loop traffic, checks every answer, and reports end-to-end
// metrics; with -trace 1 it also replays the first 500 requests in-process
// through the layers' public functions and reports per-layer metrics.
//
// The benchmark is a module of its own: go.mod beside this file resolves the
// repository's module to the repository root, so the benchmark builds apart
// from the packages it measures, and the repository's own "go test ./..."
// does not run it. From the repository root:
//
//	bash cmd/maxsatbench/run.sh -seed 1                  # all four workloads
//	bash cmd/maxsatbench/run.sh --workload cold-unique --seed 3 --seconds 20 --trace 0
//	bash cmd/maxsatbench/run.sh -seed 1 -trace 1 -spans .bench_build/spans.jsonl
//	go -C cmd/maxsatbench test ./...                     # its own tests
//	go -C cmd/maxsatbench run . -seed 1                  # without run.sh
//	go -C cmd/maxsatbench run . compare results/seed1-a.jsonl results/seed1-b.jsonl
//
// run.sh keeps the Go build cache, temporary files and binaries under
// .bench_build/ in the checkout. The benchmark's data directories and store
// logs go under .bench_build/ in its working directory and are removed when
// it exits.
//
// Flags: -seed N (default 1), -workload name|all (default all), -seconds S
// (timed window per workload, default 20), -trace 0|1, -out file (append one
// JSON line per workload run: the input of compare), -spans file (the traced
// replay's spans as JSONL), -daemon path (benchmark this maxsatd binary
// instead of building one).
//
// # Output
//
// Every metric measured is printed as "<workload> <metric> <value> <unit>".
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; metrics holds the metrics that
// BENCHMARK.json (found at or above the working directory) lists as
// end-to-end, or with -trace 1 those it lists as per-layer. The exit code is
// 0 only when every operation succeeded and every answer checked out.
//
// # Load and correctness
//
// Two client goroutines, one per worker slot, run a closed loop: each sends
// its next request only after reading the previous answer, over at most two
// keep-alive connections, with wait=1. A 1 s warm-up precedes the timed
// window; only requests sent inside the window are timed. Request streams
// are pure functions of the seed: request i is a seeded signed permutation
// of the variables plus a clause and literal shuffle of a generator
// instance, which keeps the optimum and changes the fingerprint, so two runs
// with one seed submit byte-identical work. The instance suites themselves
// are fixed (gen.Suite(1), gen.WeightedSuite(1)): runs with different seeds
// submit the same instances under different names and measure the same work.
//
// Every answer is checked independently of the daemon. The cost must equal
// the reference optimum, which is the generator's KnownCost or, when that is
// -1, one in-process solve at set-up; the returned model must achieve that
// cost on the formula the client sent (WCNF.CostOf); session costs must be
// k - floor(k/64). Every distinct certificate is re-proved with
// proof.CheckBytes after the window. A non-2xx answer, a non-OPTIMAL result,
// a wrong cost, a bad model, a rejected certificate and a daemon-side
// certificate rejection (/stats cert_rejected) each count as a failure.
//
// # Workloads
//
// cold-unique: fresh renamings of the 63-instance Table-1 suite, cycled,
// default algorithm (msu4-v2), model=1, no certificate. Every fingerprint is
// new, so the paper's solver path (core, sat) does nearly all the work and
// cache, proof and store are bypassed.
//
// cert-repeat: a 126-formula working set (two renamings of each suite
// instance) is filled untimed; the window then sends 90% picks from the set
// and 10% fresh renamings, all with cert=1. Hits exercise the cache lookup
// plus a full proof.CheckBytes re-check and the base64 certificate in the
// JSON; the misses insert certified entries beside those reads, so a change
// that makes hits cheaper by making inserts dearer shows up. Every tenth
// request is a miss, cycling through the suite, and the picks visit each
// working-set formula once per pass in a seeded order. The working set's
// renamings do not depend on the seed: the slowest hits re-check the
// certificate of one php-7 renaming, and drawing that renaming per seed
// made p99_ms vary by 20-30% between seeds.
//
// session-bmc: each client opens a session (alg=msu3), pushes one renamed
// frame of gen.BMCCounterFrames(6, 96) and solves after each push, then
// closes it; every session has its own renaming, so there are no cache
// hits. The daemon runs with -sessions 2. It exercises serve sessions,
// core.Inc warm state, and the fingerprint and cache insert of the
// accumulated formula on every solve.
//
// durable-weighted: with -data-dir, an untimed first daemon life stores 300
// certified results and is stopped with SIGTERM; the measured lives then
// serve fresh renamings of gen.WeightedSuite with alg=oll&cert=1. Weighted
// OLL, certification, and the journal and store fsync on every job; set-up
// re-proves every stored record, so work moved into start-up shows.
//
// # End-to-end metrics
//
// Measured with tracing off, over the requests sent inside the window that
// were answered correctly. A session completion is one delta+solve step.
//
//	jobs_per_s     correct completions per second                    1/s
//	p50_ms         client latency from send to full body read         ms
//	p99_ms         the same at the 99th percentile                    ms
//	daemon_rss_mb  90th percentile of the daemon's resident set       MB
//	               (VmRSS), read every 100 ms once the daemon has
//	               finished 1024 jobs
//	setup_s        daemon exec until /readyz answers 200; median of   s
//	               21 starts (5 on durable-weighted, each re-proving
//	               the stored records)
//	samples        window completions                                 count
//	fail_rate      failed over attempted operations, prefill and      ratio
//	               warm-up included; any failure makes the run exit 1
//	hit_p50_ms,    on cert-repeat, p50_ms of the answers with and     ms
//	miss_p50_ms    without result.cached
//
// maxsatd keeps its last 1024 finished jobs addressable by ID, so its memory
// grows until it has finished that many, which on durable-weighted takes
// most of a window; the resident set is read from then on, and the clients
// keep sending untimed requests after the window until 20 readings are
// taken. The peak (VmHWM), one reading that the timing of a garbage
// collection decides, is reported as maxsatd.peak_rss_mb.
//
// BENCHMARK.json bounds daemon_rss_mb by 0.1 and setup_s by 0.25; compare
// also gives setup_s an absolute floor of 50 ms (see judgeMetric). It lists
// jobs_per_s, p50_ms and p99_ms as per-layer, without a bound, because on
// the 2-core VM the benchmark was written on their run-to-run spread is
// wider than 10%: over ten runs per workload with distinct seeds, the
// interquartile distance as a share of the median was 0.11 to 0.17 for
// jobs_per_s, 0.10 to 0.16 for p50_ms and 0.06 to 0.14 for p99_ms, against
// 0.016 to 0.040 for daemon_rss_mb. A longer window does not narrow it: the
// medians of 1, 2 and 4 s slices of a run spread as widely as the whole
// runs, and two daemons measured in alternating 3 s windows speed up and
// slow down together, while steal time stays near zero. The VM's own speed
// drifts over seconds to minutes, and no bound of 10% would pass runs of an
// unchanged commit. compare still judges the three, and hit_p50_ms and
// miss_p50_ms with them, by the pair rule (see Comparing runs).
//
// BENCHMARK.json cannot list fail_rate, which is 0 on a correct run, or the
// hit/miss split, which one workload reports; compare judges them itself.
//
// # Per-layer metrics
//
// Layers are the repository's modules. From the daemon pass:
//
//	maxsatd.peak_rss_mb      the daemon's peak resident set (VmHWM) since exec
//	maxsatd.overhead_ms_p50  latency minus the server-reported elapsed_sec
//	                         (minus nothing for a cache hit, whose
//	                         elapsed_sec is the original solve's)
//	maxsatd.response_kb      mean response body size
//	serve.solve_ms_p50       median server-reported solve time, uncached
//	serve.cache_hit_ratio    /stats hits over hits+misses in the window
//	serve.session_reused_ratio  /stats session_reused over session_solves
//	serve.cert_rejected      /stats cert_rejected in the window (must be 0)
//	store.recovery_ms_per_record  (setup_s - first-life set-up) / records
//
// From the traced replay (means per call unless noted):
//
//	maxsatd.encode_ms     encoding/json of the job result
//	cnf.parse_ms          cnf.ParseWCNF of the request body
//	serve.fingerprint_us  serve.Fingerprint
//	core.solve_ms         the optimizer's Solve (NewMSU4V2, NewOLL, or
//	                      Inc.SolveDelta on sessions)
//	core.inc_solve_ms     Inc.SolveDelta alone
//	core.iterations, core.sat_calls, core.unsat_calls, sat.conflicts
//	                      per solve, from opt.Result
//	core.inc_warm_ratio   session solves whose kept trail was reused
//	opt.verify_us         opt.VerifyModel
//	opt.certify_ms, opt.cert_kb  opt.Certify time and certificate size
//	proof.check_ms        proof.CheckBytes of the certificate a hit served
//	proof.check_share     median check time over hit_p50_ms
//	store.append_fsync_ms store.Log.Append with sync
//	trace.overhead_ms     traced minus untraced replay wall time
//	trace.layer_coverage  sum of layer self times over root span time
//
// BENCHMARK.json lists, beside the three time metrics, the per-layer metrics
// that every workload measures and that vary from run to run. The others are printed
// too: some are zero where their layer is not on the workload's path, and
// the solver counts repeat exactly on some workloads (a warm session solve
// takes one SAT call and no conflicts).
//
// Which end-to-end metric each layer metric should move, and where:
//
//	maxsatd.overhead_ms_p50   p50_ms on session-bmc, hit_p50_ms on cert-repeat
//	maxsatd.response_kb       hit_p50_ms on cert-repeat
//	maxsatd.encode_ms         hit_p50_ms on cert-repeat
//	cnf.parse_ms              hit_p50_ms on cert-repeat
//	serve.fingerprint_us      p50_ms on session-bmc
//	serve.cache_hit_ratio     jobs_per_s on cert-repeat (about 0.9 there, 0 elsewhere)
//	serve.session_reused_ratio  p50_ms on session-bmc
//	serve.solve_ms_p50, core.solve_ms, core.sat_calls, core.unsat_calls,
//	core.iterations, sat.conflicts
//	                          jobs_per_s and p99_ms on cold-unique and
//	                          durable-weighted; not cert-repeat hits
//	core.inc_solve_ms, core.inc_warm_ratio  p50_ms on session-bmc
//	opt.verify_us             negligible everywhere
//	opt.certify_ms, opt.cert_kb  miss_p50_ms on cert-repeat, jobs_per_s on
//	                          durable-weighted
//	proof.check_ms            hit_p50_ms on cert-repeat, setup_s on
//	                          durable-weighted
//	store.append_fsync_ms     p50_ms on durable-weighted
//	store.recovery_ms_per_record  setup_s on durable-weighted
//
// # Reading a trace
//
// With -trace 1, after each workload's daemon pass the first 500 requests of
// the same stream are replayed in-process on one goroutine, once traced and
// once untraced; the difference in wall time is the tracing overhead. Each
// request gets a root span named "request" and one child span per layer
// call. A span records id, parent (0 for a root), req (the request index),
// name, start_ns and end_ns since the recorder started, and for solver spans
// the counts iterations, sat_calls, unsat_calls and conflicts. -spans writes
// them one JSON object per line with the workload added. The printed table
// gives per layer the number of calls, busy time (sum of span durations) and
// self time (duration minus the union of its children's intervals); the
// root's self time is the replay's own glue, so the layers' self times
// should cover nearly all of the root spans (trace.layer_coverage).
//
// # Comparing runs
//
// "maxsatbench compare old.jsonl new.jsonl" reads two result sets written
// with -out (five or more runs per side) and the bounds in BENCHMARK.json,
// and prints per workload and metric both sides' median and quartiles
// (computed as Python's statistics.quantiles does), the median change, the
// pairs won and a verdict: better (the new side wins at least nine tenths
// of the pairs, ties counting for neither, and its median moved by more than
// the old side's interquartile distance), worse (the median got worse by
// more than the bound; for per-layer metrics the mirror of the gain rule),
// unresolved (either side's interquartile spread is wider than the bound),
// or ~ (within the bound). Runs are paired in file order. hit_p50_ms and
// miss_p50_ms, which only cert-repeat reports, follow the rule of p50_ms.
// Failures may not rise at all: a fail_rate row per workload reads worse
// when any new run has a failed operation or a wrong answer. It exits 1 when
// an end-to-end metric or fail_rate got worse.
//
// results/ holds the acceptance result sets: for seeds 1 and 2, two sets
// (a, b) of five runs of all four workloads on one commit. compare reports
// ~ for every end-to-end metric on every workload of each pair:
//
//	maxsatbench compare results/seed1-a.jsonl results/seed1-b.jsonl
//
// seed2-a.first.jsonl and seed2-b.first.jsonl are an earlier seed-2 pair of
// the same commit. One of its runs fell in a slowdown of the whole VM
// (durable-weighted: setup_s 5.1 s and 26 jobs/s, against 1.6 to 2.6 s and
// 55 to 85 jobs/s in every other run of the four sets), which widened that
// side's spread of setup_s past its bound, so compare reads that row
// unresolved.
package main
