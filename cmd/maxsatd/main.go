// Command maxsatd is the MaxSAT solving daemon: the repository's solver
// stack behind an HTTP API, with a bounded worker pool, deduplication of
// identical in-flight submissions, a verified-result cache, and anytime
// bound streaming over Server-Sent Events.
//
// Endpoints:
//
//	POST /solve        body: DIMACS .cnf or .wcnf instance.
//	                   Query: alg, jobs, pre, timeout (e.g. 30s),
//	                   mem (clause-storage budget in bytes), model=0 to omit
//	                   the witness, wait=1 to block for the result. Returns
//	                   the job as JSON (202, or 200 with wait=1); a formula
//	                   whose optimum is already cached returns completed
//	                   immediately. A shed submission (queue full, client
//	                   rate limit or quota) returns 429 with a Retry-After
//	                   header; a draining server returns 503.
//	GET /jobs/{id}     JSON snapshot of the job (state, bounds, result), or
//	                   with ?sse=1 / Accept: text/event-stream a stream of
//	                   "bound" events — monotone anytime bound improvements —
//	                   terminated by one "result" event.
//	POST /sessions     open an incremental solving session: the body is the
//	                   base instance (may be empty), the query takes the same
//	                   solve options as /solve, fixed for the session. The
//	                   session pins a worker slot and keeps a warm solver.
//	POST /sessions/{id}/delta  push hard/soft clauses (WCNF-fragment body),
//	                   assumptions (assume=1,-2; assume= clears), and
//	                   reweights (reweight=IDX:W).
//	POST /sessions/{id}/solve  re-solve the accumulated formula at delta
//	                   cost; same wait/model parameters and job JSON as
//	                   /solve, with result.reused reporting a warm answer.
//	DELETE /sessions/{id}      close the session, releasing its slot.
//	GET /stats         worker/queue/cache/admission counters as JSON.
//	GET /livez         process liveness (always 200 while serving).
//	GET /readyz        readiness: 503 while recovering a -data-dir journal
//	                   or once draining; 200 otherwise.
//	GET /healthz       alias of /readyz (kept for older probe configs).
//
// Durability: -data-dir makes the daemon crash-safe. Certified results are
// persisted to an append-only checksummed log and survive restarts — each
// recovered record is re-proved by the independent certificate checker
// before it may serve a cache hit — and every submission is journaled before
// admission succeeds, so after a crash (or kill -9) the daemon replays the
// jobs it had accepted but not finished under their original IDs: clients
// polling GET /jobs/{id} across the restart find their work finished or
// running, never gone. /readyz stays 503 until the replay is enqueued.
//
// Self-healing: -stall arms a watchdog that cancels jobs whose solver stops
// making measurable progress (CDCL conflicts, branch-and-bound nodes, bound
// improvements); -retries re-runs transiently failed jobs (a panic, a
// memory-budget exhaustion, a watchdog kill) server-side on a degraded
// profile — solo line-up, halved memory per attempt — before reporting
// failure to the client.
//
// Authentication: -token installs a bearer-token table ("alice:s3cret,bob:hunter2";
// a bare secret names itself token-N). With tokens configured every endpoint
// except /healthz requires Authorization: Bearer <secret>, and admission
// accounting (rate limits, quotas, the audit log) is per token name; without
// tokens, accounting is per peer IP.
//
// Shutdown: SIGTERM (or SIGINT) stops admissions immediately, fails the
// health probe, and drains — running jobs finish and their SSE streams
// receive the terminal "result" event — for up to -drain, after which
// stragglers are cancelled (they still complete with their best bounds).
// The daemon then exits 0.
//
// Usage:
//
//	maxsatd [-addr :8080] [-workers N] [-queue 1024] [-cache 256]
//	        [-timeout 1m] [-max-timeout 5m] [-max-body 67108864]
//	        [-mem 0] [-max-mem 0] [-token name:secret,...]
//	        [-rate 0] [-burst 0] [-quota 0] [-highwater 0.75]
//	        [-data-dir dir] [-stall 0] [-retries 0]
//	        [-sessions 0] [-session-idle 0]
//	        [-drain 30s] [-audit]
//
// Example session:
//
//	$ maxsatd -addr :8080 &
//	$ curl -s --data-binary @instance.wcnf 'localhost:8080/solve?wait=1'
//	$ curl -s --data-binary @hard.cnf 'localhost:8080/solve?alg=portfolio'
//	$ curl -sN 'localhost:8080/jobs/2?sse=1'       # watch bounds improve
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// onReady, when set (by tests), is called with the bound listen address once
// the daemon is accepting connections.
var onReady func(addr string)

func run(args []string) int {
	return runWith(context.Background(), args)
}

// runWith is run under a caller-supplied lifetime: cancelling ctx triggers
// the same graceful drain as SIGTERM (tests use this in place of a signal).
func runWith(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("maxsatd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "worker-slot budget shared by all jobs (0 = NumCPU)")
		queue      = fs.Int("queue", 1024, "max admitted-but-unfinished jobs (0 = unbounded)")
		cache      = fs.Int("cache", 256, "verified-result cache entries (-1 disables)")
		timeout    = fs.Duration("timeout", time.Minute, "default per-job solve timeout (0 = unbounded)")
		maxTimeout = fs.Duration("max-timeout", 5*time.Minute, "hard ceiling on per-job timeouts, client-requested or default (0 = no cap)")
		maxBody    = fs.Int64("max-body", 64<<20, "max request body bytes")
		mem        = fs.Int64("mem", 0, "default per-job clause-storage budget in bytes (0 = unbounded)")
		maxMem     = fs.Int64("max-mem", 0, "hard ceiling on per-job clause-storage budgets (0 = no cap)")
		tokens     = fs.String("token", "", "bearer tokens as name:secret[,name:secret...]; empty disables authentication")
		rate       = fs.Float64("rate", 0, "per-client sustained submissions per second (0 = unlimited)")
		burst      = fs.Int("burst", 0, "per-client submission burst (0 = 2x rate)")
		quota      = fs.Int("quota", 0, "per-client queued-or-running job cap (0 = unlimited)")
		highwater  = fs.Float64("highwater", 0.75, "queue-pressure fraction past which portfolio jobs degrade to fewer members (0 disables)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM before running jobs are cancelled")
		audit      = fs.Bool("audit", false, "log one line per admission decision, cancellation, and completion")
		dataDir    = fs.String("data-dir", "", "durability directory: persist certified results and journal submissions for crash recovery (empty disables)")
		sessions   = fs.Int("sessions", 0, "max concurrently open incremental sessions, each pinning a worker slot (0 = workers, -1 disables sessions)")
		sessIdle   = fs.Duration("session-idle", 0, "evict sessions idle this long, releasing their pinned slot (0 = 5m, negative disables eviction)")
		stall      = fs.Duration("stall", 0, "stuck-solver watchdog: cancel jobs making no measurable progress for this long (0 disables)")
		retries    = fs.Int("retries", 0, "server-side retries of transiently failed jobs, on a degraded profile (0 disables)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: maxsatd [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tokenMap, err := parseTokens(*tokens)
	if err != nil {
		fmt.Fprintf(fs.Output(), "maxsatd: %v\n", err)
		return 2
	}
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	// -max-timeout is a hard ceiling: it caps explicit client requests (in
	// the handler) and the daemon's own default alike, so no job can run
	// unbounded while a cap is configured.
	if *maxTimeout > 0 && (*timeout <= 0 || *timeout > *maxTimeout) {
		*timeout = *maxTimeout
	}
	cfg := maxsat.ServerConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		RatePerSec:     *rate,
		Burst:          *burst,
		ClientQuota:    *quota,
		HighWater:      *highwater,
		DataDir:        *dataDir,
		StallTimeout:   *stall,
		MaxRetries:     *retries,
		MaxSessions:    *sessions,
		SessionIdle:    *sessIdle,
	}
	if *audit {
		cfg.Audit = func(e maxsat.AuditEvent) {
			log.Printf("audit client=%q action=%s job=%d %s", e.Client, e.Action, e.JobID, e.Detail)
		}
	}
	srv, err := maxsat.OpenServer(cfg)
	if err != nil {
		log.Printf("maxsatd: %v", err)
		return 1
	}
	defer srv.Close()
	d := newDaemon(srv, daemonOpts{
		maxBody:    *maxBody,
		maxTimeout: *maxTimeout,
		defaultMem: *mem,
		maxMem:     *maxMem,
		tokens:     tokenMap,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("maxsatd: %v", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Journal replay runs concurrently with serving: the listener is up (so
	// /livez answers and pre-crash job IDs become pollable the moment they
	// re-enqueue) but /readyz stays 503 until every recovered job is accounted
	// for — a load balancer only routes new work here once the daemon can keep
	// its old promises.
	if *dataDir != "" {
		d.ready.Store(false)
		go func() {
			if err := srv.Recover(); err != nil {
				log.Printf("maxsatd: journal replay: %v", err)
			}
			d.ready.Store(true)
			log.Printf("maxsatd: recovery complete, ready")
		}()
	}

	httpSrv := &http.Server{Handler: d.handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("maxsatd listening on %s (%d workers, cache %d, default timeout %s)",
		ln.Addr(), *workers, *cache, *timeout)
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	select {
	case err := <-errc:
		log.Printf("maxsatd: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (Submit now fails, /healthz turns 503),
	// let running jobs finish so attached SSE streams get their terminal
	// "result" event, then close the HTTP listener once the handlers have
	// flushed. Jobs still running at the deadline are cancelled — they too
	// complete, with their best bounds.
	stop()
	d.draining.Store(true)
	log.Printf("maxsatd: draining (deadline %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	err = srv.Drain(drainCtx)
	cancel()
	if err != nil {
		log.Printf("maxsatd: drain deadline passed; cancelled remaining jobs")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	log.Printf("maxsatd: drained, exiting")
	return 0
}

// parseTokens parses the -token flag: a comma-separated list of name:secret
// pairs; a bare secret gets the positional name token-N.
func parseTokens(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for i, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, secret, ok := strings.Cut(entry, ":")
		if !ok {
			name, secret = fmt.Sprintf("token-%d", i+1), entry
		}
		if name == "" || secret == "" {
			return nil, fmt.Errorf("bad -token entry %q (want name:secret)", entry)
		}
		if _, dup := out[secret]; dup {
			return nil, fmt.Errorf("duplicate -token secret")
		}
		out[secret] = name
	}
	return out, nil
}
