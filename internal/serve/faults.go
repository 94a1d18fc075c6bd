package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/opt"
)

// Fault injection: a deterministic chaos-testing hook set for the serving
// layer. Only this package's tests set it (the unexported Config.faults) —
// the hook is consulted (and the switch below exists) only so tests can
// drive the server through its failure paths on purpose: a member panic, a
// worker that stalls, a budget that exhausts mid-run, a cancellation that
// lands mid-solve. The chaos suite (chaos_test.go) uses it to assert the
// invariants operators rely on: the worker pool never deadlocks, goroutines
// never leak, and an unverified result is never served from the cache.

// FaultKind enumerates the injectable faults.
type FaultKind int8

// Injectable faults.
const (
	// FaultNone: run the job normally.
	FaultNone FaultKind = iota
	// FaultPanic panics in the worker goroutine in place of the solve,
	// exercising the panic-isolation path exactly where a buggy optimizer
	// would hit it.
	FaultPanic
	// FaultSlow delays the solve by Delay (respecting cancellation),
	// simulating a stalled worker; the job's deadline keeps counting.
	FaultSlow
	// FaultExhaust drops the solve and reports budget exhaustion: Unknown
	// with the job's best shared bounds, exactly what a SAT call returning
	// on a spent conflict/time/memory budget produces.
	FaultExhaust
	// FaultCancel cancels the job's own context Delay after it starts
	// running, simulating a client withdrawing mid-solve.
	FaultCancel
)

// Fault is one injected fault decision.
type Fault struct {
	Kind  FaultKind
	Delay time.Duration // FaultSlow: stall length; FaultCancel: time until the cancel lands
}

// Faults is the fault-injection hook set. Deterministic by construction:
// the server calls Before with the job's identity and acts on the returned
// decision, so a test seeding its own decision function replays the same
// fault schedule every run.
type Faults struct {
	// Before is consulted in the worker goroutine immediately before the
	// job's SolveFunc would run, once per attempt (attempt 0 is the first
	// run; server-side retries count up). Returning FaultNone runs the
	// attempt normally — so a schedule can panic a job's first attempt and
	// let its retry succeed, which is exactly what the retry chaos tests
	// assert.
	Before func(jobID uint64, optsKey string, attempt int) Fault
	// CorruptCert is consulted when a job's verified result is about to
	// enter the verified-result store: a return ≥ 0 flips that bit (modulo
	// the certificate length) in the memory-tier copy of the result's
	// certificate, simulating memory rot between the insert and a later
	// cache hit. The result served to the job's own waiters and the record
	// written to the disk tier are untouched. Return a negative value (or
	// leave the hook nil) to store faithfully.
	CorruptCert func(jobID uint64) int

	// CorruptStore is consulted when a record is about to be written to a
	// durable log — log names it, results.log or journal.log, and seq is
	// the record's position in it: a return ≥ 0 flips that bit (modulo the
	// record length) in the payload before it is CRC-framed — so the frame
	// is well-formed and recovery's integrity layer passes, and the
	// corruption must be caught by the re-validation layer (the independent
	// proof checker) instead. Negative (or nil hook) writes faithfully.
	CorruptStore func(log string, seq uint64) int
	// CrashAfterWrite, when it returns true for a record of the named log,
	// tears that record's framed write in half and wedges the log — every
	// later write to it is silently dropped, as if the process died
	// mid-write. Recovery must truncate the torn tail cleanly.
	CrashAfterWrite func(log string, seq uint64) bool
}

// corruptStoreBit returns the bit to flip in the record at seq of the named
// log, or -1 to write it faithfully.
func (f *Faults) corruptStoreBit(log string, seq uint64) int {
	if f == nil || f.CorruptStore == nil {
		return -1
	}
	return f.CorruptStore(log, seq)
}

// storeWriteHook builds the named log's fault hook (torn writes), or nil
// when no crash fault is configured.
func (f *Faults) storeWriteHook(log string) func(seq uint64, frame []byte) ([]byte, bool) {
	if f == nil || f.CrashAfterWrite == nil {
		return nil
	}
	return func(seq uint64, frame []byte) ([]byte, bool) {
		if f.CrashAfterWrite(log, seq) {
			return frame[:len(frame)/2], true
		}
		return frame, false
	}
}

// corruptCertBit returns the bit to flip in job id's stored certificate, or
// -1 to store it faithfully.
func (f *Faults) corruptCertBit(id uint64) int {
	if f == nil || f.CorruptCert == nil {
		return -1
	}
	return f.CorruptCert(id)
}

// inject applies the configured fault decision for j, running wk, under the
// job's run context. It reports the injected result when the fault replaces
// the solve entirely (handled true); otherwise the caller proceeds to the
// real SolveFunc. May panic — that is FaultPanic's purpose — and the
// server's panic isolation must contain it.
func (f *Faults) inject(ctx context.Context, j *job, wk *work, attempt int) (res opt.Result, handled bool) {
	if f == nil || f.Before == nil {
		return opt.Result{}, false
	}
	switch d := f.Before(j.id, j.key.opts, attempt); d.Kind {
	case FaultPanic:
		panic(fmt.Sprintf("serve: injected fault: panic in job %d", j.id))
	case FaultSlow:
		t := time.NewTimer(d.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	case FaultExhaust:
		r := opt.Result{Status: opt.StatusUnknown, Cost: -1}
		if e := wk.bounds.Snapshot(); e.HasLB {
			r.LowerBound = e.LB
		}
		if cost, model, ok := wk.bounds.Best(); ok {
			r.Cost, r.Model = cost, model
		}
		return r, true
	case FaultCancel:
		// The timer is left running: j.cancel is idempotent and the job's
		// context is released when the run goroutine exits, so a late fire
		// is harmless — but firing is the point.
		time.AfterFunc(d.Delay, j.cancel)
	}
	return opt.Result{}, false
}
