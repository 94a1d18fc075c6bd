package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/store"
)

// journal is the durable intent log of the serving layer, journal.log
// under Config.DataDir: a submission admitted to run is recorded (fsynced)
// before its job ID is handed back, and marked done (lazily — replay is
// idempotent, so losing a marker only costs a re-run) when it completes.
// After a restart, pending lists the jobs the previous life accepted but
// never finished; Server.Recover re-enqueues them under their original IDs
// so a client polling GET /jobs/{id} across the restart sees its job finish
// instead of 404.
//
// A SolveFunc closure cannot be persisted, so each record carries the
// submission's OptsKey (the maxsat layer's serialized options) as its
// payload; the Recover callback rebuilds the closure from it. Everything
// recovered here is intent, not truth: a replayed job re-runs through the
// full solve (or hits the re-validated result cache) — the journal never
// supplies answers.
type journal struct {
	mu      sync.Mutex
	log     *store.Log
	pending []RecoveredJob
	maxID   uint64 // the highest job ID the journal has seen
	dropped int    // records dropped at open
	faults  *Faults
}

// RecoveredJob is one incomplete submission recovered from the journal.
type RecoveredJob struct {
	ID      uint64
	Client  string
	Slots   int
	Timeout time.Duration
	// Payload is the options the job was submitted under: its
	// JobSpec.OptsKey.
	Payload []byte
	Formula *cnf.WCNF
}

const (
	recSubmit byte = 10
	recDone   byte = 11
)

// openJournal opens (creating if absent) the job journal at path. Records
// the integrity layer rejects, and records of an unknown kind or that do not
// decode, are dropped; Open folds their count into Stats.RecoveredRejected
// and audits them as one recover event. faults injects storage faults for
// the crash tests; nil writes faithfully.
func openJournal(path string, faults *Faults) (*journal, error) {
	l, recs, dropped, err := store.Open(path, store.Options{WriteHook: faults.storeWriteHook(journalLog)})
	if err != nil {
		return nil, err
	}
	j := &journal{log: l, dropped: dropped, faults: faults}
	// The done markers first, so that only pending submissions are
	// decoded: a completed one is skipped on its leading ID alone, and its
	// formula is never parsed.
	completed := make(map[uint64]bool)
	submits := 0
	for _, r := range recs {
		switch r.Kind {
		case recSubmit:
			submits++
		case recDone:
			id, n := binary.Uvarint(r.Payload)
			if n <= 0 {
				j.dropped++
				continue
			}
			completed[id] = true
			j.maxID = max(j.maxID, id)
		default:
			j.dropped++
		}
	}
	seen := make(map[uint64]bool) // IDs of the pending submissions decoded so far
	for _, r := range recs {
		if r.Kind != recSubmit {
			continue
		}
		if id, n := binary.Uvarint(r.Payload); n > 0 && (completed[id] || seen[id]) {
			continue
		}
		rj, err := decodeSubmit(r.Payload)
		if err != nil {
			j.dropped++
			continue
		}
		j.maxID = max(j.maxID, rj.ID)
		seen[rj.ID] = true
		j.pending = append(j.pending, rj)
	}
	if len(j.pending) < submits || j.dropped > 0 {
		j.compactLocked()
	}
	return j, nil
}

// pendingJobs returns the recovered incomplete submissions not yet handed
// to Recover, in original submission order.
func (j *journal) pendingJobs() []RecoveredJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]RecoveredJob(nil), j.pending...)
}

// releasePending forgets the recovered submissions once Recover has admitted
// every one of them: each replay holds its own snapshot, so the decoded
// formulas and payloads here would otherwise stay reachable for the life of
// the process. The log on disk is untouched.
func (j *journal) releasePending() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = nil
}

// record journals one admitted submission, fsynced before returning.
func (j *journal) record(id uint64, w *cnf.WCNF, spec JobSpec) error {
	payload := encodeSubmit(RecoveredJob{
		ID: id, Client: spec.Client, Slots: spec.Slots, Timeout: spec.Timeout,
		Payload: []byte(spec.OptsKey),
	}, w)
	j.mu.Lock()
	defer j.mu.Unlock()
	if id > j.maxID {
		j.maxID = id
	}
	if bit := j.faults.corruptStoreBit(journalLog, j.log.Len()); bit >= 0 {
		payload[(bit/8)%len(payload)] ^= 1 << (bit % 8)
	}
	return j.log.Append(recSubmit, payload, true)
}

// markDone records a completion marker. Unsynced on purpose: the marker
// reaches disk with the next synced append or Close, and it is an
// optimization (it keeps recovery from re-running a finished job), not a
// correctness requirement. Submit/done pairs grow the log monotonically at
// runtime; the next Open rewrites it down to whatever is still pending —
// runtime compaction would need the live in-flight picture this type does
// not have.
func (j *journal) markDone(id uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log.Append(recDone, binary.AppendUvarint(nil, id), false)
}

// compactLocked rewrites the log down to the pending submissions. When no
// pending submission carries maxID, a done marker for it is kept too, so
// the next Open still seeds IDs past every ID ever handed out.
func (j *journal) compactLocked() {
	recs := make([]store.Record, 0, len(j.pending)+1)
	var top uint64
	for _, rj := range j.pending {
		recs = append(recs, store.Record{Kind: recSubmit, Payload: encodeSubmit(rj, rj.Formula)})
		top = max(top, rj.ID)
	}
	if j.maxID > top {
		recs = append(recs, store.Record{Kind: recDone, Payload: binary.AppendUvarint(nil, j.maxID)})
	}
	j.log.Compact(recs) // best-effort; a failed compact leaves the old log
}

// close flushes and closes the journal.
func (j *journal) close() error { return j.log.Close() }

// encodeSubmit frames a submit record: the ID, timeout and slots, then
// length-prefixed sections for the client, a key, the payload and the
// formula. The key section repeats the payload, and replay skips it: the
// layout is the one older binaries wrote, whose key section held a
// coalescing key of their own beside the options payload.
func encodeSubmit(rj RecoveredJob, w *cnf.WCNF) []byte {
	var fb bytes.Buffer
	cnf.WriteWCNF(&fb, w)
	buf := binary.AppendUvarint(nil, rj.ID)
	buf = binary.AppendVarint(buf, int64(rj.Timeout))
	buf = binary.AppendUvarint(buf, uint64(rj.Slots))
	for _, sec := range [][]byte{[]byte(rj.Client), rj.Payload, rj.Payload, fb.Bytes()} {
		buf = binary.AppendUvarint(buf, uint64(len(sec)))
		buf = append(buf, sec...)
	}
	return buf
}

func decodeSubmit(payload []byte) (RecoveredJob, error) {
	var rj RecoveredJob
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return rj, fmt.Errorf("serve: journal record truncated")
	}
	payload = payload[n:]
	to, n := binary.Varint(payload)
	if n <= 0 {
		return rj, fmt.Errorf("serve: journal record truncated")
	}
	payload = payload[n:]
	slots, n := binary.Uvarint(payload)
	if n <= 0 {
		return rj, fmt.Errorf("serve: journal record truncated")
	}
	payload = payload[n:]
	var secs [4][]byte
	for i := range secs {
		ln, k := binary.Uvarint(payload)
		if k <= 0 || ln > uint64(len(payload)-k) {
			return rj, fmt.Errorf("serve: journal record truncated")
		}
		secs[i] = payload[k : k+int(ln)]
		payload = payload[k+int(ln):]
	}
	w, err := cnf.ParseWCNF(bytes.NewReader(secs[3]))
	if err != nil {
		return rj, fmt.Errorf("serve: journal record formula: %w", err)
	}
	rj.ID = id
	rj.Timeout = time.Duration(to)
	rj.Slots = int(slots)
	rj.Client = string(secs[0])
	rj.Payload = append([]byte(nil), secs[2]...) // not a view: it outlives the log's read buffer
	rj.Formula = w
	return rj, nil
}
