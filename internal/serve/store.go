package serve

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/proof"
	"repro/internal/store"
)

// verifiedStore is the verified-result store, the only code that reads or
// writes stored verdicts. It owns the memory tier, an LRU of
// Config.CacheEntries verdicts, and a handle to the disk tier, which a
// durable server (Config.DataDir) opens. Both key on the formula alone
// (formulaKey): a verified verdict is a fact about the formula, whatever
// algorithm proved it and whatever budget it ran under, so a resubmission
// under other options hits.
//
// The rule for trusting a stored verdict, stated here and nowhere else:
//
//   - insert: a verdict enters only if it is UNSAT, or OPTIMAL with a model
//     that opt.VerifyModel accepts against the job's own formula; UNKNOWN
//     depends on the budget and never enters. A certified verdict is
//     appended and fsynced to the disk tier, with the certificate's proof
//     hints when the result carries them, before it enters memory, so no
//     hit is ever served that a crash could lose; an uncertified one stays
//     in memory. The memory copy never holds hints. The Faults.CorruptCert
//     bit flips in the memory copy only.
//   - lookup: every hit is re-checked against the submitted formula,
//     outside every lock: the model by opt.VerifyModel, a certificate end to
//     end by proof.CheckBytes. A model that fails is a fingerprint
//     collision, so the lookup misses and the entry stays. A certificate
//     that fails is a corrupt entry (or a collision): it is evicted and the
//     failure reported. A hit hands out copies of the model and certificate.
//     Only the certificate proves the verdict for the submitted formula:
//     opt.VerifyModel checks that the model meets its cost there, not that
//     the cost is optimal, and an uncertified UNSAT verdict is served on a
//     key match alone. The key is not collision-resistant (see
//     fingerprint.go), so a crafted collision with an uncertified verdict
//     can serve a wrong answer.
//   - load: every disk record is re-proved against its own recovered
//     formula, through its hints when it has them (a hint section that does
//     not decode or does not verify leaves the backward check to decide, so
//     hints never change a verdict), and the served result is rebuilt from
//     the certificate alone.
//     Every record is re-proved and counted, also past the memory tier's
//     capacity; the records are re-proved on every CPU, then the memory
//     tier is seeded and rejections are audited in log order. Rejected
//     records are compacted away.
type verifiedStore struct {
	disk   *resultStore // nil keeps every verdict in memory only
	faults *Faults

	mu  sync.Mutex // guards the memory tier
	cap int        // ≤ 0 disables the memory tier
	ll  *list.List // most recently used first
	m   map[formulaKey]*list.Element
}

// verdict is one memory-tier entry.
type verdict struct {
	key  formulaKey
	res  opt.Result
	meta string
}

func newVerifiedStore(cfg Config, disk *resultStore) *verifiedStore {
	return &verifiedStore{disk: disk, faults: cfg.faults, cap: cfg.CacheEntries,
		ll: list.New(), m: make(map[formulaKey]*list.Element)}
}

// len is the memory tier's size.
func (vs *verifiedStore) len() int {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.ll.Len()
}

// lookup answers w, whose key is k, from the memory tier. ok reports a hit
// that passed its re-checks; a non-nil err reports a certificate that failed
// and was evicted.
func (vs *verifiedStore) lookup(w *cnf.WCNF, k formulaKey) (r Result, ok bool, err error) {
	vs.mu.Lock()
	el, found := vs.m[k]
	if !found {
		vs.mu.Unlock()
		return Result{}, false, nil
	}
	vs.ll.MoveToFront(el)
	v := el.Value.(*verdict)
	r = Result{Result: v.res, Meta: v.meta, Cached: true}
	r.Model = slices.Clone(r.Model)
	r.Certificate = slices.Clone(r.Certificate)
	vs.mu.Unlock()

	if r.Model != nil && !opt.VerifyModel(w, r.Result) {
		return Result{}, false, nil
	}
	if len(r.Certificate) > 0 {
		if err := proof.CheckBytes(w, r.Certificate); err != nil {
			vs.mu.Lock() // evict unless a fresh insert replaced the entry meanwhile
			if el, found := vs.m[k]; found && el.Value == v {
				vs.evictLocked(el)
			}
			vs.mu.Unlock()
			return Result{}, false, err
		}
	}
	return r, true, nil
}

// insert offers job id's fresh result for w, whose key is k. It returns the
// disk tier's append error; the verdict enters memory either way.
func (vs *verifiedStore) insert(w *cnf.WCNF, k formulaKey, id uint64, r Result) error {
	if r.Err != nil || !(r.Status == opt.StatusUnsat ||
		r.Status == opt.StatusOptimal && opt.VerifyModel(w, r.Result)) {
		return nil
	}
	var err error
	if vs.disk != nil && len(r.Certificate) > 0 {
		err = vs.disk.save(w, r.Meta, r.Certificate, r.Hints...)
	}
	// The memory copy is private: the same Result goes to the job's waiters,
	// and a caller mutating its model must not corrupt the stored witness.
	res := r.Result
	res.Model = slices.Clone(res.Model)
	res.Certificate = slices.Clone(res.Certificate)
	res.Hints = nil
	if bit := vs.faults.corruptCertBit(id); bit >= 0 && len(res.Certificate) > 0 {
		res.Certificate[(bit/8)%len(res.Certificate)] ^= 1 << (bit % 8)
	}
	vs.remember(k, res, r.Meta)
	return err
}

// load re-proves every record the disk tier recovered at open and seeds the
// memory tier, in log order, with the ones that pass. It returns how many
// records it accepted and how many the integrity layer or the checker
// rejected; each rejection is audited, in log order.
func (vs *verifiedStore) load(audit func(AuditEvent)) (recovered, rejected int64) {
	rs := vs.disk
	if rs == nil {
		return 0, 0
	}
	rejected = int64(rs.dropped)
	if rs.dropped > 0 {
		audit(AuditEvent{Action: "recover", Detail: fmt.Sprintf("store: %d records dropped by integrity layer", rs.dropped)})
	}
	var kept []storeEntry
	for i, p := range reprove(rs.entries) {
		if p.err != nil {
			rejected++
			audit(AuditEvent{Action: "recover", Detail: "store: entry rejected: " + p.err.Error()})
			continue
		}
		e := rs.entries[i]
		vs.remember(keyFor(e.w), p.res, e.meta)
		recovered++
		kept = append(kept, e)
	}
	if len(kept) < len(rs.entries) {
		rs.entries = kept
		rs.compact() // rejected records would only be re-rejected next boot
	}
	rs.entries = nil // the memory tier owns the data now
	return recovered, rejected
}

// proved is one stored record's re-proof: the verdict its certificate
// carries, or why the certificate was rejected.
type proved struct {
	res opt.Result
	err error
}

// reprove decodes and checks the certificate of every entry against the
// entry's own formula, on every CPU; the verdicts come back in entry order.
// Each worker checks with a proof.Checker of its own, which reuses its
// buffers from record to record; they go once reprove returns, so the
// checks of a running server keep none.
func reprove(entries []storeEntry) []proved {
	out := make([]proved, len(entries))
	checkers := make([]proof.Checker, runtime.GOMAXPROCS(0))
	forEach(len(checkers), len(entries), func(worker, i int) { out[i] = reproveOne(entries[i], &checkers[worker]) })
	return out
}

// forEach calls do(worker, i) for every i in [0, n) on up to workers
// goroutines, numbered from 0 by worker, each taking the next index no
// goroutine has taken, and returns once every call has. The calls must be
// independent; each writes its own result slot.
func forEach(workers, n int, do func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for worker := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(worker, i)
			}
		}()
	}
	wg.Wait()
}

// reproveOne rebuilds the served result of one entry from its certificate
// alone, checked with c; the decoded proof steps and hints are dropped once
// checked. A hint section that does not decode is ignored.
func reproveOne(e storeEntry, c *proof.Checker) proved {
	cert, err := proof.Decode(e.cert)
	if err == nil {
		if e.hints != nil {
			_ = cert.AttachHints(e.hints)
		}
		err = c.Check(e.w, cert)
	}
	if err != nil {
		return proved{err: err}
	}
	res := opt.Result{Status: opt.StatusUnsat, Cost: -1, Certificate: e.cert}
	if cert.Kind == proof.KindOptimal {
		res.Status, res.Cost, res.LowerBound, res.Model = opt.StatusOptimal, cert.Cost, cert.Cost, cert.Model
	}
	return proved{res: res}
}

// remember puts a trusted verdict at the front of the memory tier, evicting
// the least recently used past capacity.
func (vs *verifiedStore) remember(k formulaKey, res opt.Result, meta string) {
	if vs.cap <= 0 {
		return
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if el, ok := vs.m[k]; ok {
		vs.ll.Remove(el)
	}
	vs.m[k] = vs.ll.PushFront(&verdict{key: k, res: res, meta: meta})
	for vs.ll.Len() > vs.cap {
		vs.evictLocked(vs.ll.Back())
	}
}

func (vs *verifiedStore) evictLocked(el *list.Element) {
	delete(vs.m, el.Value.(*verdict).key)
	vs.ll.Remove(el)
}

// resultStore is the verified-result store's disk tier, results.log under
// Config.DataDir: an append-only CRC-framed log (internal/store) of {meta,
// formula, certificate, hints} records, the hint section optional. Only
// certified results are persisted — the certificate is what lets the next
// process trust a record it did not produce (see verifiedStore.load); the
// hints only make that cheaper.
//
// The record stores the full formula, not just its fingerprint: the checker
// needs the instance to re-prove the certificate, and the fingerprint is
// recomputed from the formula at load (never trusted from disk).
type resultStore struct {
	log *store.Log
	// entries recovered at open, already deduplicated (last write wins per
	// formula fingerprint) but not yet validated — verifiedStore.load
	// consumes and re-proves them.
	entries []storeEntry
	dropped int // CRC/torn-tail rejects at open
	faults  *Faults
}

type storeEntry struct {
	w     *cnf.WCNF
	meta  string
	cert  []byte // a copy: the memory tier keeps it
	hints []byte // a view of raw, nil when the record has none
	// raw is the original payload, for compaction without re-encoding: a
	// view of the log's read buffer, dropped with the entry after load.
	raw []byte
}

const recResult byte = 1

// openResultStore opens (creating if absent) the durable result store at
// path. Frames the integrity layer rejects (bit rot, torn tails) are
// truncated away and counted, and so are records that do not decode; among
// the rest the newest one per formula wins, and the log is compacted when
// rewriting it would reclaim space. faults injects storage faults for the
// crash tests; nil writes faithfully.
func openResultStore(path string, faults *Faults) (*resultStore, error) {
	l, recs, dropped, err := store.Open(path, store.Options{WriteHook: faults.storeWriteHook(resultsLog)})
	if err != nil {
		return nil, err
	}
	rs := &resultStore{log: l, dropped: dropped, faults: faults}
	// Parse the records on every CPU. A record of another kind, or one
	// that does not decode, leaves its slot without a formula.
	decoded := make([]storeEntry, len(recs))
	forEach(runtime.GOMAXPROCS(0), len(recs), func(_, i int) {
		if recs[i].Kind != recResult {
			return
		}
		if e, err := decodeStoreEntry(recs[i].Payload); err == nil {
			decoded[i] = e
		}
	})
	byKey := make(map[formulaKey]int)
	for _, e := range decoded {
		if e.w == nil {
			rs.dropped++
			continue
		}
		k := keyFor(e.w)
		if i, ok := byKey[k]; ok {
			rs.entries[i] = e // newer record for the same formula wins
			continue
		}
		byKey[k] = len(rs.entries)
		rs.entries = append(rs.entries, e)
	}
	if len(rs.entries) < len(recs) {
		rs.compact()
	}
	return rs, nil
}

// save appends one certified result, with its certificate's proof hints
// when given, synced before returning — once a client has seen a certified
// answer, a crash must not lose it.
func (rs *resultStore) save(w *cnf.WCNF, meta string, cert []byte, hints ...byte) error {
	payload := encodeStoreEntry(w, meta, cert, hints...)
	if bit := rs.faults.corruptStoreBit(resultsLog, rs.log.Len()); bit >= 0 {
		payload[(bit/8)%len(payload)] ^= 1 << (bit % 8)
	}
	return rs.log.Append(recResult, payload, true)
}

// compact rewrites the log down to the currently live entries.
func (rs *resultStore) compact() {
	recs := make([]store.Record, len(rs.entries))
	for i, e := range rs.entries {
		recs[i] = store.Record{Kind: recResult, Payload: e.raw}
	}
	rs.log.Compact(recs) // best-effort: a failed compact leaves the old log
}

// close flushes and closes the underlying log.
func (rs *resultStore) close() error { return rs.log.Close() }

// encodeStoreEntry frames {meta, formula, certificate} as length-prefixed
// sections, and the hints as a fourth when there are any: a record without
// hints keeps the three-section format byte for byte.
func encodeStoreEntry(w *cnf.WCNF, meta string, cert []byte, hints ...byte) []byte {
	var fb bytes.Buffer
	cnf.WriteWCNF(&fb, w)
	buf := binary.AppendUvarint(nil, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.AppendUvarint(buf, uint64(fb.Len()))
	buf = append(buf, fb.Bytes()...)
	buf = binary.AppendUvarint(buf, uint64(len(cert)))
	buf = append(buf, cert...)
	if len(hints) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(hints)))
		buf = append(buf, hints...)
	}
	return buf
}

func decodeStoreEntry(payload []byte) (storeEntry, error) {
	raw := payload
	next := func() ([]byte, error) {
		n, k := binary.Uvarint(payload)
		if k <= 0 || n > uint64(len(payload)-k) {
			return nil, fmt.Errorf("serve: store record truncated")
		}
		b := payload[k : k+int(n)]
		payload = payload[k+int(n):]
		return b, nil
	}
	meta, err := next()
	if err != nil {
		return storeEntry{}, err
	}
	fb, err := next()
	if err != nil {
		return storeEntry{}, err
	}
	cert, err := next()
	if err != nil {
		return storeEntry{}, err
	}
	// The hint section is optional and never rejects a record: one that
	// does not frame is dropped, and the certificate is checked without it.
	hints, _ := next()
	w, err := cnf.ParseWCNF(bytes.NewReader(fb))
	if err != nil {
		return storeEntry{}, fmt.Errorf("serve: store record formula: %w", err)
	}
	// The payload is a view of the buffer the whole log was read into, which
	// the entry may hold only until load: the certificate, which the memory
	// tier keeps, is copied so that it does not pin that buffer.
	return storeEntry{w: w, meta: string(meta), cert: append([]byte(nil), cert...), hints: hints, raw: raw}, nil
}
