package serve

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/opt"
	"repro/internal/pbo"
	"repro/internal/proof"
	"repro/internal/sat"
	"repro/internal/store"
)

// openStoreT / openJournalT open one durable log with test fatality, for
// the tests that write or read a log beside a server.
func openStoreT(t *testing.T, path string, f *Faults) *resultStore {
	t.Helper()
	rs, err := openResultStore(path, f)
	if err != nil {
		t.Fatalf("openResultStore: %v", err)
	}
	return rs
}

func openJournalT(t *testing.T, path string) *journal {
	t.Helper()
	jl, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	return jl
}

// replayCertifying is the standard rebuild callback for these tests: every
// journaled payload maps to a real certifying solve under the same OptsKey.
func replayCertifying(rj RecoveredJob) (JobSpec, error) {
	return JobSpec{
		Formula: rj.Formula,
		OptsKey: string(rj.Payload),
		Client:  rj.Client,
		Timeout: rj.Timeout,
		Solve:   certifying(),
	}, nil
}

// TestStoreRoundTripAcrossRestart solves with certification in one server
// life and asserts the second life serves the answer from the recovered
// store — with the certificate intact and verifying.
func TestStoreRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	formula := contradiction()

	s := openT(t, Config{Workers: 1, DataDir: dir})
	r1 := waitResult(t, mustSubmit(t, s, JobSpec{Formula: formula, Solve: certifying()}))
	if r1.Status != opt.StatusOptimal || len(r1.Certificate) == 0 {
		t.Fatalf("first life solve: %+v", r1)
	}
	s.Close()

	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 1 || st.RecoveredRejected != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	// The second life must answer from the recovered store without running
	// a solver at all.
	noSolver := func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
		t.Error("recovered result not served: solver ran in the second life")
		return opt.Result{Status: opt.StatusUnknown, Cost: -1}
	}
	r2 := waitResult(t, mustSubmit(t, s2, JobSpec{Formula: formula, Solve: noSolver}))
	if !r2.Cached || r2.Status != opt.StatusOptimal || r2.Cost != r1.Cost {
		t.Fatalf("recovered hit: %+v", r2)
	}
	if err := proof.CheckBytes(formula, r2.Certificate); err != nil {
		t.Fatalf("recovered certificate rejected by the checker: %v", err)
	}
}

// certifyingHinted is certifying() with the certificate's proof hints
// attached, as the maxsat layer serves certified jobs.
func certifyingHinted(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
	r := (&pbo.Linear{}).Solve(ctx, w, shared)
	if cert, hints, err := opt.CertifyHinted(ctx, w, r, opt.Options{}); err == nil {
		r.Certificate, r.Hints = cert, hints
	}
	return r
}

// TestHintsStoredNeverServed solves with a certificate and its hints: the
// store record carries the hints, while the job's result, the retained job
// and the memory tier do not, and the next life recovers the record.
func TestHintsStoredNeverServed(t *testing.T) {
	dir := t.TempDir()
	formula := pigeonholeSoft(5, 4)
	s := openT(t, Config{Workers: 1, DataDir: dir})
	h := mustSubmit(t, s, JobSpec{Formula: formula, Solve: certifyingHinted})
	r := waitResult(t, h)
	if r.Status != opt.StatusOptimal || len(r.Certificate) == 0 || r.Hints != nil {
		t.Fatalf("published result: status %v, %d certificate bytes, %d hint bytes", r.Status, len(r.Certificate), len(r.Hints))
	}
	if retained, ok := s.Job(h.ID()); !ok || waitResult(t, retained).Hints != nil {
		t.Fatal("the retained job lost its result or kept the hints")
	}
	for el := s.results.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*verdict).res.Hints != nil {
			t.Fatal("the memory tier keeps hints")
		}
	}
	s.Close()

	rs := openStoreT(t, filepath.Join(dir, resultsLog), nil)
	if len(rs.entries) != 1 || len(rs.entries[0].hints) == 0 {
		t.Fatalf("the store record has no hint section")
	}
	rs.close()
	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 1 || st.RecoveredRejected != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if s2.results.disk.entries != nil {
		t.Fatal("the store keeps its recovered records after load")
	}
}

// TestStoreHintsNeverChangeVerdict boots on records whose hint sections
// are wrong inside intact CRC frames — a flipped bit, a broken frame, the
// hints of another certificate — and on one whose certificate is corrupt
// beside valid hints. The first three load; the last is rejected.
func TestStoreHintsNeverChangeVerdict(t *testing.T) {
	ctx := context.Background()
	formulas := []*cnf.WCNF{pigeonholeSoft(4, 3), pigeonholeSoft(5, 4), pigeonholeSoft(5, 3), pigeonholeSoft(6, 4)}
	certs, hints := make([][]byte, len(formulas)), make([][]byte, len(formulas))
	for i, w := range formulas {
		r := certifyingHinted(ctx, w, nil, Grant{})
		if len(r.Hints) == 0 {
			t.Fatalf("formula %d: no hints", i)
		}
		certs[i], hints[i] = r.Certificate, r.Hints
	}
	flipped := slices.Clone(hints[0])
	flipped[len(flipped)/2] ^= 0x10
	badCert := slices.Clone(certs[3])
	badCert[4] ^= 1 // the kind byte after the magic
	payloads := [][]byte{
		encodeStoreEntry(formulas[0], "flipped hint", certs[0], flipped...),
		// A hint section whose length prefix overruns the record.
		append(encodeStoreEntry(formulas[1], "broken frame", certs[1]), 0xff, 0x7f, 1),
		encodeStoreEntry(formulas[2], "another's hints", certs[2], hints[1]...),
		encodeStoreEntry(formulas[3], "corrupt certificate", badCert, hints[3]...),
	}
	dir := t.TempDir()
	l, _, _, err := store.Open(filepath.Join(dir, resultsLog), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(recResult, p, true); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	s := openT(t, Config{Workers: 1, DataDir: dir})
	defer s.Close()
	if st := s.Stats(); st.Recovered != 3 || st.RecoveredRejected != 1 {
		t.Fatalf("Recovered = %d, RecoveredRejected = %d, want 3 and 1", st.Recovered, st.RecoveredRejected)
	}
	for i, w := range formulas[:3] {
		r, ok, err := s.results.lookup(w, keyFor(w))
		if !ok || err != nil || !slices.Equal(r.Certificate, certs[i]) {
			t.Errorf("formula %d: hit %v (%v), certificate as stored: %v", i, ok, err, slices.Equal(r.Certificate, certs[i]))
		}
	}
}

// TestUncertifiedResultsNotDurable asserts the trust boundary: a verified
// but uncertified optimum is cacheable in memory yet never written to the
// durable store.
func TestUncertifiedResultsNotDurable(t *testing.T) {
	dir := t.TempDir()
	formula := contradiction()

	s := openT(t, Config{Workers: 1, DataDir: dir})
	r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: formula, Solve: optimal(1)}))
	if r.Status != opt.StatusOptimal || len(r.Certificate) != 0 {
		t.Fatalf("uncertified solve: %+v", r)
	}
	s.Close()

	rs2 := openStoreT(t, filepath.Join(dir, resultsLog), nil)
	defer rs2.close()
	if n := len(rs2.entries); n != 0 {
		t.Fatalf("uncertified result persisted: %d store entries", n)
	}
}

// TestCorruptStoreNeverServed flips a payload bit on the way into the
// durable store (a valid CRC frame around a corrupt certificate) and asserts
// the recovery re-validation layer rejects it: the entry is dropped, counted
// and the formula is re-solved rather than served.
func TestCorruptStoreNeverServed(t *testing.T) {
	dir := t.TempDir()
	formula := contradiction()

	faults := &Faults{CorruptStore: func(log string, seq uint64) int {
		if log == resultsLog {
			return 9000
		}
		return -1
	}}
	s := openT(t, Config{Workers: 1, DataDir: dir, faults: faults})
	r1 := waitResult(t, mustSubmit(t, s, JobSpec{Formula: formula, Solve: certifying()}))
	if r1.Status != opt.StatusOptimal {
		t.Fatalf("first life solve: %+v", r1)
	}
	s.Close()

	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	st := s2.Stats()
	if st.Recovered != 0 {
		t.Fatalf("a corrupted store entry was admitted: %+v", st)
	}
	if st.RecoveredRejected == 0 {
		t.Fatalf("corrupted entry not counted as rejected: %+v", st)
	}
	// The formula still solves — freshly.
	r2 := waitResult(t, mustSubmit(t, s2, JobSpec{Formula: formula, Solve: certifying()}))
	if r2.Cached || r2.Status != opt.StatusOptimal {
		t.Fatalf("post-corruption solve: %+v", r2)
	}
}

// TestCrashAfterWriteTruncatedCleanly tears the second store record
// mid-write (simulated crash) and asserts recovery keeps the first record,
// drops the torn tail, and counts it.
func TestCrashAfterWriteTruncatedCleanly(t *testing.T) {
	dir := t.TempDir()
	f1 := contradiction()
	f2 := cnf.NewWCNF(2)
	f2.AddSoft(1, cnf.PosLit(0))
	f2.AddSoft(1, cnf.NegLit(0))
	f2.AddSoft(1, cnf.PosLit(1))
	f2.AddSoft(1, cnf.NegLit(1))

	faults := &Faults{CrashAfterWrite: func(log string, seq uint64) bool { return log == resultsLog && seq == 1 }}
	s := openT(t, Config{Workers: 1, DataDir: dir, faults: faults})
	if r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: f1, Solve: certifying()})); r.Status != opt.StatusOptimal {
		t.Fatalf("job 1: %+v", r)
	}
	if r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: f2, OptsKey: "two", Solve: certifying()})); r.Status != opt.StatusOptimal {
		t.Fatalf("job 2: %+v", r)
	}
	s.Close()

	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	st := s2.Stats()
	if st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1 (the record before the crash)", st.Recovered)
	}
	if st.RecoveredRejected == 0 {
		t.Fatalf("torn tail not counted: %+v", st)
	}
	// The surviving entry is the first formula's.
	r := waitResult(t, mustSubmit(t, s2, JobSpec{Formula: f1, Solve: certifying()}))
	if !r.Cached {
		t.Fatal("pre-crash record not served after recovery")
	}
}

// TestStoreWritesBeforeHit holds the first certified record's store write
// open and asserts that no submission is answered from memory meanwhile: a
// verdict serves a hit only once the record behind it is on disk, so a crash
// cannot lose an answer a client has already seen.
func TestStoreWritesBeforeHit(t *testing.T) {
	formula := contradiction()
	entered, release := make(chan struct{}), make(chan struct{})
	faults := &Faults{CrashAfterWrite: func(log string, seq uint64) bool {
		if log == resultsLog && seq == 0 {
			close(entered)
			<-release
		}
		return false
	}}
	s := openT(t, Config{Workers: 1, DataDir: t.TempDir(), faults: faults})
	defer s.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // runs before Close, which waits for the held write

	h1 := mustSubmit(t, s, JobSpec{Formula: formula, OptsKey: "one", Solve: certifying()})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the certified result never reached the store")
	}
	h2 := mustSubmit(t, s, JobSpec{Formula: formula, OptsKey: "two", Solve: certifying()})
	if r, done := h2.Result(); done && r.Cached {
		t.Fatal("a verdict was served from memory before its record was on disk")
	}
	releaseOnce()
	for _, h := range []*Handle{h1, h2} {
		if r := waitResult(t, h); r.Status != opt.StatusOptimal {
			t.Fatalf("job %d: %+v", h.ID(), r)
		}
	}
}

// TestStoreRecoversPastCacheCapacity restarts on a store that holds more
// certified verdicts than the memory tier: every record is re-proved and
// counted, the memory tier keeps the newest, and the oldest re-solves.
func TestStoreRecoversPastCacheCapacity(t *testing.T) {
	dir := t.TempDir()
	formulas := make([]*cnf.WCNF, 3)
	for i := range formulas {
		w := cnf.NewWCNF(i + 1)
		w.AddSoft(1, cnf.PosLit(cnf.Var(i)))
		w.AddSoft(1, cnf.NegLit(cnf.Var(i)))
		formulas[i] = w
	}

	s := openT(t, Config{Workers: 1, CacheEntries: 2, DataDir: dir})
	for _, w := range formulas {
		if r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: w, Solve: certifying()})); r.Status != opt.StatusOptimal {
			t.Fatalf("first life solve: %+v", r)
		}
	}
	s.Close()

	s2 := openT(t, Config{Workers: 1, CacheEntries: 2, DataDir: dir})
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 3 || st.RecoveredRejected != 0 || st.CacheSize != 2 {
		t.Fatalf("recovery stats: %+v", st)
	}
	// Newest first: an oldest-first scan would re-solve the oldest formula
	// and evict a recovered one before it was queried.
	for i := len(formulas) - 1; i >= 0; i-- {
		r := waitResult(t, mustSubmit(t, s2, JobSpec{Formula: formulas[i], Solve: certifying()}))
		if r.Status != opt.StatusOptimal || r.Cached != (i > 0) {
			t.Fatalf("formula %d after restart: cached=%t, want %t: %+v", i, r.Cached, i > 0, r)
		}
	}
}

// TestStoreParallelDecodeMatchesSequential opens one log holding a
// formula stored twice, a record whose formula does not parse and a record
// of another kind among valid ones, and checks that the parallel decode at
// open keeps what decoding the records one after another keeps: the same
// entries in the same order, and the same count of dropped records.
func TestStoreParallelDecodeMatchesSequential(t *testing.T) {
	path := filepath.Join(t.TempDir(), resultsLog)
	l, _, _, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	formula := func(i int) *cnf.WCNF {
		w := cnf.NewWCNF(i + 1)
		w.AddSoft(1, cnf.PosLit(cnf.Var(i)))
		return w
	}
	unparsable := binary.AppendUvarint(nil, 0)
	unparsable = binary.AppendUvarint(unparsable, 7)
	unparsable = append(unparsable, "p wcnf?"...)
	unparsable = binary.AppendUvarint(unparsable, 0)
	var appended []store.Record
	for i := range 24 {
		r := store.Record{Kind: recResult, Payload: encodeStoreEntry(formula(i%9), fmt.Sprintf("record %d", i), []byte{byte(i)})}
		switch i {
		case 5:
			r.Payload = unparsable
		case 11:
			r.Kind = recResult + 1
		}
		if err := l.Append(r.Kind, r.Payload, false); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The sequential decode: each record in log order, the newest record
	// of a formula kept at the position of its first.
	var want []storeEntry
	wantDropped := 0
	at := make(map[formulaKey]int)
	for _, r := range appended {
		e, err := decodeStoreEntry(r.Payload)
		if r.Kind != recResult || err != nil {
			wantDropped++
			continue
		}
		if i, ok := at[keyFor(e.w)]; ok {
			want[i] = e
			continue
		}
		at[keyFor(e.w)] = len(want)
		want = append(want, e)
	}
	if len(want) != 9 || wantDropped != 2 {
		t.Fatalf("the log holds %d formulas and %d bad records, want 9 and 2", len(want), wantDropped)
	}

	rs := openStoreT(t, path, nil)
	defer rs.close()
	if rs.dropped != wantDropped {
		t.Errorf("dropped %d records, want %d", rs.dropped, wantDropped)
	}
	if len(rs.entries) != len(want) {
		t.Fatalf("kept %d entries, want %d", len(rs.entries), len(want))
	}
	for i, e := range rs.entries {
		if e.meta != want[i].meta || !slices.Equal(e.raw, want[i].raw) || keyFor(e.w) != keyFor(want[i].w) {
			t.Errorf("entry %d is %q, want %q", i, e.meta, want[i].meta)
		}
	}
}

// TestStoreParallelLoadKeepsLogOrder restarts on a store that holds more
// records than the memory tier, four of them with a certificate that
// Faults.CorruptStore corrupted on the way to disk, and asserts that the
// parallel re-proof keeps the sequential contract: the memory tier holds the
// newest accepted records in LRU order, every record is counted, the
// rejections are audited in log order, and the compacted log keeps exactly
// the accepted records.
func TestStoreParallelLoadKeepsLogOrder(t *testing.T) {
	const n, capacity = 12, 3
	// Each corrupted record flips one bit of its certificate's kind byte
	// (1, OPTIMAL), so each rejection names a kind of its own.
	corruptBit := map[int]int{1: 1, 4: 0, 5: 2, 9: 3}
	dir := t.TempDir()
	path := filepath.Join(dir, resultsLog)

	var payloadLen, certLen int // of the record being saved
	faults := &Faults{CorruptStore: func(_ string, seq uint64) int {
		bit, ok := corruptBit[int(seq)]
		if !ok {
			return -1
		}
		kindByte := payloadLen - certLen + 4 // after the "MXC1" magic
		return 8*kindByte + bit
	}}
	rs := openStoreT(t, path, faults)
	formulas := make([]*cnf.WCNF, n)
	for i := range formulas {
		w := cnf.NewWCNF(i + 1)
		w.AddSoft(1, cnf.PosLit(cnf.Var(i)))
		w.AddSoft(1, cnf.NegLit(cnf.Var(i)))
		formulas[i] = w
	}
	// Record 0 takes far longer to re-prove than the rest, so with two or
	// more workers it finishes last; its verdict must still be seeded
	// first.
	formulas[0] = pigeonholeSoft(6, 5)
	for i, w := range formulas {
		cert := certifying()(context.Background(), w, nil, Grant{}).Certificate
		if len(cert) == 0 {
			t.Fatalf("formula %d: no certificate", i)
		}
		meta := fmt.Sprintf("record %d", i)
		payloadLen, certLen = len(encodeStoreEntry(w, meta, cert)), len(cert)
		if err := rs.save(w, meta, cert); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	rs.close()

	var accepted []int
	var wantAudits []string
	for i := range formulas {
		if bit, ok := corruptBit[i]; ok {
			wantAudits = append(wantAudits, fmt.Sprintf("store: entry rejected: proof: unknown certificate kind %d", 1^(1<<bit)))
		} else {
			accepted = append(accepted, i)
		}
	}
	var audits []string
	s := openT(t, Config{Workers: 1, CacheEntries: capacity, DataDir: dir, Audit: func(e AuditEvent) {
		if e.Action == "recover" {
			audits = append(audits, e.Detail)
		}
	}})
	if st := s.Stats(); st.Recovered != int64(len(accepted)) || st.RecoveredRejected != int64(len(corruptBit)) {
		t.Errorf("Recovered = %d, RecoveredRejected = %d, want %d and %d",
			st.Recovered, st.RecoveredRejected, len(accepted), len(corruptBit))
	}
	if !slices.Equal(audits, wantAudits) {
		t.Errorf("recovery audits:\n got %q\nwant %q", audits, wantAudits)
	}
	var lru, wantLRU []string // most recently used first
	for el := s.results.ll.Front(); el != nil; el = el.Next() {
		lru = append(lru, el.Value.(*verdict).meta)
	}
	for _, i := range slices.Backward(accepted[len(accepted)-capacity:]) {
		wantLRU = append(wantLRU, fmt.Sprintf("record %d", i))
	}
	if !slices.Equal(lru, wantLRU) {
		t.Errorf("memory tier %q, want %q", lru, wantLRU)
	}
	for el, i := s.results.ll.Front(), len(accepted)-1; el != nil; el, i = el.Next(), i-1 {
		v := el.Value.(*verdict)
		if v.key != keyFor(formulas[accepted[i]]) || v.res.Status != opt.StatusOptimal || v.res.Cost != 1 {
			t.Errorf("%s: memory-tier entry does not hold its formula's verdict: %+v", v.meta, v.res)
		}
	}
	s.Close()

	rs3 := openStoreT(t, path, nil)
	defer rs3.close()
	var compacted []string
	for _, e := range rs3.entries {
		compacted = append(compacted, e.meta)
	}
	var wantCompacted []string
	for _, i := range accepted {
		wantCompacted = append(wantCompacted, fmt.Sprintf("record %d", i))
	}
	if rs3.dropped != 0 || !slices.Equal(compacted, wantCompacted) {
		t.Errorf("compacted log holds %q (%d dropped), want %q", compacted, rs3.dropped, wantCompacted)
	}
}

// pigeonholeSoft places pigeons in holes with one soft clause per pigeon:
// the optimum leaves pigeons−holes of them homeless.
func pigeonholeSoft(pigeons, holes int) *cnf.WCNF {
	w := cnf.NewWCNF(pigeons * holes)
	v := func(p, h int) cnf.Lit { return cnf.PosLit(cnf.Var(p*holes + h)) }
	for p := 0; p < pigeons; p++ {
		var c []cnf.Lit
		for h := 0; h < holes; h++ {
			c = append(c, v(p, h))
		}
		w.AddSoft(1, c...)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				w.AddHard(v(p, h).Neg(), v(q, h).Neg())
			}
		}
	}
	return w
}

// TestJournalReplay shuts a server down with one running and one queued job
// and asserts the next life replays both to completion under their original
// IDs — an admitted submission is never forgotten.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	formula := contradiction()

	s := openT(t, Config{Workers: 1, DataDir: dir})
	// A blocker occupies the only worker so the second job is journaled but
	// never runs — the "in flight at shutdown" shape.
	hBlock := mustSubmit(t, s, JobSpec{Formula: formula, OptsKey: "block", Solve: blocker(nil)})
	hQueued := mustSubmit(t, s, JobSpec{Formula: formula, OptsKey: "queued", Solve: certifying()})
	queuedID := hQueued.ID()
	// Close cancels both before they finish; shutdown-cancelled jobs keep
	// their journal entries pending.
	s.Close()

	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	if err := s2.Recover(replayCertifying); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h, ok := s2.Job(queuedID)
	if !ok {
		t.Fatalf("job %d not addressable after replay", queuedID)
	}
	r := waitResult(t, h)
	if r.Err != nil || r.Status != opt.StatusOptimal {
		t.Fatalf("replayed job result: %+v", r)
	}
	if st := s2.Stats(); st.Replayed == 0 {
		t.Fatalf("Stats.Replayed = 0 after replay: %+v", st)
	}
	if hBlock.ID() == queuedID {
		t.Fatal("test invariant: distinct IDs")
	}
	// New submissions never collide with pre-crash IDs.
	h3 := mustSubmit(t, s2, JobSpec{Formula: formula, OptsKey: "fresh", Solve: optimal(1)})
	if h3.ID() <= queuedID {
		t.Fatalf("fresh job ID %d not past recovered ID %d", h3.ID(), queuedID)
	}
	waitResult(t, h3)
}

// TestJournalReplayIdempotent covers the store-backed dedup layer: a pending
// journal entry whose certified answer is already durable (its done marker
// was lost in the crash) completes instantly from the recovered store — no
// solver runs, and the recovered ID is addressable with the cached result.
func TestJournalReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	formula := contradiction()

	// First life: solve and certify, making the answer durable.
	s := openT(t, Config{Workers: 1, DataDir: dir})
	r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: formula, OptsKey: "dup", Solve: certifying()}))
	if r.Status != opt.StatusOptimal {
		t.Fatalf("first life solve: %+v", r)
	}
	s.Close()

	// Simulate a submission accepted just before the crash — or equivalently
	// a completed one whose lazy done marker was lost: a bare submit record
	// with no marker.
	jl := openJournalT(t, filepath.Join(dir, journalLog))
	if err := jl.record(99, formula, JobSpec{OptsKey: "dup"}); err != nil {
		t.Fatal(err)
	}
	jl.close()

	// Second life: the pending job's formula is already answered in the
	// re-validated store; replay must not run a solver.
	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	ranSolver := atomic.Bool{}
	if err := s2.Recover(func(rj RecoveredJob) (JobSpec, error) {
		return JobSpec{Formula: rj.Formula, OptsKey: string(rj.Payload),
			Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
				ranSolver.Store(true)
				return certifying()(ctx, w, shared, g)
			}}, nil
	}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h, ok := s2.Job(99)
	if !ok {
		t.Fatal("recovered job 99 not addressable")
	}
	rr := waitResult(t, h)
	if !rr.Cached || rr.Status != opt.StatusOptimal {
		t.Fatalf("store-completed replay: %+v", rr)
	}
	if ranSolver.Load() {
		t.Fatal("replay ran a solver for a job whose answer was durable")
	}
	if st := s2.Stats(); st.CacheHits != 1 || st.Recovered != 1 {
		t.Fatalf("idempotent replay stats: %+v", st)
	}
}

// TestJournalReplayCoalesces loses done markers for two identical pending
// submissions and asserts replay runs the formula once, with both original
// IDs addressing the one run.
func TestJournalReplayCoalesces(t *testing.T) {
	dir := t.TempDir()
	formula := contradiction()

	// First life: journal two identical submissions and crash before either
	// runs (blocker pins the worker; Close cancels them, and cancelled jobs
	// do not reach markDone... they do — finish always marks. So simulate
	// the crash harder: never close the first server's journal cleanly;
	// write the journal by hand instead.)
	jl := openJournalT(t, filepath.Join(dir, journalLog))
	for id := uint64(1); id <= 2; id++ {
		if err := jl.record(id, formula, JobSpec{OptsKey: "same"}); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()

	s := openT(t, Config{Workers: 1, DataDir: dir})
	defer s.Close()
	var runs atomic.Int64
	if err := s.Recover(func(rj RecoveredJob) (JobSpec, error) {
		return JobSpec{Formula: rj.Formula, OptsKey: string(rj.Payload),
			Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
				runs.Add(1)
				return certifying()(ctx, w, shared, g)
			}}, nil
	}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for id := uint64(1); id <= 2; id++ {
		h, ok := s.Job(id)
		if !ok {
			t.Fatalf("recovered job %d not addressable", id)
		}
		if r := waitResult(t, h); r.Status != opt.StatusOptimal {
			t.Fatalf("job %d: %+v", id, r)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("coalesced replay ran the solver %d times, want 1", n)
	}
	if st := s.Stats(); st.Coalesced != 1 || st.Replayed != 2 {
		t.Fatalf("replay stats: %+v", st)
	}
}

// TestJournalKeepsMaxIDAcrossCompaction completes job 7, then reopens the
// journal twice without submitting: the first reopen compacts the log down
// to nothing pending, and the second must still know ID 7 was handed out,
// so a server on it never hands out an ID a client may still hold.
func TestJournalKeepsMaxIDAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, journalLog)
	formula := contradiction()

	jl := openJournalT(t, jpath)
	if err := jl.record(7, formula, JobSpec{OptsKey: "k"}); err != nil {
		t.Fatal(err)
	}
	jl.markDone(7)
	jl.close()

	for life := 2; life <= 3; life++ {
		jl = openJournalT(t, jpath)
		if got := jl.maxID; got != 7 {
			t.Fatalf("life %d: maxID = %d, want 7", life, got)
		}
		if n := len(jl.pendingJobs()); n != 0 {
			t.Fatalf("life %d: %d pending jobs, want 0", life, n)
		}
		jl.close()
	}
	s := openT(t, Config{Workers: 1, DataDir: dir})
	defer s.Close()
	h := mustSubmit(t, s, JobSpec{Formula: formula, OptsKey: "fresh", Solve: optimal(1)})
	if h.ID() != 8 {
		t.Fatalf("first submission got ID %d, want 8", h.ID())
	}
	waitResult(t, h)
}

// unparseableSubmit is a journaled submission of job id whose formula
// section does not parse.
func unparseableSubmit(id uint64) []byte {
	buf := binary.AppendUvarint(nil, id)
	buf = binary.AppendVarint(buf, 0)
	buf = binary.AppendUvarint(buf, 1)
	for _, sec := range []string{"client", "k", "{}", "p wcnf garbage"} {
		buf = binary.AppendUvarint(buf, uint64(len(sec)))
		buf = append(buf, sec...)
	}
	return buf
}

// TestJournalParsesOnlyPending opens a journal whose completed submissions
// carry formula sections that do not parse: a completed submission is
// never decoded, so none is pending and none is counted. Then an
// unparseable pending submission joins a good one, and only it is dropped
// and counted.
func TestJournalParsesOnlyPending(t *testing.T) {
	if _, err := decodeSubmit(unparseableSubmit(1)); err == nil {
		t.Fatal("the unparseable submission decodes")
	}
	path := filepath.Join(t.TempDir(), journalLog)
	appendAll := func(recs ...store.Record) {
		t.Helper()
		l, _, _, err := store.Open(path, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := l.Append(r.Kind, r.Payload, true); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
	}
	var done []store.Record
	for id := uint64(1); id <= 3; id++ {
		done = append(done, store.Record{Kind: recSubmit, Payload: unparseableSubmit(id)},
			store.Record{Kind: recDone, Payload: binary.AppendUvarint(nil, id)})
	}
	appendAll(done...)
	jl := openJournalT(t, path)
	if n := len(jl.pendingJobs()); n != 0 || jl.dropped != 0 || jl.maxID != 3 {
		t.Fatalf("%d pending, %d dropped, maxID %d; want 0, 0 and 3", n, jl.dropped, jl.maxID)
	}
	jl.close()

	appendAll(store.Record{Kind: recSubmit, Payload: unparseableSubmit(4)},
		store.Record{Kind: recSubmit, Payload: encodeSubmit(RecoveredJob{ID: 5, Payload: []byte("k")}, contradiction())})
	jl = openJournalT(t, path)
	defer jl.close()
	if p := jl.pendingJobs(); len(p) != 1 || p[0].ID != 5 || jl.dropped != 1 {
		t.Fatalf("pending %+v with %d dropped; want job 5 alone and 1 dropped", p, jl.dropped)
	}
}

// TestJournalDropsCounted opens a journal holding one pending submission
// that does not decode beside one that does: the server counts the dropped
// record in RecoveredRejected and audits it as one recover event.
func TestJournalDropsCounted(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := store.Open(filepath.Join(dir, journalLog), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{unparseableSubmit(1), encodeSubmit(RecoveredJob{ID: 2, Payload: []byte("k")}, contradiction())} {
		if err := l.Append(recSubmit, p, true); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	var mu sync.Mutex
	var events []AuditEvent
	s := openT(t, Config{Workers: 1, DataDir: dir, Audit: func(e AuditEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}})
	defer s.Close()
	if st := s.Stats(); st.RecoveredRejected != 1 {
		t.Errorf("RecoveredRejected = %d, want 1", st.RecoveredRejected)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || events[0].Action != "recover" || events[0].Detail != "journal: 1 records dropped" {
		t.Errorf("audit events %+v, want one recover event for the dropped record", events)
	}
}

// TestJournalRecordBytes pins the submit record's layout: the record
// journaled for a fixed submission equals the bytes an earlier build
// encoded for it, with its options in both the key and the payload
// section, and it decodes back to those options.
func TestJournalRecordBytes(t *testing.T) {
	const (
		key    = `{"alg":"oll","to":3000000000,"cert":true}`
		parent = "ac0280f882ad160205616c696365297b22616c67223a226f6c6c222c22746f223a333030303030303030302c2263657274223a747275657d297b22616c67223a226f6c6c222c22746f223a333030303030303030302c2263657274223a747275657d1a702077636e662031203220330a31203120300a31202d3120300a"
	)
	path := filepath.Join(t.TempDir(), journalLog)
	jl := openJournalT(t, path)
	if err := jl.record(300, contradiction(), JobSpec{OptsKey: key, Client: "alice", Slots: 2, Timeout: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	l, recs, _, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 1 || recs[0].Kind != recSubmit {
		t.Fatalf("the journal holds %d records, want one submit record", len(recs))
	}
	if got := hex.EncodeToString(recs[0].Payload); got != parent {
		t.Fatalf("submit record\n got %s\nwant %s", got, parent)
	}
	rj, err := decodeSubmit(recs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rj.ID != 300 || rj.Client != "alice" || rj.Slots != 2 || rj.Timeout != 3*time.Second || string(rj.Payload) != key {
		t.Fatalf("decoded %+v", rj)
	}
}

// TestJournalRecordsEveryJob shuts a durable server down with a one-shot
// job and a session solve in flight, neither of which names anything to
// journal but its OptsKey, and asserts the next life's Recover hands each
// one back with its options.
func TestJournalRecordsEveryJob(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Workers: 2, DataDir: dir})
	oneShot := mustSubmit(t, s, JobSpec{Formula: contradiction(), OptsKey: "one-shot", Solve: blocker(nil)})
	sess := mustOpen(t, s, SessionSpec{Base: pigeonholeSoft(3, 2), OptsKey: "session",
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant, _ opt.Incremental) (opt.Result, bool) {
			return blocker(nil)(ctx, w, shared, g), false
		}})
	solve, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatalf("session Solve: %v", err)
	}
	// Close cancels both; jobs cancelled by shutdown stay pending.
	s.Close()

	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	got := make(map[uint64]string)
	if err := s2.Recover(func(rj RecoveredJob) (JobSpec, error) {
		got[rj.ID] = string(rj.Payload)
		return replayCertifying(rj)
	}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want := map[uint64]string{oneShot.ID(): "one-shot", solve.ID(): "session"}
	if !maps.Equal(got, want) {
		t.Fatalf("Recover rebuilt %v, want %v", got, want)
	}
	for id := range want {
		h, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %d not addressable after replay", id)
		}
		if r := waitResult(t, h); r.Status != opt.StatusOptimal {
			t.Fatalf("replayed job %d: %+v", id, r)
		}
	}
}

// TestDrainPastDeadlineClosesLogsAndRecovers drains a durable server past
// its deadline with one job still running, then closes it: Drain closes
// both logs, Close after it changes nothing, and the next Open of the same
// directory in this process recovers every certified record and replays the
// job the deadline cancelled.
func TestDrainPastDeadlineClosesLogsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	certified := []*cnf.WCNF{contradiction(), pigeonholeSoft(3, 2)}
	stuck := pigeonholeSoft(4, 3)
	s := openT(t, Config{Workers: 2, DataDir: dir})
	for _, w := range certified {
		if r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: w, Solve: certifying()})); len(r.Certificate) == 0 {
			t.Fatalf("uncertified solve: %+v", r)
		}
	}
	h := mustSubmit(t, s, JobSpec{Formula: stuck, OptsKey: "stuck", Solve: blocker(nil)})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want the deadline", err)
	}
	if r := waitResult(t, h); r.Status != opt.StatusUnknown {
		t.Fatalf("the stuck job: %+v", r)
	}
	for name, l := range map[string]*store.Log{resultsLog: s.results.disk.log, journalLog: s.journal.log} {
		if err := l.Append(recDone, binary.AppendUvarint(nil, 1), false); err == nil {
			t.Fatalf("%s is still open after Drain", name)
		}
	}
	s.Close()

	s2 := openT(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != int64(len(certified)) || st.RecoveredRejected != 0 {
		t.Fatalf("Recovered = %d, RecoveredRejected = %d, want %d and 0", st.Recovered, st.RecoveredRejected, len(certified))
	}
	var replayed []uint64
	if err := s2.Recover(func(rj RecoveredJob) (JobSpec, error) {
		replayed = append(replayed, rj.ID)
		return replayCertifying(rj)
	}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !slices.Equal(replayed, []uint64{h.ID()}) {
		t.Fatalf("replayed jobs %v, want [%d]", replayed, h.ID())
	}
	r2, ok := s2.Job(h.ID())
	if !ok {
		t.Fatalf("job %d not addressable after replay", h.ID())
	}
	if r := waitResult(t, r2); r.Status != opt.StatusOptimal || r.Cached {
		t.Fatalf("replayed job: %+v", r)
	}
}

// TestRecoverDropsUnrebuildable journals two pending jobs whose first no
// longer rebuilds (an algorithm a newer binary removed, say): replay drops
// it with an audit event and a done marker, and still replays the second.
func TestRecoverDropsUnrebuildable(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, journalLog)
	formula := contradiction()

	jl := openJournalT(t, jpath)
	for id := uint64(1); id <= 2; id++ {
		if err := jl.record(id, formula, JobSpec{OptsKey: fmt.Sprint("opts-", id)}); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()

	var mu sync.Mutex
	var events []AuditEvent
	s := openT(t, Config{Workers: 1, DataDir: dir, Audit: func(e AuditEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}})
	err := s.Recover(func(rj RecoveredJob) (JobSpec, error) {
		if rj.ID == 1 {
			return JobSpec{}, errors.New("unknown algorithm")
		}
		return replayCertifying(rj)
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h, ok := s.Job(2)
	if !ok {
		t.Fatal("job 2 not addressable after replay")
	}
	if r := waitResult(t, h); r.Status != opt.StatusOptimal {
		t.Fatalf("job 2: %+v", r)
	}
	if _, ok := s.Job(1); ok {
		t.Fatal("dropped job 1 is addressable")
	}
	mu.Lock()
	var dropped []AuditEvent
	for _, e := range events {
		if e.Action == "recover" && e.JobID == 1 {
			dropped = append(dropped, e)
		}
	}
	mu.Unlock()
	if len(dropped) != 1 || !strings.HasPrefix(dropped[0].Detail, "replay dropped: ") {
		t.Fatalf("recover audit events for job 1: %+v", dropped)
	}
	s.Close()

	jl = openJournalT(t, jpath)
	defer jl.close()
	for _, rj := range jl.pendingJobs() {
		if rj.ID == 1 {
			t.Fatal("dropped job 1 still pending in the next life")
		}
	}
}

// TestWatchdogKillsStalledSolver asserts the watchdog cancels a solver whose
// heartbeat never moves, and that with retries off the failure surfaces.
func TestWatchdogKillsStalledSolver(t *testing.T) {
	defer checkGoroutines(t)()
	s := openT(t, Config{Workers: 1, StallTimeout: 30 * time.Millisecond})
	defer s.Close()
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(),
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			<-ctx.Done() // stalled: blocks, no heartbeat — until the watchdog fires
			return opt.Result{Status: opt.StatusUnknown, Cost: -1}
		}})
	r := waitResult(t, h)
	if r.Err == nil {
		t.Fatalf("stalled job did not fail: %+v", r)
	}
	if st := s.Stats(); st.Stalled != 1 {
		t.Fatalf("Stats.Stalled = %d, want 1", st.Stalled)
	}
}

// TestWatchdogSparesProgressingSolver asserts a slow solver that keeps
// ticking its heartbeat is never killed, even over many stall windows.
func TestWatchdogSparesProgressingSolver(t *testing.T) {
	defer checkGoroutines(t)()
	s := openT(t, Config{Workers: 1, StallTimeout: 40 * time.Millisecond})
	defer s.Close()
	h := mustSubmit(t, s, JobSpec{Formula: contradiction(),
		Solve: func(ctx context.Context, w *cnf.WCNF, shared *opt.Bounds, g Grant) opt.Result {
			// 8 stall windows of wall time, but the heartbeat ticks well
			// inside every window.
			beat := sat.ProgressFrom(ctx)
			for range 32 {
				if ctx.Err() != nil {
					return opt.Result{Status: opt.StatusUnknown, Cost: -1}
				}
				time.Sleep(10 * time.Millisecond)
				beat.Add(1)
			}
			return optimal(1)(ctx, w, shared, g)
		}})
	r := waitResult(t, h)
	if r.Err != nil || r.Status != opt.StatusOptimal {
		t.Fatalf("slow-but-progressing job killed: %+v", r)
	}
	if st := s.Stats(); st.Stalled != 0 {
		t.Fatalf("Stats.Stalled = %d, want 0", st.Stalled)
	}
}

// TestRetryLadder drives a deterministic fail-then-succeed schedule through
// the retry machinery under an instrumented backoff clock: attempt 0 panics,
// attempt 1 exhausts, attempt 2 succeeds — one job, three attempts, two
// deterministic backoffs, zero client resubmissions.
func TestRetryLadder(t *testing.T) {
	defer checkGoroutines(t)()
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		switch attempt {
		case 0:
			return Fault{Kind: FaultPanic}
		case 1:
			return Fault{Kind: FaultExhaust}
		default:
			return Fault{}
		}
	}}
	s := openT(t, Config{Workers: 2, MaxRetries: 3, faults: faults})
	defer s.Close()
	var backoffs []time.Duration
	s.sleep = func(ctx context.Context, d time.Duration) { backoffs = append(backoffs, d) }

	h := mustSubmit(t, s, JobSpec{Formula: contradiction(), Slots: 2, Solve: optimal(1)})
	r := waitResult(t, h)
	if r.Err != nil || r.Status != opt.StatusOptimal || r.Cost != 1 {
		t.Fatalf("job did not recover via retries: %+v", r)
	}
	st := s.Stats()
	if st.Retries != 2 || st.RetrySucceeded != 1 {
		t.Fatalf("retry stats: Retries=%d RetrySucceeded=%d, want 2/1", st.Retries, st.RetrySucceeded)
	}
	if st.Panics != 0 {
		t.Fatalf("recovered job still counted as a panic: %+v", st)
	}
	if len(backoffs) != 2 || backoffs[0] != 100*time.Millisecond || backoffs[1] != 200*time.Millisecond {
		t.Fatalf("backoff ladder %v, want [100ms 200ms] (exponential)", backoffs)
	}
}

// TestRetryExhaustion asserts a job that fails every attempt surfaces the
// failure after exactly MaxRetries retries.
func TestRetryExhaustion(t *testing.T) {
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		return Fault{Kind: FaultPanic}
	}}
	s := openT(t, Config{Workers: 1, MaxRetries: 2, faults: faults})
	defer s.Close()
	s.sleep = func(ctx context.Context, d time.Duration) {}
	r := waitResult(t, mustSubmit(t, s, JobSpec{Formula: contradiction(), Solve: optimal(1)}))
	if r.Err == nil {
		t.Fatalf("permanently failing job reported success: %+v", r)
	}
	st := s.Stats()
	if st.Retries != 2 || st.RetrySucceeded != 0 || st.Panics != 1 {
		t.Fatalf("exhaustion stats: %+v", st)
	}
}

// TestChaosRetriesRecoverPanickedJobs is the acceptance-criteria chaos run:
// a schedule that panics several jobs' first attempts must end with every
// one of them succeeding via server-side retry — zero failures surfaced,
// zero client resubmissions.
func TestChaosRetriesRecoverPanickedJobs(t *testing.T) {
	defer checkGoroutines(t)()
	const jobs = 8
	faults := &Faults{Before: func(jobID uint64, optsKey string, attempt int) Fault {
		if jobID%2 == 1 && attempt == 0 {
			return Fault{Kind: FaultPanic}
		}
		return Fault{}
	}}
	s := openT(t, Config{Workers: 3, CacheEntries: -1, MaxRetries: 1, faults: faults})
	defer s.Close()
	var handles []*Handle
	for i := range jobs {
		handles = append(handles, mustSubmit(t, s, JobSpec{
			Formula: contradiction(),
			OptsKey: "chaos-" + string(rune('a'+i)),
			Solve:   optimal(1),
		}))
	}
	for i, h := range handles {
		r := waitResult(t, h)
		if r.Err != nil || r.Status != opt.StatusOptimal {
			t.Fatalf("job %d did not recover: %+v", i, r)
		}
	}
	st := s.Stats()
	if st.RetrySucceeded != 4 {
		t.Fatalf("RetrySucceeded = %d, want 4 (the odd job IDs)", st.RetrySucceeded)
	}
	if st.Panics != 0 {
		t.Fatalf("retried jobs still surfaced failures: %+v", st)
	}
}
