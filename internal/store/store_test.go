package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func openT(t *testing.T, path string, opts Options) (*Log, []Record, int) {
	t.Helper()
	l, recs, dropped, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, recs, dropped
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, recs, dropped := openT(t, path, Options{})
	if len(recs) != 0 || dropped != 0 {
		t.Fatalf("fresh log recovered %d records, dropped %d", len(recs), dropped)
	}
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma gamma gamma")}
	for i, p := range want {
		if err := l.Append(byte(i), p, i%2 == 0); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, recs, dropped := openT(t, path, Options{})
	defer l2.Close()
	if dropped != 0 {
		t.Fatalf("clean log dropped %d records", dropped)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Kind != byte(i) || !bytes.Equal(r.Payload, want[i]) || r.Seq != uint64(i) {
			t.Fatalf("record %d = %+v, want kind=%d payload=%q", i, r, i, want[i])
		}
	}
	if l2.Len() != uint64(len(want)) {
		t.Fatalf("Len = %d, want %d", l2.Len(), len(want))
	}
}

// TestTornTailTruncated crash-writes a partial frame at the end and asserts
// recovery keeps the good prefix, drops the tail, and leaves a file the next
// Append extends cleanly.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openT(t, path, Options{})
	for i := range 5 {
		if err := l.Append(1, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: chop the file mid-frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs, dropped := openT(t, path, Options{})
	if len(recs) != 4 || dropped != 1 {
		t.Fatalf("after torn tail: %d records, %d dropped; want 4, 1", len(recs), dropped)
	}
	if err := l2.Append(2, []byte("post-crash"), true); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, dropped = openT(t, path, Options{})
	if len(recs) != 5 || dropped != 0 {
		t.Fatalf("after post-crash append: %d records, %d dropped; want 5, 0", len(recs), dropped)
	}
	if !bytes.Equal(recs[4].Payload, []byte("post-crash")) {
		t.Fatalf("appended record corrupted: %q", recs[4].Payload)
	}
}

// TestBitFlipDropsTail flips one payload bit in a middle record: the CRC must
// catch it, and recovery keeps only the records before the flip.
func TestBitFlipDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openT(t, path, Options{})
	for i := range 4 {
		if err := l.Append(0, []byte(fmt.Sprintf("record-%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside record 2's payload ("record-2"). Each frame is
	// 1 (len) + 1 (kind) + 8 (payload) + 4 (crc) = 14 bytes.
	data[len(magic)+2*14+5] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs, dropped := openT(t, path, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records past a bit flip, want 2", len(recs))
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (the flipped record and the one after)", dropped)
	}
}

// TestWriteHookCorruption injects a bit flip through the fault hook and
// asserts the corrupted record is rejected at recovery.
func TestWriteHookCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	hook := func(seq uint64, frame []byte) ([]byte, bool) {
		if seq == 1 {
			mut := append([]byte(nil), frame...)
			mut[len(mut)/2] ^= 0x01
			return mut, false
		}
		return frame, false
	}
	l, _, _ := openT(t, path, Options{WriteHook: hook})
	for i := range 3 {
		if err := l.Append(0, []byte{byte(i), byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	_, recs, dropped := openT(t, path, Options{})
	if len(recs) != 1 || dropped != 2 {
		t.Fatalf("recovered %d, dropped %d; want 1, 2", len(recs), dropped)
	}
}

// TestWriteHookWedge simulates a crash after a torn write: half the frame
// lands, every later append vanishes, and recovery truncates back to the
// last whole record.
func TestWriteHookWedge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	hook := func(seq uint64, frame []byte) ([]byte, bool) {
		if seq == 2 {
			return frame[:len(frame)/2], true
		}
		return frame, false
	}
	l, _, _ := openT(t, path, Options{WriteHook: hook})
	for i := range 5 {
		if err := l.Append(0, []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync on wedged log: %v", err)
	}
	l.Close()
	_, recs, dropped := openT(t, path, Options{})
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the crash", len(recs))
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the torn frame)", dropped)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openT(t, path, Options{})
	for i := range 10 {
		if err := l.Append(0, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	keep := []Record{{Kind: 7, Payload: []byte("seven")}, {Kind: 9, Payload: []byte("nine")}}
	if err := l.Compact(keep); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// The compacted log keeps accepting appends.
	if err := l.Append(1, []byte("post"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs, dropped := openT(t, path, Options{})
	if dropped != 0 || len(recs) != 3 {
		t.Fatalf("after compact: %d records, %d dropped; want 3, 0", len(recs), dropped)
	}
	if recs[0].Kind != 7 || !bytes.Equal(recs[1].Payload, []byte("nine")) ||
		!bytes.Equal(recs[2].Payload, []byte("post")) {
		t.Fatalf("compacted contents wrong: %+v", recs)
	}
}

// TestCompactionProperty is the randomized round-trip property: any sequence
// of appends, compactions (keeping a random subset), and reopens preserves
// exactly the surviving records in order.
func TestCompactionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := range 20 {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("log-%d", trial))
		l, _, _ := openT(t, path, Options{})
		var model []Record // what the log should hold
		add := func(n int) {
			for range n {
				p := make([]byte, rng.Intn(64))
				rng.Read(p)
				kind := byte(rng.Intn(4))
				if err := l.Append(kind, p, rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
				model = append(model, Record{Kind: kind, Payload: append([]byte(nil), p...)})
			}
		}
		add(rng.Intn(20) + 1)
		for range rng.Intn(3) {
			// Compact to a random subset.
			var keep []Record
			for _, r := range model {
				if rng.Intn(3) > 0 {
					keep = append(keep, r)
				}
			}
			if err := l.Compact(keep); err != nil {
				t.Fatal(err)
			}
			model = keep
			add(rng.Intn(10))
		}
		l.Close()
		l2, recs, dropped := openT(t, path, Options{})
		if dropped != 0 {
			t.Fatalf("trial %d: clean log dropped %d", trial, dropped)
		}
		if len(recs) != len(model) {
			t.Fatalf("trial %d: recovered %d records, want %d", trial, len(recs), len(model))
		}
		for i := range recs {
			if recs[i].Kind != model[i].Kind || !bytes.Equal(recs[i].Payload, model[i].Payload) {
				t.Fatalf("trial %d: record %d mismatch", trial, i)
			}
		}
		l2.Close()
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("not a log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a file with bad magic")
	}
}

func TestClosedLogRejectsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openT(t, path, Options{})
	l.Close()
	if err := l.Append(0, nil, false); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestPayloadViewsDoNotAlias appends to each recovered payload in turn and
// requires every other record's bytes unchanged: the payloads share Open's
// read buffer, each capped at its own end.
func TestPayloadViewsDoNotAlias(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openT(t, path, Options{})
	want := [][]byte{[]byte("one"), {}, []byte("three"), []byte("four")}
	for _, p := range want {
		if err := l.Append(1, p, false); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, recs, _ := openT(t, path, Options{})
	defer l2.Close()
	for i := range recs {
		_ = append(recs[i].Payload, bytes.Repeat([]byte{0xFF}, 16)...) // past the CRC and a frame header
		for j, r := range recs {
			if !bytes.Equal(r.Payload, want[j]) {
				t.Fatalf("appending to payload %d changed payload %d to %q", i, j, r.Payload)
			}
		}
	}
}

// TestOpenAllocs requires Open of an N-byte log to allocate less than 1.5 N
// bytes: one read of the whole file, and payloads that are views of it.
func TestOpenAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openT(t, path, Options{})
	rng := rand.New(rand.NewSource(7))
	for range 300 {
		p := make([]byte, 1000+rng.Intn(8000))
		rng.Read(p)
		if err := l.Append(1, p, false); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2, recs, _, err := Open(path, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 300 {
		t.Fatalf("recovered %d records, want 300", len(recs))
	}
	n := uint64(st.Size())
	if got := after.TotalAlloc - before.TotalAlloc; 2*got >= 3*n {
		t.Errorf("Open of a %d-byte log allocated %d bytes (%.1f× the file), want < 1.5×", n, got, float64(got)/float64(n))
	}
}
