package serve

import (
	"testing"
	"time"
)

// FuzzRecordDecoders feeds arbitrary payloads to the decoders of the two
// on-disk record kinds, the journal's submit record and the result store's
// entry. These decoders read bytes a previous process wrote, and corruption
// inside a CRC-valid frame reaches them (Faults.CorruptStore injects it), so
// each payload must decode or return an error: a panic here would
// crash-loop the daemon at boot.
func FuzzRecordDecoders(f *testing.F) {
	w := contradiction()
	f.Add(encodeSubmit(RecoveredJob{ID: 7, Client: "alice", Slots: 2, Timeout: time.Second,
		Payload: []byte(`{"alg":"oll"}`)}, w))
	f.Add(encodeStoreEntry(w, "msu4-v2", []byte("certificate")))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if rj, err := decodeSubmit(payload); err == nil && rj.Formula == nil {
			t.Fatal("decodeSubmit accepted a record without a formula")
		}
		if e, err := decodeStoreEntry(payload); err == nil && e.w == nil {
			t.Fatal("decodeStoreEntry accepted a record without a formula")
		}
	})
}
