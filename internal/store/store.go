// Package store implements the durable substrate of the serving layer: an
// append-only log of CRC-framed records in a single file, with fsync per
// synced append, clean truncation of a torn tail on recovery, and compaction
// by atomic rewrite.
//
// The log knows nothing about what it stores — records are (kind, payload)
// pairs — so the verified-result store and the job journal in internal/serve
// share one implementation and one set of durability tests. The trust story
// is layered accordingly: this package guarantees only that what Open
// returns was written by Append (CRC-framed, tail-truncated); whether a
// recovered payload may be *served* is decided above, by re-validating it
// through the independent proof checker.
//
// On-disk format: an 8-byte magic header, then one frame per record:
//
//	uvarint payload length | kind byte | payload | crc32(IEEE) of kind+payload (4 bytes LE)
//
// A frame that is truncated (partial tail write at crash) or whose CRC does
// not match (bit rot) ends recovery: everything from the first bad frame on
// is dropped and the file is truncated back to the last good frame, so the
// next Append continues from a clean tail. The count of dropped-at-open
// frames is reported so the layer above can audit them.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

var magic = []byte("MXSTLG1\n")

// Record is one recovered log entry.
type Record struct {
	// Seq is the record's position in the log (0-based, counting from the
	// current file start; compaction renumbers).
	Seq uint64
	// Kind is the caller's record type tag.
	Kind byte
	// Payload is the record body. A recovered payload is a view of the
	// buffer Open read the whole log into, capped at its own end: appending
	// to it copies instead of overwriting the next record, but a payload kept
	// alive keeps that buffer alive, so copy whatever outlives recovery.
	Payload []byte
}

// WriteHook intercepts one framed record on its way to disk; tests use it to
// inject storage faults. It receives the record's sequence number and the
// complete frame and returns the bytes actually written. Returning wedge
// true simulates a crash immediately after this (possibly mutated or
// truncated) write: every later Append is dropped, as if the process had
// died — recovery then has to cope with whatever made it to disk.
type WriteHook func(seq uint64, frame []byte) (write []byte, wedge bool)

// Options tunes a Log.
type Options struct {
	// WriteHook, when non-nil, intercepts every framed write (fault
	// injection; see WriteHook).
	WriteHook WriteHook
}

// Log is an append-only record log backed by one file.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	opts   Options
	seq    uint64 // next sequence number
	dirty  bool   // unsynced bytes outstanding
	wedged bool   // a WriteHook simulated a crash; all writes are dropped
}

// Open opens (creating if absent) the log at path and replays it: every
// well-framed record is returned in order, and a torn or corrupt tail is
// truncated away. dropped counts the frames discarded by that truncation —
// zero on a clean log.
func Open(path string, opts Options) (l *Log, recs []Record, dropped int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if st.Size() == 0 {
		if _, err := f.Write(magic); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := syncDir(path); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		return &Log{f: f, path: path, opts: opts}, nil, 0, nil
	}

	// One read sized from Stat: the recovered payloads are views of data.
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		f.Close()
		return nil, nil, 0, fmt.Errorf("store: %s is not a record log (bad magic)", path)
	}
	recs, good, bad := scan(data[len(magic):])
	goodEnd := int64(len(magic)) + good
	if bad {
		// Torn or corrupt tail: cut it off so the next Append starts clean.
		// Count whole frames we can no longer trust; a partial frame counts
		// as one.
		dropped = countTail(data[goodEnd:])
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &Log{f: f, path: path, opts: opts, seq: uint64(len(recs))}, recs, dropped, nil
}

// scan parses frames from data, returning the records, the byte length of
// the well-framed prefix, and whether anything after it had to be dropped.
// Each payload is a view of data capped at its own end.
func scan(data []byte) (recs []Record, good int64, bad bool) {
	off := 0
	for off < len(data) {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 || n > uint64(len(data)-off) {
			return recs, int64(off), true
		}
		frameLen := k + 1 + int(n) + 4
		if off+frameLen > len(data) {
			return recs, int64(off), true
		}
		kind := data[off+k]
		end := off + k + 1 + int(n)
		payload := data[off+k+1 : end : end]
		stored := binary.LittleEndian.Uint32(data[end:])
		if crcOf(kind, payload) != stored {
			return recs, int64(off), true
		}
		recs = append(recs, Record{
			Seq:     uint64(len(recs)),
			Kind:    kind,
			Payload: payload,
		})
		off += frameLen
	}
	return recs, int64(off), false
}

// countTail estimates how many records the dropped tail held: frames whose
// length prefix still parses count individually; the final unparseable
// remnant counts as one.
func countTail(tail []byte) int {
	n := 0
	off := 0
	for off < len(tail) {
		ln, k := binary.Uvarint(tail[off:])
		if k <= 0 {
			return n + 1
		}
		frameLen := k + 1 + int(ln) + 4
		if ln > uint64(len(tail)) || off+frameLen > len(tail) {
			return n + 1
		}
		n++
		off += frameLen
	}
	if off < len(tail) {
		n++
	}
	return n
}

func crcOf(kind byte, payload []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte{kind})
	h.Write(payload)
	return h.Sum32()
}

func frame(kind byte, payload []byte) []byte {
	buf := binary.AppendUvarint(make([]byte, 0, len(payload)+16), uint64(len(payload)))
	buf = append(buf, kind)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crcOf(kind, payload))
}

// Append writes one record. With sync true the record is fsynced before
// Append returns — the durability promise for records whose acknowledgement
// implies persistence (journal submits, stored results). With sync false the
// record reaches disk with the next synced Append, Sync or Close; a crash
// before then may lose it, which is only acceptable for records whose loss
// recovery tolerates (completion markers — replay is idempotent).
func (l *Log) Append(kind byte, payload []byte, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("store: log %s is closed", l.path)
	}
	if l.wedged {
		return nil // simulated crash: the write is lost, like the process
	}
	buf := frame(kind, payload)
	seq := l.seq
	l.seq++
	wedge := false
	if l.opts.WriteHook != nil {
		buf, wedge = l.opts.WriteHook(seq, buf)
	}
	if len(buf) > 0 {
		if _, err := l.f.Write(buf); err != nil {
			return err
		}
	}
	if wedge {
		l.wedged = true
		return nil
	}
	l.dirty = true
	if sync {
		return l.syncLocked()
	}
	return nil
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// Sync flushes any unsynced appends to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.wedged {
		return nil
	}
	return l.syncLocked()
}

// Len returns the number of records appended to the current file (including
// those recovered at Open).
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Compact atomically replaces the log's contents with the given records: the
// replacement is written to a temporary file, fsynced, and renamed over the
// log, and the directory is fsynced after the rename, so a crash at any
// point leaves either the old log or the new one — never a mix — and once
// Compact returns, appends to the new log are not lost with its directory
// entry. Sequence numbers restart from zero.
func (l *Log) Compact(records []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("store: log %s is closed", l.path)
	}
	if l.wedged {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), filepath.Base(l.path)+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the successful rename
	if _, err := tmp.Write(magic); err != nil {
		tmp.Close()
		return err
	}
	for _, r := range records {
		if _, err := tmp.Write(frame(r.Kind, r.Payload)); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f.Close()
	l.f = f
	l.seq = uint64(len(records))
	l.dirty = false
	return syncDir(l.path)
}

// syncDir fsyncs the directory holding path. Syncing a file does not make
// its directory entry durable (fsync(2)), so a log created or renamed into
// place could vanish in a power loss, with every record synced into it.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if !l.wedged {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
