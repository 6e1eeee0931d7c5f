// Package store is a small write-ahead checkpoint log: the durable
// substrate under the deployer's crash-safe wave state. The format is an
// append-only sequence of versioned, length-prefixed, CRC-guarded
// records; compaction rewrites the whole log through an atomic rename;
// an flock-style lock file rejects a second opener of the same
// directory. Decoding is strict with exactly one forgiving case — a
// record cut short by the end of the file is a torn tail write (the
// crash the log exists to survive) and is dropped and truncated away; a
// complete record whose CRC does not match is corruption and a hard
// error.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Record is one durable entry: an application-defined kind byte plus an
// opaque payload.
type Record struct {
	Kind byte
	Data []byte
}

const (
	logName  = "wal.log"
	lockName = "wal.lock"

	// recVersion stamps every record; strict decode rejects others.
	recVersion = 1

	// header = version(1) + kind(1) + length(4); trailer = crc32(4).
	headerLen  = 6
	trailerLen = 4

	// maxRecordLen bounds a single payload; a longer length field in a
	// complete record is corruption, not a checkpoint.
	maxRecordLen = 16 << 20
)

// ErrLocked reports that another live process holds the state directory.
var ErrLocked = errors.New("store: state directory locked by another process")

// ErrClosed reports an operation on a closed (or crash-marked) log.
var ErrClosed = errors.New("store: log closed")

// CorruptError reports a structurally complete but invalid record; the
// log refuses to open rather than silently skip state.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized and fsynced before returning.
type Log struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	lock     *os.File
	closed   bool
	nosync   bool
	appended int // records appended since open/compact
	replayed int // records recovered at open
	syncs    int // fsyncs forced since open
}

// Options tunes Open.
type Options struct {
	// NoSync skips the per-append fsync. Torture tests flip it to model a
	// kernel that never flushed the tail; production leaves it false.
	NoSync bool
}

// Open acquires the directory lock, replays the existing log (creating
// an empty one if absent), and returns the log handle plus every record
// recovered. A torn record at the tail is dropped and the file truncated
// back to the last complete record; corruption earlier in the log is a
// hard error.
func Open(dir string, opts Options) (*Log, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	lock, err := acquireLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		releaseLock(lock)
		return nil, nil, err
	}
	recs, keep, err := replay(f)
	if err != nil {
		f.Close()
		releaseLock(lock)
		return nil, nil, err
	}
	if fi, statErr := f.Stat(); statErr == nil && fi.Size() > keep {
		// Torn tail: drop the partial record so the next append starts on
		// a clean boundary.
		if err := f.Truncate(keep); err != nil {
			f.Close()
			releaseLock(lock)
			return nil, nil, err
		}
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		f.Close()
		releaseLock(lock)
		return nil, nil, err
	}
	return &Log{dir: dir, f: f, lock: lock, nosync: opts.NoSync, replayed: len(recs)}, recs, nil
}

// replay decodes records sequentially, returning them plus the byte
// offset of the first incomplete (torn) record — the keep-length.
func replay(f *os.File) ([]Record, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var recs []Record
	var off int64
	hdr := make([]byte, headerLen)
	for off < size {
		if size-off < headerLen {
			return recs, off, nil // torn header at tail
		}
		if _, err := io.ReadFull(f, hdr); err != nil {
			return nil, 0, err
		}
		// A torn write leaves a prefix of a valid record, so a complete
		// header carries the real version and length: a defect in either is
		// corruption, never a torn tail to truncate.
		n := int64(binary.BigEndian.Uint32(hdr[2:6]))
		if hdr[0] != recVersion {
			return nil, 0, &CorruptError{Offset: off, Reason: fmt.Sprintf("unknown version %d", hdr[0])}
		}
		if n > maxRecordLen {
			return nil, 0, &CorruptError{Offset: off, Reason: fmt.Sprintf("record length %d exceeds limit", n)}
		}
		if size-off-headerLen < n+trailerLen {
			return recs, off, nil // torn payload/trailer at tail
		}
		// The record is structurally complete from here on: any defect is
		// corruption, not a torn write.
		body := make([]byte, n+trailerLen)
		if _, err := io.ReadFull(f, body); err != nil {
			return nil, 0, err
		}
		sum := crc32.NewIEEE()
		sum.Write(hdr)
		sum.Write(body[:n])
		if got, want := binary.BigEndian.Uint32(body[n:]), sum.Sum32(); got != want {
			return nil, 0, &CorruptError{Offset: off, Reason: "crc mismatch"}
		}
		recs = append(recs, Record{Kind: hdr[1], Data: body[:n:n]})
		off += headerLen + n + trailerLen
	}
	return recs, off, nil
}

// appendRecord appends one framed record to dst.
func appendRecord(dst []byte, kind byte, data []byte) []byte {
	off := len(dst)
	dst = append(dst, recVersion, kind, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[off+2:], uint32(len(data)))
	dst = append(dst, data...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[off:]))
}

// Append durably adds one record: a batch of one.
func (l *Log) Append(kind byte, data []byte) error {
	return l.AppendBatch([]Record{{Kind: kind, Data: data}})
}

// AppendBatch durably adds a run of records, encoded into one buffer,
// with a single write and a single fsync before returning nil: a caller
// pays one disk round trip per batch, not per record. A failed or
// interrupted write leaves at worst a torn tail, which the next Open
// truncates back to the last complete record — so a crash mid-batch
// keeps a whole-record prefix of it.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	n := 0
	for _, r := range recs {
		if len(r.Data) > maxRecordLen {
			return fmt.Errorf("store: record length %d exceeds limit", len(r.Data))
		}
		n += headerLen + len(r.Data) + trailerLen
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = appendRecord(buf, r.Kind, r.Data)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	if err := l.sync(l.f); err != nil {
		return err
	}
	l.appended += len(recs)
	return nil
}

// sync forces f to disk unless the log was opened with NoSync, and
// counts it. Caller holds l.mu.
func (l *Log) sync(f *os.File) error {
	if l.nosync {
		return nil
	}
	l.syncs++
	return f.Sync()
}

// Compact atomically replaces the log's contents with exactly recs: the
// replacement is written to a temporary file, fsynced, and renamed over
// the log, so a crash at any point leaves either the old log or the new
// one — never a mix.
func (l *Log) Compact(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmpPath := filepath.Join(l.dir, logName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r.Kind, r.Data)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	l.syncs++
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(l.dir, logName)); err != nil {
		os.Remove(tmpPath)
		return err
	}
	old := l.f
	f, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	l.f = f
	old.Close()
	syncDir(l.dir)
	l.appended = 0
	return nil
}

// Appended reports records appended since the last open or compaction —
// the caller's compaction heuristic.
func (l *Log) Appended() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Replayed reports how many records the opening replay recovered.
func (l *Log) Replayed() int { return l.replayed }

// Syncs reports how many fsyncs the log has forced since it was opened —
// what tests pin the per-wave write count with.
func (l *Log) Syncs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// MarkDead makes every subsequent Append and Compact fail with ErrClosed
// without releasing the lock or file — the torture-test and chaos-drill
// stand-in for kill -9.
func (l *Log) MarkDead() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// Close releases the log and its process lock.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	if l.lock != nil {
		releaseLock(l.lock)
		l.lock = nil
	}
	return err
}

// syncDir best-effort fsyncs a directory so a rename is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
