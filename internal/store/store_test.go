package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openOrDie(t *testing.T, dir string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := openOrDie(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []Record{
		{Kind: 1, Data: []byte("epoch open")},
		{Kind: 2, Data: nil},
		{Kind: 3, Data: []byte{0, 1, 2, 255}},
	}
	for _, r := range want {
		if err := l.Append(r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, recs = openOrDie(t, dir)
	defer l.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Kind != want[i].Kind || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestTornTailRecovered models kill -9 mid-append: the file ends in a
// partial record. Reopen must recover every complete record, drop the
// torn tail, and leave the log appendable on a clean boundary.
func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	full := appendRecord(nil, 7, []byte("survives"))
	torn := appendRecord(nil, 8, []byte("torn away"))
	for cut := 1; cut < len(torn); cut++ {
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, append(append([]byte{}, full...), torn[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 1 || recs[0].Kind != 7 || string(recs[0].Data) != "survives" {
			t.Fatalf("cut %d: replayed %+v", cut, recs)
		}
		// The torn bytes are gone and the next append lands cleanly.
		if err := l.Append(9, []byte("after crash")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, recs = openOrDie(t, dir)
		if len(recs) != 2 || recs[1].Kind != 9 {
			t.Fatalf("cut %d: post-recovery replay %+v", cut, recs)
		}
		l.Close()
		os.Remove(path)
	}
}

// TestCorruptMidLogIsHardError flips one payload byte in the first of
// two records: the log must refuse to open rather than skip state.
func TestCorruptMidLogIsHardError(t *testing.T) {
	dir := t.TempDir()
	l, _ := openOrDie(t, dir)
	if err := l.Append(1, []byte("first record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("second record")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen] ^= 0xff // first payload byte of record one
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("open of corrupt log: err = %v, want CorruptError", err)
	}
	if ce.Offset != 0 {
		t.Fatalf("corrupt offset = %d, want 0", ce.Offset)
	}
}

func TestUnknownVersionIsHardError(t *testing.T) {
	dir := t.TempDir()
	rec := appendRecord(nil, 1, []byte("x"))
	rec[0] = 99 // bogus version; CRC check is after the version check
	if err := os.WriteFile(filepath.Join(dir, logName), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CorruptError", err)
	}
}

// TestDoubleOpenRejected pins the process lock: while one handle is
// live, a second Open of the same directory fails with ErrLocked, and
// closing the first admits the second.
func TestDoubleOpenRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openOrDie(t, dir)
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open err = %v, want ErrLocked", err)
	}
	l.Close()
	l2, _ := openOrDie(t, dir)
	l2.Close()
}

func TestCompactReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	l, _ := openOrDie(t, dir)
	for i := 0; i < 10; i++ {
		if err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	keep := []Record{{Kind: 5, Data: []byte("snapshot")}}
	if err := l.Compact(keep); err != nil {
		t.Fatal(err)
	}
	if l.Appended() != 0 {
		t.Fatalf("Appended after compact = %d", l.Appended())
	}
	// The log stays appendable on the new file.
	if err := l.Append(6, []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, recs := openOrDie(t, dir)
	defer l.Close()
	if len(recs) != 2 || recs[0].Kind != 5 || recs[1].Kind != 6 {
		t.Fatalf("post-compact replay = %+v", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, logName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("compaction temp file left behind")
	}
}

func TestMarkDeadFailsAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openOrDie(t, dir)
	defer l.Close()
	if err := l.Append(1, []byte("live")); err != nil {
		t.Fatal(err)
	}
	l.MarkDead()
	if err := l.Append(2, []byte("dead")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after MarkDead err = %v, want ErrClosed", err)
	}
	if err := l.Compact(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after MarkDead err = %v, want ErrClosed", err)
	}
}

func TestEmptyPayloadAndLargeRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openOrDie(t, dir)
	big := bytes.Repeat([]byte{0xab}, 1<<16)
	if err := l.Append(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, big); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, recs := openOrDie(t, dir)
	defer l.Close()
	if len(recs) != 2 || len(recs[0].Data) != 0 || !bytes.Equal(recs[1].Data, big) {
		t.Fatalf("replay mismatch: %d records", len(recs))
	}
}

// TestAppendBatch checks the single-write batch path replays exactly
// like the equivalent run of single appends, shares its durability
// semantics (ErrClosed after MarkDead), and rejects oversized records
// before writing anything.
func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openOrDie(t, dir)
	batch := []Record{
		{Kind: 1, Data: []byte("a")},
		{Kind: 2, Data: nil},
		{Kind: 3, Data: []byte("ccc")},
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(4, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	if got := l.Appended(); got != 4 {
		t.Fatalf("Appended() = %d, want 4", got)
	}
	if err := l.AppendBatch([]Record{{Kind: 5, Data: make([]byte, maxRecordLen+1)}}); err == nil {
		t.Fatal("oversized batch record accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The batch bytes on disk match the per-record encoding exactly.
	single := t.TempDir()
	sl, _ := openOrDie(t, single)
	for _, r := range batch {
		if err := sl.Append(r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.Append(4, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(single, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("batch encoding differs from single appends: %d vs %d bytes", len(b1), len(b2))
	}

	l, recs := openOrDie(t, dir)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	l.MarkDead()
	if err := l.AppendBatch(batch); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch on dead log: err = %v, want ErrClosed", err)
	}
	l.Close()
}

// TestAppendBatchTornAtEveryOffset cuts a batched write at every byte
// offset — the crash a batch of several records can die in — and
// requires the log to replay the records before it plus a whole-record
// prefix of the batch, never a partial record.
func TestAppendBatchTornAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	before := Record{Kind: 1, Data: []byte("open")}
	batch := []Record{
		{Kind: 3, Data: []byte("decided")},
		{Kind: 6, Data: []byte("goal h1")},
		{Kind: 6, Data: nil},
		{Kind: 6, Data: []byte("goal h2, a longer manifest")},
	}
	l, _ := openOrDie(t, dir)
	if err := l.Append(before.Kind, before.Data); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	l.Close()
	whole, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	start := len(appendRecord(nil, before.Kind, before.Data))
	// ends[k] is the byte length of the log holding k records of the batch.
	ends := []int{start}
	for _, r := range batch {
		ends = append(ends, ends[len(ends)-1]+headerLen+len(r.Data)+trailerLen)
	}
	if ends[len(batch)] != len(whole) {
		t.Fatalf("log is %d bytes, want %d", len(whole), ends[len(batch)])
	}
	cutDir := t.TempDir()
	for cut := start; cut <= len(whole); cut++ {
		if err := os.WriteFile(filepath.Join(cutDir, logName), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(cutDir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		l.Close()
		k := 0
		for k < len(batch) && ends[k+1] <= cut {
			k++
		}
		want := append([]Record{before}, batch[:k]...)
		if len(recs) != len(want) {
			t.Fatalf("cut %d: replayed %d records, want %d (a whole-record prefix of %d)", cut, len(recs), len(want), k)
		}
		for i, r := range recs {
			if r.Kind != want[i].Kind || !bytes.Equal(r.Data, want[i].Data) {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, want[i])
			}
		}
	}
}

// TestSyncsCountForcedWrites pins the fsync count: one per append or
// batch, however many records the batch carries, and none under NoSync.
func TestSyncsCountForcedWrites(t *testing.T) {
	l, _ := openOrDie(t, t.TempDir())
	defer l.Close()
	if err := l.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]Record{{Kind: 2}, {Kind: 3}, {Kind: 4}}); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 2 {
		t.Fatalf("Syncs() = %d after one append and one batch of three, want 2", got)
	}
	nl, _, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if err := nl.AppendBatch([]Record{{Kind: 2}, {Kind: 3}}); err != nil {
		t.Fatal(err)
	}
	if got := nl.Syncs(); got != 0 {
		t.Fatalf("NoSync log counted %d fsyncs, want 0", got)
	}
}

// corruptFirstLength writes three records and sets the first one's
// length field to 0xFFFFFFFF: a complete header whose length is corrupt.
func corruptFirstLength() []byte {
	var data []byte
	for i, s := range []string{"one", "two", "three"} {
		data = append(data, appendRecord(nil, byte(i+1), []byte(s))...)
	}
	binary.BigEndian.PutUint32(data[2:6], 0xFFFFFFFF)
	return data
}

// TestCorruptLengthMidLogIsHardError: a corrupt length field must not be
// taken for a torn tail. Were it, Open would truncate the log at that
// record and silently drop it and every record after it.
func TestCorruptLengthMidLogIsHardError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	data := corruptFirstLength()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("open: %d records, err = %v, want CorruptError", len(recs), err)
	}
	if ce.Offset != 0 {
		t.Fatalf("corrupt offset = %d, want 0", ce.Offset)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("log changed by a refused open: %d bytes, want %d (%v)", len(got), len(data), err)
	}
}

// FuzzReplay writes arbitrary bytes as the log and opens it. Open either
// refuses with a CorruptError and leaves the file byte-identical, or
// keeps a prefix that the recovered records re-encode to exactly and
// drops a genuine torn record: fewer bytes than a header, or a valid
// header whose payload and trailer run past the end. Either way the
// kept log must then take an append and replay it after the records.
func FuzzReplay(f *testing.F) {
	f.Add(corruptFirstLength())
	f.Add([]byte{})
	f.Add(append(appendRecord(nil, 1, []byte("kept")), appendRecord(nil, 2, []byte("torn"))[:9]...))
	f.Add(append(appendRecord(nil, 1, nil), 1, 2, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(dir, Options{NoSync: true})
		var ce *CorruptError
		if errors.As(err, &ce) {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatalf("refused open changed the log: %x → %x", data, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var kept []byte
		for _, r := range recs {
			kept = append(kept, appendRecord(nil, r.Kind, r.Data)...)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("records re-encode to %x, not a prefix of %x", kept, data)
		}
		if tail := data[len(kept):]; len(tail) >= headerLen {
			n := int(binary.BigEndian.Uint32(tail[2:6]))
			if tail[0] != recVersion || n > maxRecordLen || len(tail) >= headerLen+n+trailerLen {
				t.Fatalf("dropped %x, which is no torn record", tail)
			}
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, kept) {
			t.Fatalf("log after open = %x, want the kept prefix %x", got, kept)
		}
		if err := l.Append(9, []byte("after")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, again := openOrDie(t, dir)
		defer l.Close()
		if len(again) != len(recs)+1 || again[len(recs)].Kind != 9 || string(again[len(recs)].Data) != "after" {
			t.Fatalf("reopen replayed %d records, want the %d kept plus the append", len(again), len(recs))
		}
	})
}
