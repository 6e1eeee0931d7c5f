package prism

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dif/internal/model"
	"dif/internal/store"
)

// format1Record is a kind-1 record as a JSON-era build wrote it.
var format1Record = store.Record{Kind: RecEpochOpen, Data: []byte(`{"epoch":1,"moves":{"c1":"h2"},"participants":["h1","h2"]}`)}

// TestOpenRefusesFormat1Log: a log written by a JSON-era build is
// refused with an error naming both formats, and left as it was.
func TestOpenRefusesFormat1Log(t *testing.T) {
	dir := t.TempDir()
	l, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(format1Record.Kind, format1Record.Data); err != nil {
		t.Fatal(err)
	}
	l.Close()
	before := walBytes(t, dir)
	ds, err := OpenDeployerStore(dir)
	if err == nil {
		ds.Close()
		t.Fatal("a format-1 log opened")
	}
	if msg := err.Error(); !strings.Contains(msg, "format 1") || !strings.Contains(msg, "format 2") {
		t.Fatalf("refusal %q does not name formats 1 and 2", msg)
	}
	if !bytes.Equal(walBytes(t, dir), before) {
		t.Fatal("the refused open changed the log")
	}
}

// TestIngestRejectsBadRecordBeforeWrite: a replicated batch holding a
// record that does not decode — garbage, or a format-1 record from an
// older leader — is refused whole, on both the append and the reset
// branch. The log keeps its bytes, the mirror its state, and a reopen
// gives the state from before the batch.
func TestIngestRejectsBadRecordBeforeWrite(t *testing.T) {
	lds, err := OpenDeployerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lds.Close()
	stream := leaderStream(t, lds)
	good := store.Record{Kind: RecEpochOpen, Data: encodeRecord(epochOpenRec{Epoch: 9, Participants: []model.HostID{"h1"}})}
	for _, bad := range []store.Record{{Kind: RecEpochOpen, Data: []byte("not json")}, format1Record} {
		for _, reset := range []bool{false, true} {
			dir := t.TempDir()
			ds, err := OpenDeployerStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ds.Ingest(1, true, stream); err != nil {
				t.Fatal(err)
			}
			wantLive, wantSeq, wantLog := ds.LiveRecords(), ds.replSeq, walBytes(t, dir)
			seq := wantSeq + 1
			if reset {
				ds.replSeq = 0 // as a new term does
				wantSeq, seq = 0, 1
			}
			if _, err := ds.Ingest(seq, reset, []store.Record{good, bad}); err == nil {
				t.Fatalf("reset=%v: a batch with %q was ingested", reset, bad.Data)
			}
			if !bytes.Equal(walBytes(t, dir), wantLog) {
				t.Fatalf("reset=%v: the refused batch changed the log", reset)
			}
			if !reflect.DeepEqual(ds.LiveRecords(), wantLive) || ds.replSeq != wantSeq {
				t.Fatalf("reset=%v: the refused batch changed the mirror", reset)
			}
			ds.Close()
			ds, err = OpenDeployerStore(dir)
			if err != nil {
				t.Fatalf("reset=%v: reopen after a refused batch: %v", reset, err)
			}
			if !reflect.DeepEqual(ds.LiveRecords(), wantLive) {
				t.Fatalf("reset=%v: reopen gives a state other than the pre-Ingest one", reset)
			}
			ds.Close()
		}
	}
}

// checkLiveStable asserts a store's live records are canonical: each
// decodes and re-encodes to its own bytes, and a store built from them
// serves the same records back.
func checkLiveStable(t *testing.T, ds *DeployerStore) {
	t.Helper()
	live := ds.LiveRecords()
	for _, r := range live {
		rec, err := decodeRecord(r)
		if err != nil {
			t.Fatalf("live record of kind %d does not decode: %v", r.Kind, err)
		}
		if again := encodeRecord(rec); !bytes.Equal(again, r.Data) {
			t.Fatalf("live record of kind %d re-encodes to %x, not %x", r.Kind, again, r.Data)
		}
	}
	copyDS, err := OpenDeployerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer copyDS.Close()
	if _, err := copyDS.Ingest(1, true, live); err != nil {
		t.Fatalf("live records do not ingest: %v", err)
	}
	if got := copyDS.LiveRecords(); !reflect.DeepEqual(got, live) {
		t.Fatalf("a store built from the live records serves %v, not %v", got, live)
	}
}

// FuzzDeployerStore feeds arbitrary record bytes through Open and
// through both Ingest branches. Each must either refuse the record and
// leave the log byte-identical, or give a store whose live records
// re-encode to the same bytes.
func FuzzDeployerStore(f *testing.F) {
	dedup := []DedupSnapshot{{Origin: "h1", Ranges: []AckRange{{Target: "c1", Inc: 1, Floor: 4, Spans: []SeqSpan{{6, 9}}}}}}
	for kind, rec := range map[byte]walRecord{
		RecEpochOpen:     epochOpenRec{Epoch: 2, Moves: map[string]model.HostID{"c1": "h2", "c2": "h1"}, Participants: []model.HostID{"h1", "h2"}, Coordinator: "m"},
		RecEpochPrepared: epochMarkRec{Epoch: 2},
		RecEpochDecided:  epochDecidedRec{Epoch: 2, Commit: true},
		RecEpochClosed:   epochMarkRec{Epoch: 2},
		RecSnapshot: snapshotRec{NextEpoch: 5, Reloc: map[string]model.HostID{"c1": "h2"}, Dedup: dedup,
			Incarnations: map[model.HostID]uint64{"h1": 3}, Term: 7},
		RecGoalState: goalStateRec{Host: "h2", Gen: 4, Manifest: []GoalComponent{{ID: "c1", Type: "counter"}}},
	} {
		f.Add(kind, encodeRecord(rec))
	}
	f.Add(format1Record.Kind, format1Record.Data)
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		rec := store.Record{Kind: kind, Data: data}

		dir := t.TempDir()
		l, _, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(kind, data); err != nil {
			t.Fatal(err)
		}
		l.Close()
		before := walBytes(t, dir)
		if ds, err := OpenDeployerStore(dir); err != nil {
			if !bytes.Equal(walBytes(t, dir), before) {
				t.Fatal("a refused open changed the log")
			}
		} else {
			checkLiveStable(t, ds)
			ds.Close()
		}

		dir = t.TempDir()
		ds, err := OpenDeployerStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		base := store.Record{Kind: RecSnapshot, Data: encodeRecord(snapshotRec{NextEpoch: 2, Term: 1})}
		if _, err := ds.Ingest(1, true, []store.Record{base}); err != nil {
			t.Fatal(err)
		}
		for _, reset := range []bool{false, true} {
			seq := ds.replSeq + 1
			if reset {
				ds.replSeq, seq = 0, 1 // as a new term does
			}
			before := walBytes(t, dir)
			if _, err := ds.Ingest(seq, reset, []store.Record{rec}); err != nil {
				if !bytes.Equal(walBytes(t, dir), before) {
					t.Fatalf("reset=%v: a refused ingest changed the log", reset)
				}
				continue
			}
			checkLiveStable(t, ds)
		}
	})
}
