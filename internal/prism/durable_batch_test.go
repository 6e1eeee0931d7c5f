package prism

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/store"
)

// storedWorld is a deploy world on m, s1 and s2 whose deployer
// checkpoints to a store in dir, with c1 on s1 and the goal table seeded.
func storedWorld(t *testing.T, dir string) (*deployWorld, *DeployerStore) {
	t.Helper()
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	ds, err := OpenDeployerStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if err := dw.deployer.AttachStore(ds); err != nil {
		t.Fatal(err)
	}
	dw.addCounter(t, "s1", "c1", 0)
	dw.deployer.SeedGoalState(map[model.HostID][]GoalComponent{"m": nil, "s1": {{ID: "c1", Type: "counter"}}, "s2": nil})
	return dw, ds
}

// bounce runs one committed wave moving c1 off the host it is on.
func bounce(t *testing.T, dw *deployWorld) {
	t.Helper()
	from, to := model.HostID("s1"), model.HostID("s2")
	if dw.archs["s1"].Component("c1") == nil {
		from, to = to, from
	}
	res, err := dw.deployer.Enact(map[string]model.HostID{"c1": to}, map[string]model.HostID{"c1": from}, 3*time.Second)
	if err != nil || !res.Committed {
		t.Fatalf("wave c1 %s→%s: committed=%v err=%v", from, to, res.Committed, err)
	}
}

// walRecords reads the log in dir without opening a store on it.
func walRecords(t *testing.T, dir string) []store.Record {
	t.Helper()
	copyDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(copyDir, "wal.log"), walBytes(t, dir), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := store.Open(copyDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return recs
}

func kinds(recs []store.Record) []byte {
	out := make([]byte, len(recs))
	for i, r := range recs {
		out[i] = r.Kind
	}
	return out
}

// tornCopy writes a log holding dir's records up to and including the
// last one of kind, followed by the first bytes of the record after it —
// a write torn inside its batch — and returns the copy's directory.
func tornCopy(t *testing.T, dir string, kind byte) string {
	t.Helper()
	recs := walRecords(t, dir)
	cut := 0
	end := -1
	for i, r := range recs {
		cut += 6 + len(r.Data) + 4 // header, payload, crc
		if r.Kind == kind {
			end = i
			break
		}
	}
	if end < 0 || end == len(recs)-1 {
		t.Fatalf("no record follows a kind-%d record in %v", kind, kinds(recs))
	}
	out := t.TempDir()
	if err := os.WriteFile(filepath.Join(out, "wal.log"), walBytes(t, dir)[:cut+5], 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCommittedWaveWritesThreeBatches pins the shape of a committed
// wave's log: three forced writes — open; decided with the goal records
// behind it; closed with the snapshot behind it — and no prepared
// record. An aborted wave makes three writes too.
func TestCommittedWaveWritesThreeBatches(t *testing.T) {
	dir := t.TempDir()
	dw, ds := storedWorld(t, dir)
	before, n := ds.log.Syncs(), len(walRecords(t, dir))
	bounce(t, dw)
	if got := ds.log.Syncs() - before; got != 3 {
		t.Fatalf("a committed wave forced %d writes, want 3", got)
	}
	want := []byte{RecEpochOpen, RecEpochDecided, RecGoalState, RecGoalState, RecEpochClosed, RecSnapshot}
	if got := kinds(walRecords(t, dir)[n:]); !slices.Equal(got, want) {
		t.Fatalf("a committed wave wrote kinds %v, want %v", got, want)
	}

	// An abort: the source has no c9, so the destination never reports
	// done and the deadline rolls the wave back.
	before = ds.log.Syncs()
	res, err := dw.deployer.Enact(map[string]model.HostID{"c9": "s2"}, map[string]model.HostID{"c9": "s1"}, 200*time.Millisecond)
	if err == nil || res.Committed {
		t.Fatalf("wave of a missing component: committed=%v err=%v, want a rollback", res.Committed, err)
	}
	if got := ds.log.Syncs() - before; got != 3 {
		t.Fatalf("an aborted wave forced %d writes, want 3", got)
	}
	if open := ds.OpenWaves(); len(open) != 0 {
		t.Fatalf("waves left open: %+v", open)
	}
}

// TestWaveAppendsSixRecords counts a committed wave's records the way
// the benchmark's per-kind counter does — one kind at a time, through a
// one-shot ObserveAppend hook re-armed from its own callback — so the
// hook must see every matching record of a batch, in record order, once
// the whole batch is durable.
func TestWaveAppendsSixRecords(t *testing.T) {
	dw, ds := storedWorld(t, t.TempDir())
	total := 0
	for kind := RecEpochOpen; kind <= RecGoalState; kind++ {
		n := 0
		var arm func()
		arm = func() {
			ds.ObserveAppend(kind, func() {
				if kind == RecGoalState && len(ds.OpenWaves()) == 1 && !ds.OpenWaves()[0].Decided {
					t.Error("a goal record's hook fired before its decided record was durable")
				}
				n++
				arm()
			})
		}
		arm()
		bounce(t, dw)
		ds.ObserveAppend(0, nil)
		total += n
	}
	if total != 6 {
		t.Fatalf("a committed wave appended %d records, want 6 (open, decided, two goal records, closed, snapshot)", total)
	}
}

// TestBatchHooksFireAfterTheWholeBatch: the hooks of a batched write run
// once all of it is durable. An observer re-armed from its own callback
// sees each matching record in order, and CrashAfter kills the store at
// its record, after the whole batch landed.
func TestBatchHooksFireAfterTheWholeBatch(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDeployerStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	open := epochOpenRec{Epoch: 1, Moves: map[string]model.HostID{"c1": "h2"}, Participants: []model.HostID{"h1", "h2"}, Coordinator: "m"}
	if err := ds.append(open); err != nil {
		t.Fatal(err)
	}
	var seen []string
	var arm func()
	arm = func() {
		ds.ObserveAppend(RecGoalState, func() {
			seen = append(seen, fmt.Sprint(ds.GoalGenerations()))
			arm()
		})
	}
	arm()
	ds.CrashAfter(RecGoalState, func() { seen = append(seen, "crash") })
	batch := []walRecord{epochDecidedRec{Epoch: 1, Commit: true}, goalStateRec{Host: "h1", Gen: 2}, goalStateRec{Host: "h2", Gen: 2}}
	if err := ds.append(batch...); err != nil {
		t.Fatal(err)
	}
	// The crash fires at the first goal record: the observer saw it —
	// with both records already folded — and nothing after it.
	if want := []string{"map[h1:2 h2:2]", "crash"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("hooks ran %q, want %q", seen, want)
	}
	if err := ds.append(epochMarkRec{Kind: RecEpochClosed, Epoch: 1}); err == nil {
		t.Fatal("a crashed store accepted a write")
	}
	ds.Close()
	if got, want := kinds(walRecords(t, dir)), []byte{RecEpochOpen, RecEpochDecided, RecGoalState, RecGoalState}; !slices.Equal(got, want) {
		t.Fatalf("log after the crash holds %v, want %v", got, want)
	}

	// Re-armed from its callback with no crash armed, the observer sees
	// both goal records of one batch.
	ds2, err := OpenDeployerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	n := 0
	var again func()
	again = func() { ds2.ObserveAppend(RecGoalState, func() { n++; again() }) }
	again()
	if err := ds2.append(batch[1:]...); err != nil || n != 2 {
		t.Fatalf("observer saw %d goal records of a batch of two (err %v)", n, err)
	}

	// CrashBefore: the write dies with nothing of it landed.
	dir3 := t.TempDir()
	ds3, err := OpenDeployerStore(dir3)
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	ds3.CrashBefore(RecEpochDecided, func() { crashed = true })
	if err := ds3.append(open); err != nil {
		t.Fatal(err)
	}
	if err := ds3.append(batch...); err == nil || !crashed {
		t.Fatalf("CrashBefore: err = %v, crashed = %v", err, crashed)
	}
	ds3.Close()
	if got := kinds(walRecords(t, dir3)); !slices.Equal(got, []byte{RecEpochOpen}) {
		t.Fatalf("log after a crash before the decision holds %v, want the open only", got)
	}
}

// TestDecisionBatchTornAfterDecided: a crash that keeps a commit's
// decided record but tears the goal records behind it. The restart
// resumes the commit and re-folds the goal table, healing the
// generations the lost records carried.
func TestDecisionBatchTornAfterDecided(t *testing.T) {
	dir := t.TempDir()
	dw, ds := storedWorld(t, dir)
	bounce(t, dw)
	want := ds.GoalGenerations()
	ds.Close()

	torn := tornCopy(t, dir, RecEpochDecided)
	dw2 := newDeployWorld(t, 1.0, "m", "s1", "s2")
	ds2, err := OpenDeployerStore(torn)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := ds2.GoalGenerations(); got["s2"] != 1 {
		t.Fatalf("torn log holds goal generations %v, want the seeded ones", got)
	}
	if err := dw2.deployer.AttachStore(ds2); err != nil {
		t.Fatal(err)
	}
	resumed, err := dw2.deployer.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || !resumed[0].Committed || !resumed[0].Resumed {
		t.Fatalf("resumed = %+v, want the decided commit resumed", resumed)
	}
	if got := ds2.GoalGenerations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("healed goal generations %v, want %v", got, want)
	}
	if got := dw2.deployer.GoalManifest("s2"); !slices.Equal(got, []string{"c1"}) {
		t.Fatalf("s2's goal manifest = %v, want [c1]", got)
	}
}

// TestCloseBatchTornAfterClosed: a crash that keeps a wave's closed
// record but tears the snapshot behind it. The epoch is closed, so the
// restart resolves nothing and re-broadcasts nothing, and the previous
// wave's snapshot stands.
func TestCloseBatchTornAfterClosed(t *testing.T) {
	dir := t.TempDir()
	dw, ds := storedWorld(t, dir)
	bounce(t, dw) // c1 → s2: its close carries the snapshot that stands
	prev := ds.snapshot()
	if prev.Reloc["c1"] != "s2" {
		t.Fatalf("the first wave's snapshot relocates c1 to %q, want s2", prev.Reloc["c1"])
	}
	bounce(t, dw) // c1 → s1
	ds.Close()

	// Everything up to the second wave's closed record, then a torn
	// snapshot.
	recs := walRecords(t, dir)
	first := slices.Index(kinds(recs), RecEpochClosed)
	second := first + 1 + slices.Index(kinds(recs[first+1:]), RecEpochClosed)
	torn := t.TempDir()
	l, _, err := store.Open(torn, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(recs[:second+1]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(filepath.Join(torn, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, RecSnapshot, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ds2, err := OpenDeployerStore(torn)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := ds2.snapshot(); !reflect.DeepEqual(got, prev) {
		t.Fatalf("snapshot after the torn close = %+v, want the previous one %+v", got, prev)
	}
	var tap *tapTransport
	dw2 := deployOn(t, newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "m" {
			return tr
		}
		tap = newTap(tr, "", 0)
		return tap
	}, "m", "s1", "s2"), "m")
	if err := dw2.deployer.AttachStore(ds2); err != nil {
		t.Fatal(err)
	}
	resumed, err := dw2.deployer.Resume()
	if err != nil || len(resumed) != 0 {
		t.Fatalf("Resume after a torn close = %+v, %v; want nothing to resolve", resumed, err)
	}
	if n := tap.sent(EvOutcome); n != 0 {
		t.Fatalf("the restart sent %d outcomes, want none", n)
	}
}

// TestOlderLogsStillOpen: logs an older build wrote — with a prepared
// record between open and decided — open, compact and resume to the
// same resolution as before: open + prepared aborts, open + prepared +
// decided commits. No prepared record survives a compaction or reaches
// the replication stream.
func TestOlderLogsStillOpen(t *testing.T) {
	open := epochOpenRec{Epoch: 1, Moves: map[string]model.HostID{"c1": "s2"}, Participants: []model.HostID{"s1", "s2"}, Coordinator: "m"}
	for _, tc := range []struct {
		name   string
		recs   []walRecord
		commit bool
	}{
		{"open+prepared", []walRecord{open, epochMarkRec{Kind: RecEpochPrepared, Epoch: 1}}, false},
		{"open+prepared+decided", []walRecord{open, epochMarkRec{Kind: RecEpochPrepared, Epoch: 1}, epochDecidedRec{Epoch: 1, Commit: true}}, true},
	} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s compact=%v", tc.name, compact), func(t *testing.T) {
				dir := t.TempDir()
				l, _, err := store.Open(dir, store.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range tc.recs {
					if err := l.Append(r.kind(), encodeRecord(r)); err != nil {
						t.Fatal(err)
					}
				}
				l.Close()
				ds, err := OpenDeployerStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				if slices.Contains(kinds(ds.LiveRecords()), RecEpochPrepared) {
					t.Fatal("the replication stream re-emits a prepared record")
				}
				if compact {
					ds.mu.Lock()
					err := ds.compactLocked()
					ds.mu.Unlock()
					if err != nil {
						t.Fatal(err)
					}
					if slices.Contains(kinds(walRecords(t, dir)), RecEpochPrepared) {
						t.Fatal("compaction kept a prepared record")
					}
				}
				if open := ds.OpenWaves(); len(open) != 1 || open[0].Decided != tc.commit {
					t.Fatalf("open waves = %+v", open)
				}
				dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
				if err := dw.deployer.AttachStore(ds); err != nil {
					t.Fatal(err)
				}
				resumed, err := dw.deployer.Resume()
				if err != nil {
					t.Fatal(err)
				}
				want := []ResumedWave{{Epoch: 1, Committed: tc.commit, Resumed: tc.commit}}
				if !reflect.DeepEqual(resumed, want) {
					t.Fatalf("resumed = %+v, want %+v", resumed, want)
				}
			})
		}
	}
}
