package framework

import (
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// TestDeployerRestartResumesDecidedWave is the durable-state acceptance
// drill: the deployer is killed (kill -9 stand-in) at the worst possible
// transition — after the commit decision is durable but before any
// participant has acknowledged the outcome — with the master partitioned
// from every slave so the dying lifetime's broadcast cannot land. The
// restarted deployer must resume the wave from its checkpoint log:
// re-announce the persisted commit (never replan, never renumber), leave
// the component active exactly once at its destination, and hand out the
// next epoch number for fresh waves.
func TestDeployerRestartResumesDecidedWave(t *testing.T) {
	tracer := obs.NewTracer()
	w, dep0 := newTestWorld(t, 3, 6, 17, WorldConfig{Fault: &prism.FaultConfig{}, Trace: tracer})
	dir := t.TempDir()

	ds, err := prism.OpenDeployerStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.HasState() {
		t.Fatal("fresh store claims prior state")
	}
	if err := w.Deployer.AttachStore(ds); err != nil {
		t.Fatal(err)
	}

	// Pick a component and a destination host it does not live on.
	var comp model.ComponentID
	var src, dst model.HostID
	for _, c := range w.Sys.ComponentIDs() {
		comp, src = c, dep0[c]
		break
	}
	for _, h := range w.Hosts() {
		if h != src {
			dst = h
			break
		}
	}
	current := make(map[string]model.HostID, len(dep0))
	for c, h := range dep0 {
		current[string(c)] = h
	}

	// Arm the crash: the instant the commit decision is durable, the
	// master is partitioned from every slave (the outcome broadcast of the
	// dying lifetime must not land anywhere) and the deployer dies.
	ds.CrashAfter(prism.RecEpochDecided, func() {
		for _, h := range w.SlaveHosts() {
			w.Faults[w.Master].Partition(h, true)
			w.Faults[h].Partition(w.Master, true)
		}
		w.Deployer.Close()
	})

	res, err := w.Deployer.Enact(map[string]model.HostID{string(comp): dst}, current, 10*time.Second)
	if err != nil {
		t.Fatalf("enact with armed crash: %v", err)
	}
	if !res.Committed || res.Epoch != 1 {
		t.Fatalf("pre-crash wave = %+v, want committed epoch 1", res)
	}
	// The commit decision exists only in the log: no participant heard it.
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Heal the partition and restart the deployer process.
	for _, h := range w.SlaveHosts() {
		w.Faults[w.Master].Partition(h, false)
		w.Faults[h].Partition(w.Master, false)
	}
	dep2, err := w.RestartDeployer()
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := prism.OpenDeployerStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if !ds2.HasState() {
		t.Fatal("reopened store lost its state")
	}
	if err := dep2.AttachStore(ds2); err != nil {
		t.Fatal(err)
	}
	resumed, err := dep2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 {
		t.Fatalf("resumed %d waves, want 1: %+v", len(resumed), resumed)
	}
	if rw := resumed[0]; rw.Epoch != 1 || !rw.Resumed || !rw.Committed {
		t.Fatalf("resume outcome = %+v, want epoch 1 resumed commit", rw)
	}
	// The trace says what was re-announced: a resumed commit.
	var span obs.SpanRecord
	for _, sp := range tracer.Snapshot() {
		if sp.Name == "wave_resume" {
			span = sp
		}
	}
	if span.Attr("epoch") != "1" || span.Attr("decision") != "commit" || span.Attr("resumed") != "true" {
		t.Fatalf("wave_resume span = %+v, want epoch 1 decision=commit resumed=true", span)
	}

	// The resumed commit must finish the move: active exactly once, at the
	// destination, with the source's prepared departure discarded.
	waitUntil(t, func() bool {
		live := w.LiveDeployment()
		return live[comp] == dst && w.Archs[src].Component(string(comp)) == nil
	})

	// Restart-without-replan also means no epoch reuse: the next wave gets
	// a fresh number past the resumed one.
	current[string(comp)] = dst
	res2, err := dep2.Enact(map[string]model.HostID{string(comp): src}, current, 10*time.Second)
	if err != nil {
		t.Fatalf("post-restart wave: %v", err)
	}
	if res2.Epoch != 2 || !res2.Committed {
		t.Fatalf("post-restart wave = %+v, want committed epoch 2", res2)
	}
}
