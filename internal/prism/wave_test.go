package prism

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dif/internal/model"
)

// tappedDeployWorld is a deployWorld whose every host sends through a
// counting tap, with the re-drive tick pinned out of reach so the only
// frames are the ones a lossless wave needs.
func tappedDeployWorld(t *testing.T, hosts ...model.HostID) (*deployWorld, map[model.HostID]*tapTransport) {
	t.Helper()
	taps := make(map[model.HostID]*tapTransport)
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		taps[h] = newTap(tr, "", 0)
		return taps[h]
	}, hosts...)
	dw := &deployWorld{
		world:    w,
		admins:   make(map[model.HostID]*AdminComponent),
		registry: NewFactoryRegistry(),
		master:   hosts[0],
	}
	dw.registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	cfg := AdminConfig{Deployer: dw.master, Bus: "bus", Registry: dw.registry, EnactResendInterval: time.Hour}
	for _, h := range hosts {
		admin, err := InstallAdmin(w.archs[h], cfg)
		if err != nil {
			t.Fatal(err)
		}
		dw.admins[h] = admin
	}
	dep, err := InstallDeployer(w.archs[dw.master], cfg)
	if err != nil {
		t.Fatal(err)
	}
	dw.deployer = dep
	return dw, taps
}

// TestWaveFrameMix pins the control frames a lossless three-host wave
// puts on the wire, per kind: the swap c1 s1→s2, c2 s2→s1 coordinated by
// m. One reconfig per destination, one fetch and one transfer per move,
// one done per destination, one outcome and one ack per participant —
// the mix behind the bench's control_frames_per_wave.
func TestWaveFrameMix(t *testing.T) {
	dw, taps := tappedDeployWorld(t, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 1)
	dw.addCounter(t, "s2", "c2", 2)
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2", "c2": "s1"},
		map[string]model.HostID{"c1": "s1", "c2": "s2"},
		5*time.Second)
	if err != nil || !res.Committed {
		t.Fatalf("wave: res %+v err %v", res, err)
	}
	got := make(map[string]int)
	for _, tap := range taps {
		for _, name := range []string{EvReconfig, EvFetch, EvTransfer, EvDone, EvOutcome, EvOutcomeAck} {
			got[name] += tap.sent(name)
		}
	}
	want := map[string]int{
		EvReconfig: 2, EvFetch: 2, EvTransfer: 2, EvDone: 2, EvOutcome: 2, EvOutcomeAck: 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames per kind = %v, want %v", got, want)
	}
}

// TestEnactDispatchesNothingAfterUpFrontAbort: one participant is
// detector-dead before the wave starts, so the wave is aborted before
// its first dispatch — no EvReconfig leaves the coordinator, and the live
// source never detaches its component only to re-attach it.
func TestEnactDispatchesNothingAfterUpFrontAbort(t *testing.T) {
	dw, taps := tappedDeployWorld(t, "m", "s1", "s2", "s3")
	dw.addCounter(t, "s1", "c1", 3)
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	dw.deployer.AttachDetector(fd)
	fd.ObserveAt("s3", 0, clk.Now())
	dw.fabric.Crash("s3")
	fd.EvaluateAt(clk.Advance(10 * time.Second))

	_, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2", "c2": "s1"},
		map[string]model.HostID{"c1": "s1", "c2": "s3"},
		30*time.Second)
	if err == nil || !strings.Contains(err.Error(), "died mid-wave") {
		t.Fatalf("err = %v, want dead-participant abort", err)
	}
	if n := taps["m"].sent(EvReconfig); n != 0 {
		t.Fatalf("aborted wave dispatched %d reconfig frames, want 0", n)
	}
	if taps["s2"].sent(EvFetch) != 0 || dw.archs["s1"].Component("c1") == nil {
		t.Fatal("the live source was asked to detach c1 for an aborted wave")
	}
}

// TestResumeDrivesOpenWavesTogether: two decided open waves, and one
// participant partitioned from the deployer but not declared dead.
// Resume runs both waves' phase two at once, so the straggler costs one
// ack budget, not one per wave.
func TestResumeDrivesOpenWavesTogether(t *testing.T) {
	cfg := fastRetryCfg()
	cfg.OutcomeAckTimeout = time.Second
	fw := newFaultWorld(t, cfg, nil, "m", "s1", "s2")
	ds, err := OpenDeployerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	parts := []model.HostID{"s1", "s2"}
	for epoch, comp := range map[int]string{1: "c1", 2: "c2"} {
		open := epochOpenRec{Epoch: epoch, Moves: map[string]model.HostID{comp: "s2"}, Participants: parts, Coordinator: "m"}
		if err := ds.append(open); err != nil {
			t.Fatal(err)
		}
		if err := ds.append(epochDecidedRec{Epoch: epoch, Commit: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.deployer.AttachStore(ds); err != nil {
		t.Fatal(err)
	}
	fw.partitionPair("m", "s2", true)

	start := time.Now()
	resumed, err := fw.deployer.Resume()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 2 || !resumed[0].Committed || !resumed[1].Committed {
		t.Fatalf("resumed = %+v, want two resumed commits", resumed)
	}
	if limit := cfg.OutcomeAckTimeout * 3 / 2; elapsed > limit {
		t.Fatalf("Resume took %v with one straggler, want at most %v", elapsed, limit)
	}
	// The straggler never acked: both epochs stay open for the next
	// restart.
	if open := ds.OpenWaves(); len(open) != 2 {
		t.Fatalf("open waves after Resume = %+v, want both", open)
	}
}
