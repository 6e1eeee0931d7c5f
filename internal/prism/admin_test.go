package prism

import (
	"reflect"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
)

// deployWorld is a world with admins on every host and a deployer on the
// first ("master") host.
type deployWorld struct {
	*world
	admins   map[model.HostID]*AdminComponent
	deployer *DeployerComponent
	registry *FactoryRegistry
	master   model.HostID
}

func newDeployWorld(t *testing.T, rel float64, hosts ...model.HostID) *deployWorld {
	t.Helper()
	return deployOn(t, newWorld(t, rel, hosts...), hosts[0])
}

// deployOn installs an admin on every host of w and the deployer on
// master.
func deployOn(t *testing.T, w *world, master model.HostID) *deployWorld {
	t.Helper()
	dw := &deployWorld{
		world:    w,
		admins:   make(map[model.HostID]*AdminComponent),
		registry: NewFactoryRegistry(),
		master:   master,
	}
	dw.registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	cfg := AdminConfig{Deployer: dw.master, Bus: "bus", Registry: dw.registry}
	for h := range w.archs {
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
	return dw
}

func (dw *deployWorld) addCounter(t *testing.T, host model.HostID, id string, count int) *counterComponent {
	t.Helper()
	c := newCounter(id)
	c.Count = count
	if err := dw.archs[host].AddComponent(c); err != nil {
		t.Fatal(err)
	}
	if err := dw.archs[host].Weld(id, "bus"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAdminReport(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	dw.addCounter(t, "s1", "c1", 0)
	dw.addCounter(t, "s1", "c2", 0)
	rep := dw.admins["s1"].Report(false)
	if rep.Host != "s1" {
		t.Fatalf("report host = %s", rep.Host)
	}
	if len(rep.Components) != 2 {
		t.Fatalf("report components = %v", rep.Components)
	}
	for _, c := range rep.Components {
		if c == AdminID {
			t.Fatal("admin listed itself as an application component")
		}
	}
	if len(rep.Links) != 1 || rep.Links[0].Peer != "m" {
		t.Fatalf("report links = %+v", rep.Links)
	}
}

func TestRequestReportsGathersAll(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 0)
	dw.addCounter(t, "s2", "c2", 0)
	reports, err := dw.deployer.RequestReports([]model.HostID{"s1", "s2"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	if got := reports["s1"].Components; len(got) != 1 || got[0] != "c1" {
		t.Fatalf("s1 components = %v", got)
	}
}

func TestRequestReportsOverLossyLinks(t *testing.T) {
	// 60% links: re-requests must still gather every report.
	dw := newDeployWorld(t, 0.6, "m", "s1", "s2", "s3")
	for i, h := range []model.HostID{"s1", "s2", "s3"} {
		dw.addCounter(t, h, string(model.ComponentName(i)), 0)
	}
	reports, err := dw.deployer.RequestReports([]model.HostID{"s1", "s2", "s3"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports over lossy links", len(reports))
	}
}

// stampedFrom builds a stamped application event as it arrives off the
// wire from origin's stream toward target.
func stampedFrom(origin model.HostID, target string, seq uint64) Event {
	return Event{Name: "app.req", Kind: KindApplication, Target: target, SrcHost: origin, Seq: seq, SeqOrigin: origin}
}

// residueSeqs arrive out of order and leave a window of floor 2 with the
// two-span residue {5,6} {9,9}.
var residueSeqs = []uint64{1, 2, 5, 6, 9}

func residueWindow(origin model.HostID, target string) []DedupSnapshot {
	return []DedupSnapshot{{Origin: origin, Ranges: []AckRange{
		{Target: target, Floor: 2, Spans: []SeqSpan{{5, 6}, {9, 9}}},
	}}}
}

func TestEnactMigratesComponentWithState(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 2)
	// Five stamped events reach c1 out of order before the move, so its
	// dedup window toward origin m carries a multi-span residue.
	srcBus := dw.archs["s1"].DistributionConnector("bus")
	for _, seq := range residueSeqs {
		srcBus.dispatch(stampedFrom("m", "c1", seq))
	}
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		3*time.Second,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 1 {
		t.Fatalf("moved = %d", res.Moved)
	}
	waitFor(t, func() bool { return dw.archs["s2"].Component("c1") != nil })
	if dw.archs["s1"].Component("c1") != nil {
		t.Fatal("component still on source host")
	}
	moved, ok := dw.archs["s2"].Component("c1").(*counterComponent)
	if !ok {
		t.Fatal("migrated component has wrong type")
	}
	if moved.value() != 7 {
		t.Fatalf("state lost in migration: count = %d, want 7 (2 restored + 5 delivered)", moved.value())
	}
	// The migrated component is welded to the destination bus.
	welds := dw.archs["s2"].WeldsOf("c1")
	if len(welds) != 1 || welds[0] != "bus" {
		t.Fatalf("welds after migration = %v", welds)
	}
	// The dedup window rode in the TransferPayload intact, and left the
	// source with the component.
	dstBus := dw.archs["s2"].DistributionConnector("bus")
	if got, want := dstBus.SnapshotDedup("c1"), residueWindow("m", "c1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup window at the destination = %+v, want %+v", got, want)
	}
	if got := srcBus.SnapshotDedup("c1"); len(got) != 0 {
		t.Fatalf("source kept the departed component's dedup window: %+v", got)
	}
	// A retransmission inside a carried span is swallowed at the new
	// host; a sequence from the hole between the spans is new.
	dstBus.dispatch(stampedFrom("m", "c1", 6))
	dstBus.dispatch(stampedFrom("m", "c1", 3))
	if moved.value() != 8 {
		t.Fatalf("after a retransmitted seq 6 and a new seq 3: count = %d, want 8", moved.value())
	}
}

// TestDedupResidueSurvivesDeployerRestart: the deployer's WAL snapshot
// carries its host's dedup windows in the same exported form, so a
// multi-span residue written in one lifetime is restored by AttachStore
// into a fresh connector in the next.
func TestDedupResidueSurvivesDeployerRestart(t *testing.T) {
	dir := t.TempDir()
	attach := func(dw *deployWorld) *DeployerStore {
		ds, err := OpenDeployerStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := dw.deployer.AttachStore(ds); err != nil {
			t.Fatal(err)
		}
		return ds
	}

	first := newDeployWorld(t, 1.0, "m", "s1")
	ds := attach(first)
	first.addCounter(t, "m", "c1", 0)
	for _, seq := range residueSeqs {
		first.archs["m"].DistributionConnector("bus").dispatch(stampedFrom("s1", "c1", seq))
	}
	first.deployer.ckptSnapshot() // what every finished wave does
	ds.Close()

	second := newDeployWorld(t, 1.0, "m", "s1")
	defer attach(second).Close()
	bus := second.archs["m"].DistributionConnector("bus")
	if got, want := bus.SnapshotDedup(""), residueWindow("s1", "c1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored dedup windows = %+v, want %+v", got, want)
	}
	c := second.addCounter(t, "m", "c1", 0)
	bus.dispatch(stampedFrom("s1", "c1", 9))
	bus.dispatch(stampedFrom("s1", "c1", 4))
	if c.value() != 1 {
		t.Fatalf("after a retransmitted seq 9 and a new seq 4: count = %d, want 1", c.value())
	}
}

func TestEnactMultipleMoves(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2", "s3")
	dw.addCounter(t, "s1", "c1", 1)
	dw.addCounter(t, "s1", "c2", 2)
	dw.addCounter(t, "s2", "c3", 3)
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2", "c2": "s3", "c3": "s1"},
		map[string]model.HostID{"c1": "s1", "c2": "s1", "c3": "s2"},
		3*time.Second,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 3 {
		t.Fatalf("moved = %d", res.Moved)
	}
	waitFor(t, func() bool {
		return dw.archs["s2"].Component("c1") != nil &&
			dw.archs["s3"].Component("c2") != nil &&
			dw.archs["s1"].Component("c3") != nil
	})
}

func TestEnactNoopMoves(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	dw.addCounter(t, "s1", "c1", 0)
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s1"}, // already there
		map[string]model.HostID{"c1": "s1"},
		time.Second,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 0 {
		t.Fatalf("no-op move counted: %d", res.Moved)
	}
}

func TestEnactUnknownComponent(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	if _, err := dw.deployer.Enact(
		map[string]model.HostID{"ghost": "s1"},
		map[string]model.HostID{},
		time.Second,
	); err == nil {
		t.Fatal("unknown component accepted")
	}
}

func TestEnactOverLossyLinks(t *testing.T) {
	dw := newDeployWorld(t, 0.55, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 11)
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		10*time.Second,
	)
	if err != nil {
		t.Fatalf("lossy enact: %v (res %+v)", err, res)
	}
	waitFor(t, func() bool { return dw.archs["s2"].Component("c1") != nil })
	moved := dw.archs["s2"].Component("c1").(*counterComponent)
	if moved.value() != 11 {
		t.Fatalf("state lost over lossy links: %d", moved.value())
	}
}

func TestEnactMediatedTransfer(t *testing.T) {
	// s1 and s2 are NOT directly connected; both reach the master. The
	// deployer must mediate the fetch and the transfer (DSN'04 §4.3).
	w := &world{
		fabric: netsim.NewFabric(7),
		archs:  make(map[model.HostID]*Architecture),
		buses:  make(map[model.HostID]*DistributionConnector),
	}
	t.Cleanup(w.fabric.Close)
	hosts := []model.HostID{"m", "s1", "s2"}
	for _, h := range hosts {
		if err := w.fabric.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []model.HostID{"s1", "s2"} {
		if err := w.fabric.Connect("m", s, netsim.LinkState{Reliability: 1, BandwidthKB: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hosts {
		arch := NewArchitecture(h, nil)
		tr, err := NewNetsimTransport(w.fabric, h)
		if err != nil {
			t.Fatal(err)
		}
		bus, err := arch.AddDistributionConnector("bus", tr)
		if err != nil {
			t.Fatal(err)
		}
		w.archs[h] = arch
		w.buses[h] = bus
	}
	dw := &deployWorld{
		world:    w,
		admins:   make(map[model.HostID]*AdminComponent),
		registry: NewFactoryRegistry(),
		master:   "m",
	}
	dw.registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	cfg := AdminConfig{Deployer: "m", Bus: "bus", Registry: dw.registry}
	for _, h := range hosts {
		admin, err := InstallAdmin(w.archs[h], cfg)
		if err != nil {
			t.Fatal(err)
		}
		dw.admins[h] = admin
	}
	dep, err := InstallDeployer(w.archs["m"], cfg)
	if err != nil {
		t.Fatal(err)
	}
	dw.deployer = dep
	dw.addCounter(t, "s1", "c1", 5)

	// The deployer needs reports to locate components during mediation.
	if _, err := dw.deployer.RequestReports([]model.HostID{"s1", "s2"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		5*time.Second,
	)
	if err != nil {
		t.Fatalf("mediated enact: %v (res %+v)", err, res)
	}
	waitFor(t, func() bool { return dw.archs["s2"].Component("c1") != nil })
	if got := dw.archs["s2"].Component("c1").(*counterComponent).value(); got != 5 {
		t.Fatalf("mediated state = %d, want 5", got)
	}
	if dw.archs["s1"].Component("c1") != nil {
		t.Fatal("component still on s1")
	}
}

func TestEventBufferingDuringMigration(t *testing.T) {
	// Events addressed to a component mid-migration must be buffered at
	// the destination and delivered after it attaches.
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 0)
	sender := dw.addCounter(t, "s2", "snd", 0)
	_ = sender

	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		3*time.Second,
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	waitFor(t, func() bool { return dw.archs["s2"].Component("c1") != nil })
	before := dw.archs["s2"].Component("c1").(*counterComponent).value()

	// Post-migration traffic flows to the new location.
	s2snd := dw.archs["s2"].Component("snd").(*counterComponent)
	s2snd.Emit(Event{Name: "tick", Target: "c1"})
	waitFor(t, func() bool {
		return dw.archs["s2"].Component("c1").(*counterComponent).value() > before
	})
}

func TestAdminMonitorsLifecycle(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	admin := dw.admins["s1"]
	if admin.FrequencyMonitor() == nil || admin.ReliabilityMonitor() == nil {
		t.Fatal("monitors not installed")
	}
	admin.DetachMonitors()
	if admin.FrequencyMonitor() != nil || admin.ReliabilityMonitor() != nil {
		t.Fatal("monitors not detached")
	}
	admin.AttachMonitors()
	if admin.FrequencyMonitor() == nil {
		t.Fatal("monitors not reattached")
	}
}

func TestAdminIgnoresApplicationEvents(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	admin := dw.admins["s1"]
	admin.Handle(Event{Name: EvReconfig, Kind: KindApplication}) // wrong kind
	admin.Handle(Event{Name: EvReconfig, Kind: KindControl, Payload: "not a command"})
	admin.Handle(Event{Name: EvFetch, Kind: KindControl, Payload: 42})
	admin.Handle(Event{Name: EvTransfer, Kind: KindControl, Payload: nil})
	// No panic and no state change is the assertion.
}

func TestUnmigratableComponentStaysPut(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	plain := newEcho("stubborn") // echoComponent is not Migratable
	if err := dw.archs["s1"].AddComponent(plain); err != nil {
		t.Fatal(err)
	}
	if err := dw.archs["s1"].Weld("stubborn", "bus"); err != nil {
		t.Fatal(err)
	}
	_, err := dw.deployer.Enact(
		map[string]model.HostID{"stubborn": "s2"},
		map[string]model.HostID{"stubborn": "s1"},
		500*time.Millisecond,
	)
	if err == nil {
		t.Fatal("unmigratable component reported moved")
	}
	if dw.archs["s1"].Component("stubborn") == nil {
		t.Fatal("unmigratable component vanished from source")
	}
	if dw.archs["s2"].Component("stubborn") != nil {
		t.Fatal("unmigratable component appeared at destination")
	}
}

// TestAdminCloseRacesReconfig closes an admin while a reconfig command
// arrives: handling a command must start nothing that joins the
// WaitGroup Close waits on after the Wait began (WaitGroup misuse the
// race detector reports). Run with -race -count=50 (make test-race does).
func TestAdminCloseRacesReconfig(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	for i := 0; i < 20; i++ {
		admin := NewAdminComponent(dw.archs["s1"], AdminConfig{Deployer: "m", Bus: "bus", Registry: dw.registry})
		cmd := ReconfigCommand{Epoch: i + 1, Arrivals: map[string]model.HostID{"c": "m"}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			admin.Handle(Event{Name: EvReconfig, Kind: KindControl, Payload: cmd})
		}()
		admin.Close()
		<-done
		admin.Close() // idempotent after the race
	}
}

// TestStaleFetchAfterCommitLeavesComponent: c1 moves s1→s2 and back in
// two committed waves, then a duplicate fetch of the first wave — delayed
// in the network all that time — reaches s1. The first wave is settled at
// s1, so the fetch is stale: s1 must keep the live c1 instead of
// detaching it under a wave that will never send an outcome again.
func TestStaleFetchAfterCommitLeavesComponent(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 7)
	for _, hop := range [][2]model.HostID{{"s1", "s2"}, {"s2", "s1"}} {
		res, err := dw.deployer.Enact(
			map[string]model.HostID{"c1": hop[1]}, map[string]model.HostID{"c1": hop[0]}, 5*time.Second)
		if err != nil || !res.Committed {
			t.Fatalf("wave %v: res %+v err %v", hop, res, err)
		}
	}
	dw.admins["s1"].Handle(Event{Name: EvFetch, Kind: KindControl, Target: AdminID, Payload: FetchRequest{
		Epoch: 1, Coordinator: "m", Comp: "c1", Requester: "s2", Source: "s1",
	}})
	if dw.archs["s1"].Component("c1") == nil {
		t.Fatal("a stale fetch of a settled wave detached the live c1 at s1")
	}
}

// TestOrphanTransferDropped: s1 prepares c1 for epoch 5 and ships it to
// s2, whose admin has no record of the wave (it restarted after its fetch
// went out). Reconstituted, the copy would come up unheld beside s1's,
// and the abort that follows would re-attach s1's too. s2 drops it, so
// after the abort c1 is live at s1 only.
func TestOrphanTransferDropped(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 7)
	s1, s2 := dw.admins["s1"], dw.admins["s2"]
	s1.Handle(Event{Name: EvFetch, Kind: KindControl, Target: AdminID, Payload: FetchRequest{
		Epoch: 5, Coordinator: "m", Comp: "c1", Requester: "s2", Source: "s1",
	}})
	s1.mu.Lock()
	w := s1.part.open[waveKey{"m", 5}]
	s1.mu.Unlock()
	if w == nil || len(w.departs) != 1 {
		t.Fatal("s1 did not prepare c1 for epoch 5")
	}
	s2.Handle(Event{Name: EvTransfer, Kind: KindControl, Target: AdminID, Payload: w.departs[0].shipped})
	abort := Event{Name: EvOutcome, Kind: KindControl, Target: AdminID, Payload: WaveOutcome{Epoch: 5, Coordinator: "m"}}
	s1.Handle(abort)
	s2.Handle(abort)
	live := func(h model.HostID) bool {
		bus := dw.archs[h].Connector("bus")
		bus.mu.RLock()
		_, held := bus.held["c1"]
		bus.mu.RUnlock()
		return dw.archs[h].Component("c1") != nil && !held
	}
	if at1, at2 := live("s1"), live("s2"); !at1 || at2 {
		t.Fatalf("c1 live at s1=%v s2=%v, want s1 only", at1, at2)
	}
}

// TestParticipantMemoryBounded: 200 committed waves move c1 back and
// forth between s1 and s2. Afterwards neither admin holds an open wave,
// and each one's settled window for the coordinator is a bare floor.
func TestParticipantMemoryBounded(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 0)
	hosts := [2]model.HostID{"s1", "s2"}
	const waves = 200
	for i := range waves {
		src, dst := hosts[i%2], hosts[(i+1)%2]
		res, err := dw.deployer.Enact(map[string]model.HostID{"c1": dst}, map[string]model.HostID{"c1": src}, 5*time.Second)
		if err != nil || !res.Committed {
			t.Fatalf("wave %d: res %+v err %v", i+1, res, err)
		}
	}
	for _, h := range hosts {
		a := dw.admins[h]
		a.mu.Lock()
		open, win := len(a.part.open), a.part.settled["m"]
		a.mu.Unlock()
		if open != 0 || win == nil || win.floor != waves || len(win.spans) != 0 {
			t.Fatalf("%s after %d waves: %d open records, settled window %+v; want none and a bare floor of %d", h, waves, open, win, waves)
		}
	}
}
