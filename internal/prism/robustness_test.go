package prism

import (
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
	"dif/internal/obs"
)

// faultWorld is a deployWorld variant whose transports are wrapped in
// seeded fault injectors: reliability comes entirely from the injected
// fault mix, not the fabric.
type faultWorld struct {
	fabric   *netsim.Fabric
	archs    map[model.HostID]*Architecture
	faults   map[model.HostID]*FaultTransport
	obsReg   *obs.Registry
	admins   map[model.HostID]*AdminComponent
	deployer *DeployerComponent
	registry *FactoryRegistry
	master   model.HostID
}

// fastRetryCfg keeps the robustness tests quick: an aggressive re-dispatch
// interval and a short outcome-ack budget.
func fastRetryCfg() AdminConfig {
	return AdminConfig{
		EnactResendInterval: 30 * time.Millisecond,
		OutcomeAckTimeout:   500 * time.Millisecond,
	}
}

// newFaultWorld builds a full mesh of perfectly reliable links, wraps
// each host's transport with its FaultConfig from fcs (zero config when
// absent), and installs admins everywhere plus a deployer on the first
// host.
func newFaultWorld(t *testing.T, cfg AdminConfig, fcs map[model.HostID]FaultConfig, hosts ...model.HostID) *faultWorld {
	t.Helper()
	fw := &faultWorld{
		fabric:   netsim.NewFabric(42),
		archs:    make(map[model.HostID]*Architecture),
		faults:   make(map[model.HostID]*FaultTransport),
		obsReg:   obs.NewRegistry(),
		admins:   make(map[model.HostID]*AdminComponent),
		registry: NewFactoryRegistry(),
		master:   hosts[0],
	}
	t.Cleanup(fw.fabric.Close)
	fw.registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	for _, h := range hosts {
		if err := fw.fabric.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			if err := fw.fabric.Connect(a, b, netsim.LinkState{Reliability: 1, BandwidthKB: 10_000}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg.Deployer = fw.master
	cfg.Bus = "bus"
	cfg.Registry = fw.registry
	for i, h := range hosts {
		arch := NewArchitecture(h, nil)
		tr, err := NewNetsimTransport(fw.fabric, h)
		if err != nil {
			t.Fatal(err)
		}
		fc := fcs[h]
		fc.Seed += int64(i + 1) // distinct deterministic stream per host
		fc.Obs = fw.obsReg
		ft := NewFaultTransport(tr, fc)
		if _, err := arch.AddDistributionConnector("bus", ft); err != nil {
			t.Fatal(err)
		}
		admin, err := InstallAdmin(arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fw.archs[h] = arch
		fw.faults[h] = ft
		fw.admins[h] = admin
	}
	dep, err := InstallDeployer(fw.archs[fw.master], cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw.deployer = dep
	t.Cleanup(func() {
		for _, a := range fw.admins {
			a.Close()
		}
	})
	return fw
}

func (fw *faultWorld) addCounter(t *testing.T, host model.HostID, id string, count int) {
	t.Helper()
	c := newCounter(id)
	c.Count = count
	if err := fw.archs[host].AddComponent(c); err != nil {
		t.Fatal(err)
	}
	if err := fw.archs[host].Weld(id, "bus"); err != nil {
		t.Fatal(err)
	}
}

// placement returns the hosts (possibly several, if a wave duplicated a
// component) currently holding each listed component.
func (fw *faultWorld) placement(comps ...string) map[string][]model.HostID {
	out := make(map[string][]model.HostID, len(comps))
	for _, id := range comps {
		for h, arch := range fw.archs {
			if arch.Component(id) != nil {
				out[id] = append(out[id], h)
			}
		}
	}
	return out
}

func (fw *faultWorld) epochsOutstanding() int {
	return len(openRecords[*shellWave](fw.deployer))
}

// wave20 is the acceptance scenario: four hosts, four migrating
// components, 20% silent frame loss plus 10% duplicate delivery on every
// transport, and a transient partition between the coordinator and one
// destination.
func wave20(t *testing.T, cfg AdminConfig) (*faultWorld, map[string]model.HostID, map[string]model.HostID) {
	t.Helper()
	fc := FaultConfig{Seed: 20040628, DropRate: 0.20, DupRate: 0.10}
	fcs := map[model.HostID]FaultConfig{"m": fc, "s1": fc, "s2": fc, "s3": fc}
	fw := newFaultWorld(t, cfg, fcs, "m", "s1", "s2", "s3")
	fw.addCounter(t, "s1", "c1", 11)
	fw.addCounter(t, "s2", "c2", 22)
	fw.addCounter(t, "s3", "c3", 33)
	fw.addCounter(t, "s1", "c4", 44)
	moves := map[string]model.HostID{"c1": "s2", "c2": "s3", "c3": "s1", "c4": "s3"}
	current := map[string]model.HostID{"c1": "s1", "c2": "s2", "c3": "s3", "c4": "s1"}
	return fw, moves, current
}

func (fw *faultWorld) partitionPair(a, b model.HostID, on bool) {
	fw.faults[a].Partition(b, on)
	fw.faults[b].Partition(a, on)
}

func TestWaveCompletesUnder20PctLossAndPartition(t *testing.T) {
	fw, moves, current := wave20(t, fastRetryCfg())
	// Transient partition between the coordinator and one destination,
	// healing mid-wave.
	fw.partitionPair("m", "s2", true)
	heal := time.AfterFunc(250*time.Millisecond, func() { fw.partitionPair("m", "s2", false) })
	defer heal.Stop()

	res, err := fw.deployer.Enact(moves, current, 15*time.Second)
	if err != nil {
		t.Fatalf("wave failed despite re-dispatch: %v", err)
	}
	if !res.Committed || res.Degraded {
		t.Fatalf("result = %+v, want committed and not degraded", res)
	}
	if res.Received != res.Moved || res.Moved != 4 {
		t.Fatalf("moved %d received %d, want 4/4", res.Moved, res.Received)
	}
	// Every component must live exactly once, at its destination.
	for comp, hosts := range fw.placement("c1", "c2", "c3", "c4") {
		if len(hosts) != 1 || hosts[0] != moves[comp] {
			t.Fatalf("%s at %v, want exactly [%s]", comp, hosts, moves[comp])
		}
	}
	// State survived the move.
	for comp, want := range map[string]int{"c1": 11, "c2": 22, "c3": 33, "c4": 44} {
		c := fw.archs[moves[comp]].Component(comp).(*counterComponent)
		if got := c.value(); got != want {
			t.Fatalf("%s count = %d after migration, want %d", comp, got, want)
		}
	}
	if fw.epochsOutstanding() != 0 {
		t.Fatal("deployer leaked epoch state")
	}
	dropped := 0
	snap := fw.obsReg.Snapshot()
	for h := range fw.faults {
		v, _ := snap.Value(obs.Name("prism_fault_dropped_total", "host", string(h)))
		dropped += int(v)
	}
	if dropped == 0 {
		t.Fatal("fault injector never fired; the test proved nothing")
	}
	t.Logf("wave committed 4/4 moves with %d control frames dropped", dropped)
}

func TestWaveRollbackReattachesSource(t *testing.T) {
	// s1's outbound frames all vanish: the fetch arrives (inbound is
	// clean) but the transfer never leaves, so the wave must time out and
	// the rollback must reattach c1 at s1 — prepared, not stranded.
	cfg := fastRetryCfg()
	fcs := map[model.HostID]FaultConfig{"s1": {DropRate: 1}}
	fw := newFaultWorld(t, cfg, fcs, "m", "s1", "s2")
	fw.addCounter(t, "s1", "c1", 5)

	res, err := fw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		800*time.Millisecond,
	)
	if err == nil {
		t.Fatal("wave succeeded though every transfer was dropped")
	}
	if res.Committed {
		t.Fatalf("result = %+v, want rolled back", res)
	}
	// The abort reaches s1 (inbound works) and reattaches the prepared
	// component with its state intact.
	waitFor(t, func() bool { return fw.archs["s1"].Component("c1") != nil })
	c := fw.archs["s1"].Component("c1").(*counterComponent)
	if got := c.value(); got != 5 {
		t.Fatalf("rolled-back component count = %d, want 5", got)
	}
	if fw.archs["s2"].Component("c1") != nil {
		t.Fatal("destination kept an uncommitted arrival after rollback")
	}
	if fw.epochsOutstanding() != 0 {
		t.Fatal("deployer leaked epoch state after rollback")
	}
	// The reattached component is live: traffic routed to it is handled,
	// not buffered forever in a stale hold.
	fw.archs["s1"].Connector("bus").Route(Event{Name: "ping", Sender: "ext", Target: "c1"})
	waitFor(t, func() bool { return c.value() == 6 })
}

func TestEnactTimesOutCleanlyUnderPermanentPartition(t *testing.T) {
	// A destination that never becomes reachable: Enact must return an
	// error within its deadline (plus the ack budget), neither hanging
	// nor leaking epoch state — the deployer half of the lifecycle
	// satellite.
	cfg := fastRetryCfg()
	cfg.OutcomeAckTimeout = 300 * time.Millisecond
	fw := newFaultWorld(t, cfg, nil, "m", "s1", "s2")
	fw.addCounter(t, "s1", "c1", 1)
	fw.partitionPair("m", "s2", true)
	fw.partitionPair("s1", "s2", true)

	start := time.Now()
	res, err := fw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		700*time.Millisecond,
	)
	if err == nil {
		t.Fatal("enact succeeded across a permanent partition")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("enact took %v, effectively hung", elapsed)
	}
	if len(res.Incomplete) != 1 || res.Incomplete[0] != "s2" {
		t.Fatalf("incomplete = %v, want [s2]", res.Incomplete)
	}
	if fw.epochsOutstanding() != 0 {
		t.Fatal("deployer leaked epoch state")
	}
	// The source keeps (or regains) its component.
	waitFor(t, func() bool { return fw.archs["s1"].Component("c1") != nil })
}

func TestWaveDeduplicatesDuplicatedFrames(t *testing.T) {
	// Heavy duplication, no loss: every control frame is delivered twice,
	// and the epoch/component dedup must keep the wave exactly-once.
	fc := FaultConfig{Seed: 3, DupRate: 1}
	fcs := map[model.HostID]FaultConfig{"m": fc, "s1": fc, "s2": fc}
	fw := newFaultWorld(t, fastRetryCfg(), fcs, "m", "s1", "s2")
	fw.addCounter(t, "s1", "c1", 9)

	res, err := fw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		5*time.Second,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 1 || res.Moved != 1 {
		t.Fatalf("moved %d received %d, want 1/1", res.Moved, res.Received)
	}
	if hosts := fw.placement("c1")["c1"]; len(hosts) != 1 || hosts[0] != "s2" {
		t.Fatalf("c1 at %v, want exactly [s2]", hosts)
	}
}
