package prism

import (
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
)

// newChainWorld builds hosts connected in a line: h0—h1—h2—…, with
// admins on every host and a deployer on the first.
func newChainWorld(t *testing.T, rel float64, n int) *deployWorld {
	t.Helper()
	w := &world{
		fabric: netsim.NewFabric(13),
		archs:  make(map[model.HostID]*Architecture),
		buses:  make(map[model.HostID]*DistributionConnector),
	}
	t.Cleanup(w.fabric.Close)
	hosts := make([]model.HostID, n)
	for i := range hosts {
		hosts[i] = model.HostID(rune('a'+i)) + "host"
	}
	for _, h := range hosts {
		if err := w.fabric.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := w.fabric.Connect(hosts[i-1], hosts[i],
			netsim.LinkState{Reliability: rel, BandwidthKB: 10_000}); err != nil {
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
		master:   hosts[0],
	}
	dw.registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	cfg := AdminConfig{Deployer: dw.master, Bus: "bus", Registry: dw.registry}
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
	return dw
}

func TestRelayReportsAcrossChain(t *testing.T) {
	// 4-host chain: the master can only reach chost and dhost via relays.
	dw := newChainWorld(t, 1.0, 4)
	dw.addCounter(t, "chost", "c1", 0)
	dw.addCounter(t, "dhost", "c2", 0)
	reports, err := dw.deployer.RequestReports(
		[]model.HostID{"bhost", "chost", "dhost"}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports across the chain", len(reports))
	}
	if got := reports["dhost"].Components; len(got) != 1 || got[0] != "c2" {
		t.Fatalf("dhost report = %v", got)
	}
}

func TestRelayMigrationAcrossChain(t *testing.T) {
	// Move a component between the two chain ends: fetch and transfer
	// must both be mediated and relayed.
	dw := newChainWorld(t, 1.0, 4)
	c := dw.addCounter(t, "dhost", "c1", 42)
	_ = c
	if _, err := dw.deployer.RequestReports(
		[]model.HostID{"bhost", "chost", "dhost"}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "ahost"},
		map[string]model.HostID{"c1": "dhost"},
		8*time.Second,
	)
	if err != nil {
		t.Fatalf("chain enact: %v (%+v)", err, res)
	}
	waitFor(t, func() bool { return dw.archs["ahost"].Component("c1") != nil })
	if got := dw.archs["ahost"].Component("c1").(*counterComponent).value(); got != 42 {
		t.Fatalf("state after chain migration = %d, want 42", got)
	}
	if dw.archs["dhost"].Component("c1") != nil {
		t.Fatal("component still at the far end")
	}
}

func TestRelayMigrationAcrossLossyChain(t *testing.T) {
	dw := newChainWorld(t, 0.7, 3)
	dw.addCounter(t, "chost", "c1", 7)
	if _, err := dw.deployer.RequestReports(
		[]model.HostID{"bhost", "chost"}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "ahost"},
		map[string]model.HostID{"c1": "chost"},
		15*time.Second,
	)
	if err != nil {
		t.Fatalf("lossy chain enact: %v (%+v)", err, res)
	}
	waitFor(t, func() bool { return dw.archs["ahost"].Component("c1") != nil })
}

func TestRelayDuplicateSuppression(t *testing.T) {
	rs := newRelayState()
	env := rs.next("h1", AdminID, 0)
	if !rs.markSeen(env) {
		t.Fatal("fresh envelope reported seen")
	}
	if rs.markSeen(env) {
		t.Fatal("duplicate envelope reported fresh")
	}
	env2 := rs.next("h1", AdminID, 0)
	if env2.Seq == env.Seq {
		t.Fatal("sequence numbers collide")
	}
	// Different components on the same host are different streams: the
	// deployer's envelope with the admin's sequence number is still new.
	dep := env
	dep.Sender = DeployerID
	if !rs.markSeen(dep) {
		t.Fatal("deployer envelope suppressed by the admin's stream")
	}
}

// TestRelayIDsDistinctAcrossIncarnations pins the restart-rejoin fix: a
// restarted host's relay sender counts envelopes from 1 again, so the
// envelope identity must include the lifetime number — otherwise peers
// that saw the previous lifetime's floods suppress the fresh frames as
// duplicates until the new counter outruns the old one (which silently
// eats a rejoining agent's first goal-state announces).
func TestRelayIDsDistinctAcrossIncarnations(t *testing.T) {
	old := newRelayState()
	peer := newRelayState() // a neighbour that saw the old lifetime
	for i := 0; i < 5; i++ {
		peer.markSeen(old.next("h1", AdminID, 0))
	}
	fresh := newRelayState() // the restarted lifetime, incarnation bumped
	if env := fresh.next("h1", AdminID, 1); !peer.markSeen(env) {
		t.Fatalf("restarted lifetime's first envelope %+v suppressed as a duplicate", env)
	}
	// And the sender wiring: SetIncarnation reaches the control sender.
	dw := newDeployWorld(t, 1.0, "m", "s1")
	a := dw.admins["s1"]
	a.SetIncarnation(7)
	if got := a.sender.inc.Load(); got != 7 {
		t.Fatalf("sender incarnation = %d after SetIncarnation(7)", got)
	}
}

// TestRelaySeenRecordStaysBounded pins the relay's duplicate record to
// the dedup window's shape: a stream of envelopes relayed in order
// leaves a floor and no spans, however long it runs, and replaying any
// of them is still suppressed.
func TestRelaySeenRecordStaysBounded(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	cs := dw.admins["s1"].sender
	origin := newRelayState()
	inner, err := EncodeEvent(Event{Name: "test.frame", Kind: KindControl, Target: AdminID, DstHost: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	envs := make([]RelayPayload, n)
	for i := range envs {
		envs[i] = origin.next("m", DeployerID, 3)
		envs[i].Data = inner
		if !cs.handleRelay(envs[i], "m") {
			t.Fatalf("envelope %d suppressed on first sight", i+1)
		}
	}
	cs.relay.mu.Lock()
	if len(cs.relay.seen) != 1 {
		t.Fatalf("%d streams recorded, want 1", len(cs.relay.seen))
	}
	w := cs.relay.seen[relayStream{"m", DeployerID, 3}]
	if w == nil || w.floor != n || len(w.spans) != 0 {
		t.Fatalf("seen record = %+v, want floor %d and no spans", w, n)
	}
	cs.relay.mu.Unlock()
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if cs.handleRelay(envs[i], "m") {
			t.Fatalf("replayed envelope %d consumed again", i+1)
		}
	}
}

func TestRelayTTLBoundsFloodDepth(t *testing.T) {
	// A chain longer than the TTL: the report request cannot reach the
	// far end, and the deployer reports the shortfall.
	n := DefaultRelayTTL + 3
	dw := newChainWorld(t, 1.0, n)
	far := model.HostID(rune('a'+n-1)) + "host"
	_, err := dw.deployer.RequestReports([]model.HostID{far}, 1*time.Second)
	if err == nil {
		t.Fatalf("report crossed %d hops with TTL %d", n-1, DefaultRelayTTL)
	}
}
