package prism

import (
	"math"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
)

// world is a multi-host prism test fixture over netsim.
type world struct {
	fabric *netsim.Fabric
	archs  map[model.HostID]*Architecture
	buses  map[model.HostID]*DistributionConnector
}

// newWorld builds hosts with a full mesh at the given reliability, one
// architecture per host, and a "bus" distribution connector each.
func newWorld(t *testing.T, rel float64, hosts ...model.HostID) *world {
	t.Helper()
	return newWrappedWorld(t, rel, nil, hosts...)
}

// newWrappedWorld is newWorld with each host's netsim transport passed
// through wrap before the bus sees it (nil wraps nothing).
func newWrappedWorld(t *testing.T, rel float64, wrap func(model.HostID, Transport) Transport, hosts ...model.HostID) *world {
	t.Helper()
	w := &world{
		fabric: netsim.NewFabric(42),
		archs:  make(map[model.HostID]*Architecture),
		buses:  make(map[model.HostID]*DistributionConnector),
	}
	t.Cleanup(w.fabric.Close)
	for _, h := range hosts {
		if err := w.fabric.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			if err := w.fabric.Connect(a, b, netsim.LinkState{Reliability: rel, BandwidthKB: 10_000}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, h := range hosts {
		arch := NewArchitecture(h, nil)
		var tr Transport
		tr, err := NewNetsimTransport(w.fabric, h)
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			tr = wrap(h, tr)
		}
		bus, err := arch.AddDistributionConnector("bus", tr)
		if err != nil {
			t.Fatal(err)
		}
		w.archs[h] = arch
		w.buses[h] = bus
	}
	return w
}

func (w *world) addEcho(t *testing.T, host model.HostID, id string) *echoComponent {
	t.Helper()
	c := newEcho(id)
	if err := w.archs[host].AddComponent(c); err != nil {
		t.Fatal(err)
	}
	if err := w.archs[host].Weld(id, "bus"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDistributionConnectorCrossHost(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	a.Emit(Event{Name: "hello", Target: "b"})
	waitFor(t, func() bool { return b.count.Load() == 1 })
	evs := b.events()
	if evs[0].SrcHost != "h1" {
		t.Fatalf("SrcHost not stamped: %+v", evs[0])
	}
	// No echo back to the sender.
	if a.count.Load() != 0 {
		t.Fatal("sender received its own remote event")
	}
}

func TestDistributionConnectorBroadcast(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2", "h3")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	c := w.addEcho(t, "h3", "c")
	a.Emit(Event{Name: "ping-all"})
	waitFor(t, func() bool { return b.count.Load() == 1 && c.count.Load() == 1 })
	if a.count.Load() != 0 {
		t.Fatal("broadcast echoed to sender")
	}
}

func TestDistributionConnectorDstHostAddressing(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2", "h3")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	c := w.addEcho(t, "h3", "c")
	_ = a
	// Same component ID exists on h2 and h3 in spirit; address by host.
	w.archs["h1"].Component("a").(*echoComponent).
		Emit(Event{Name: "direct", Target: "b", DstHost: "h2"})
	waitFor(t, func() bool { return b.count.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	if c.count.Load() != 0 {
		t.Fatal("host-addressed event leaked to other hosts")
	}
}

func TestRemoteEventsNotReforwarded(t *testing.T) {
	// Three hosts, full mesh: h1 broadcasts; h2 must not re-forward the
	// event to h3 (which already got its copy from h1).
	w := newWorld(t, 1.0, "h1", "h2", "h3")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	c := w.addEcho(t, "h3", "c")
	_ = b
	a.Emit(Event{Name: "x"})
	waitFor(t, func() bool { return c.count.Load() >= 1 })
	time.Sleep(30 * time.Millisecond)
	if got := c.count.Load(); got != 1 {
		t.Fatalf("c received %d copies, want exactly 1", got)
	}
}

func TestPingReliabilityEstimate(t *testing.T) {
	w := newWorld(t, 0.6, "h1", "h2")
	bus := w.buses["h1"]
	ratio := bus.PingN("h2", 2000)
	if math.Abs(ratio-0.6) > 0.05 {
		t.Fatalf("ping ratio = %v, want ≈0.6", ratio)
	}
	rels := bus.Reliabilities()
	if r, ok := rels["h2"]; !ok || math.Abs(r-0.6) > 0.05 {
		t.Fatalf("Reliabilities = %v", rels)
	}
	st := bus.PeerStats("h2")
	if st.Sent != 2000 {
		t.Fatalf("sent = %d", st.Sent)
	}
	bus.ResetPeerStats()
	if st := bus.PeerStats("h2"); st.Sent != 0 {
		t.Fatal("stats not reset")
	}
}

func TestNetworkReliabilityMonitor(t *testing.T) {
	w := newWorld(t, 0.5, "h1", "h2", "h3")
	m := NewNetworkReliabilityMonitor(w.buses["h1"])
	m.ProbesPerMeasurement = 400
	samples := m.MeasureOnce()
	if len(samples) != 2 {
		t.Fatalf("probed %d peers, want 2", len(samples))
	}
	for _, s := range samples {
		if s.Probes != 400 {
			t.Fatalf("sample probes = %d", s.Probes)
		}
		if math.Abs(s.Reliability-0.5) > 0.08 {
			t.Fatalf("peer %s reliability %v, want ≈0.5", s.Peer, s.Reliability)
		}
	}
	if _, ok := m.Last("h2"); !ok {
		t.Fatal("Last(h2) missing")
	}
	if _, ok := m.Last("ghost"); ok {
		t.Fatal("Last(ghost) present")
	}
}

func TestPeerStatsReliability(t *testing.T) {
	if r := (PeerStats{}).Reliability(); r != 1 {
		t.Fatalf("unprobed reliability = %v, want 1", r)
	}
	if r := (PeerStats{Sent: 4, Delivered: 1}).Reliability(); r != 0.25 {
		t.Fatalf("reliability = %v, want 0.25", r)
	}
}

func TestNetsimTransportPeers(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2", "h3")
	peers := w.buses["h1"].Peers()
	if len(peers) != 2 || peers[0] != "h2" || peers[1] != "h3" {
		t.Fatalf("peers = %v", peers)
	}
	// Disconnect one link: peer set shrinks.
	w.fabric.Disconnect("h1", "h3")
	peers = w.buses["h1"].Peers()
	if len(peers) != 1 || peers[0] != "h2" {
		t.Fatalf("peers after disconnect = %v", peers)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}
