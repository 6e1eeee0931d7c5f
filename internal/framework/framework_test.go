package framework

import (
	"context"
	"testing"
	"time"

	"dif/internal/algo/decap"
	"dif/internal/analyzer"
	"dif/internal/model"
	"dif/internal/objective"
	"dif/internal/obs"
	"dif/internal/prism"
)

func genSystem(t testing.TB, hosts, comps int, seed int64) (*model.System, model.Deployment) {
	t.Helper()
	cfg := model.DefaultGeneratorConfig(hosts, comps)
	// Keep links reliable enough that control traffic converges quickly.
	cfg.Reliability = model.Range{Min: 0.6, Max: 1.0}
	s, d, err := model.NewGenerator(cfg, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func newTestWorld(t *testing.T, hosts, comps int, seed int64, cfg WorldConfig) (*World, model.Deployment) {
	t.Helper()
	sys, dep := genSystem(t, hosts, comps, seed)
	cfg.Monitors = true
	w, err := NewWorld(sys, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, dep
}

// trafficCounters reads a traffic component's sent/received tallies the
// supported way: instrument into a registry and read the gauges back.
func trafficCounters(tc *TrafficComponent) (sent, recv int) {
	reg := obs.NewRegistry()
	tc.Instrument(reg)
	snap := reg.Snapshot()
	s, _ := snap.Value(obs.Name("traffic_sent_events", "component", tc.ID()))
	r, _ := snap.Value(obs.Name("traffic_received_events", "component", tc.ID()))
	return int(s), int(r)
}

func TestTrafficComponentTicks(t *testing.T) {
	tc := NewTrafficComponent("a")
	tc.AddPartner("b", 2.5, 4)
	var emitted []prism.Event
	tc.Bind(func(e prism.Event) { emitted = append(emitted, e) })
	n := tc.Tick() // 2.5 → 2 events, 0.5 carried
	if n != 2 {
		t.Fatalf("tick 1 emitted %d, want 2", n)
	}
	n = tc.Tick() // 0.5+2.5=3 events
	if n != 3 {
		t.Fatalf("tick 2 emitted %d, want 3", n)
	}
	if len(emitted) != 5 {
		t.Fatalf("total %d", len(emitted))
	}
	if emitted[0].Target != "b" || emitted[0].SizeKB != 4 {
		t.Fatalf("event = %+v", emitted[0])
	}
	sent, _ := trafficCounters(tc)
	if sent != 5 {
		t.Fatalf("sent = %d", sent)
	}
}

func TestTrafficComponentMigration(t *testing.T) {
	tc := NewTrafficComponent("a")
	tc.AddPartner("b", 1.7, 2)
	tc.Bind(func(prism.Event) {})
	tc.Tick()
	tc.Handle(prism.Event{Name: "traffic"})
	state, err := tc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tc2 := NewTrafficComponent("a")
	if err := tc2.Restore(state); err != nil {
		t.Fatal(err)
	}
	sent, recv := trafficCounters(tc2)
	if sent != 1 || recv != 1 {
		t.Fatalf("restored counters = %d/%d", sent, recv)
	}
	// Fractional accumulator must survive: next tick emits 2 (0.7+1.7).
	tc2.Bind(func(prism.Event) {})
	if n := tc2.Tick(); n != 2 {
		t.Fatalf("restored tick emitted %d, want 2", n)
	}
	if err := tc2.Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage state accepted")
	}
}

func TestTrafficComponentIgnoresControl(t *testing.T) {
	tc := NewTrafficComponent("a")
	tc.Handle(prism.Event{Kind: prism.KindControl})
	tc.Handle(prism.Event{Kind: prism.KindPing})
	if _, recv := trafficCounters(tc); recv != 0 {
		t.Fatalf("control traffic counted: %d", recv)
	}
}

func TestWorldMirrorsDeployment(t *testing.T) {
	w, dep := newTestWorld(t, 4, 10, 1, WorldConfig{})
	live := w.LiveDeployment()
	if !live.Equal(dep) {
		t.Fatalf("live %v != initial %v", live, dep)
	}
	if w.Deployer == nil {
		t.Fatal("master deployer missing")
	}
	if len(w.SlaveHosts()) != 3 {
		t.Fatalf("slaves = %v", w.SlaveHosts())
	}
}

func TestWorldStepGeneratesTraffic(t *testing.T) {
	w, _ := newTestWorld(t, 3, 8, 2, WorldConfig{})
	total := w.StepN(10)
	if total == 0 {
		t.Fatal("no traffic generated")
	}
	// Monitors on the source hosts must have observed interactions.
	seen := 0
	for _, h := range w.Hosts() {
		if mon := w.Admins[h].FrequencyMonitor(); mon != nil {
			seen += len(mon.Snapshot(false))
		}
	}
	if seen == 0 {
		t.Fatal("monitors observed nothing")
	}
}

func TestWorldRejectsInvalidDeployment(t *testing.T) {
	sys, _ := genSystem(t, 3, 6, 3)
	if _, err := NewWorld(sys, model.Deployment{}, WorldConfig{}); err == nil {
		t.Fatal("incomplete deployment accepted")
	}
}

func TestCentralizedCycleImprovesAvailability(t *testing.T) {
	w, _ := newTestWorld(t, 4, 10, 4, WorldConfig{})
	c := NewCentralized(w, analyzer.Policy{})
	w.StepN(20) // generate workload so monitors have data

	rep, err := c.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReportsGathered != 4 {
		t.Fatalf("gathered %d reports", rep.ReportsGathered)
	}
	if !rep.Decision.Accepted {
		t.Fatalf("first cycle rejected: %s", rep.Decision.Reason)
	}
	if !rep.Enacted || rep.Moves == 0 {
		t.Fatalf("cycle did not redeploy: %+v", rep)
	}
	if rep.AvailabilityAfter <= rep.AvailabilityBefore {
		t.Fatalf("availability %v → %v", rep.AvailabilityBefore, rep.AvailabilityAfter)
	}
	// The live system must match the master's new model.
	waitUntil(t, func() bool { return c.Verify(w.LiveDeployment()) == nil })
}

func TestCentralizedSecondCycleStabilizes(t *testing.T) {
	w, _ := newTestWorld(t, 4, 10, 5, WorldConfig{})
	c := NewCentralized(w, analyzer.Policy{})
	w.StepN(10)
	if _, err := c.Cycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.StepN(10)
	rep2, err := c.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// From the (near-)optimal deployment the second cycle should find no
	// worthwhile move.
	if rep2.Enacted && rep2.AvailabilityAfter < rep2.AvailabilityBefore {
		t.Fatalf("second cycle degraded: %+v", rep2)
	}
}

func TestCentralizedMonitorUpdatesModel(t *testing.T) {
	w, _ := newTestWorld(t, 3, 8, 6, WorldConfig{})
	c := NewCentralized(w, analyzer.Policy{})
	// Remove the tracker gate to apply the first reports immediately.
	c.Tracker = nil
	w.StepN(15)
	gathered, written, err := c.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	if gathered != 3 || written == 0 {
		t.Fatalf("gathered=%d written=%d", gathered, written)
	}
}

func TestDecentralizedCycle(t *testing.T) {
	w, _ := newTestWorld(t, 5, 14, 7, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, nil)
	w.StepN(10)
	rep, err := d.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Auction.Auctions == 0 {
		t.Fatal("no auctions ran")
	}
	if rep.AvailabilityAfter < rep.AvailabilityBefore-1e-9 {
		t.Fatalf("decentralized cycle degraded: %v → %v",
			rep.AvailabilityBefore, rep.AvailabilityAfter)
	}
	if rep.Enacted {
		// Live system must have converged to the new deployment.
		waitUntil(t, func() bool { return w.LiveDeployment().Equal(d.Deployment) })
	}
}

func TestDecentralizedLocalModelsRespectAwareness(t *testing.T) {
	w, _ := newTestWorld(t, 6, 12, 8, WorldConfig{DeployerPerHost: true})
	pa := decap.NewPartialAwareness(w.Sys, 0.5, 3)
	d := NewDecentralized(w, pa)
	for _, h := range w.Sys.HostIDs() {
		local := d.LocalModels[h]
		visible := map[model.HostID]bool{h: true}
		for _, nb := range pa.Neighbors(w.Sys, h) {
			visible[nb] = true
		}
		// Every world host is named, so that a deployment's placements
		// score as placements; a host this host cannot see carries no
		// parameter and no link.
		for _, id := range w.Sys.HostIDs() {
			lh, ok := local.Hosts[id]
			if !ok {
				t.Fatalf("host %s's model does not name host %s", h, id)
			}
			if got := len(lh.Params.Names()); visible[id] != (got > 0) {
				t.Fatalf("host %s knows %d parameters of host %s, visible %v", h, got, id, visible[id])
			}
		}
		for pair := range local.Links {
			if !visible[pair.A] || !visible[pair.B] {
				t.Fatalf("host %s knows invisible link %v", h, pair)
			}
		}
	}
}

func TestDecentralizedSyncPropagatesParameters(t *testing.T) {
	w, _ := newTestWorld(t, 4, 8, 9, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, decap.FullAwareness{})
	// Perturb one host's local knowledge of its own link; sync must push
	// it to the other hosts that share the link.
	hosts := w.Sys.HostIDs()
	pair := w.Sys.LinkKeys()[0]
	src := d.LocalModels[pair.A]
	src.Links[pair].Params.Set(model.ParamReliability, 0.123)
	msgs := d.SyncModels()
	if msgs == 0 {
		t.Fatal("no sync messages")
	}
	for _, h := range hosts {
		local := d.LocalModels[h]
		if l, ok := local.Links[pair]; ok {
			if l.Reliability() != 0.123 {
				t.Fatalf("host %s did not receive synced reliability: %v", h, l.Reliability())
			}
		}
	}
}

// TestDecentralizedSyncRefreshesScores: a local model scores the link
// parameters SyncModels pushed into it, in a cycle whose monitoring wrote
// nothing, although its dense view was cached before the sync.
func TestDecentralizedSyncRefreshesScores(t *testing.T) {
	w, _ := newTestWorld(t, 4, 8, 9, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, decap.FullAwareness{})
	var pair model.HostPair
	for _, k := range w.Sys.InteractionKeys() {
		ha, hb := d.Deployment[k.A], d.Deployment[k.B]
		if ha != hb && w.Sys.Link(ha, hb) != nil {
			pair = model.MakeHostPair(ha, hb)
			break
		}
	}
	if pair.A == "" {
		t.Fatal("no interaction crosses a link")
	}
	for _, local := range d.LocalModels {
		objective.Availability{}.Quantify(local, d.Deployment)
	}
	if err := model.NewModifier(d.LocalModels[pair.A]).SetLinkParam(pair.A, pair.B, model.ParamReliability, 0.123); err != nil {
		t.Fatal(err)
	}
	if n := d.MonitorLocal(); n != 0 {
		t.Fatalf("monitoring wrote %d parameters, want none", n)
	}
	d.SyncModels()
	for h, local := range d.LocalModels {
		got := objective.Availability{}.Quantify(local, d.Deployment)
		if want := (objective.Availability{}).Quantify(local.Clone(), d.Deployment); got != want {
			t.Errorf("host %s scores %v after the sync, its model's values give %v", h, got, want)
		}
	}
}

// TestDecentralizedPollAcceptsUnchangedDeployment: polled on its own
// deployment, every host's local model scores the candidate as it scores
// the current deployment, so the poll passes with every vote, every time.
func TestDecentralizedPollAcceptsUnchangedDeployment(t *testing.T) {
	w, _ := newTestWorld(t, 6, 16, 12, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, decap.NewPartialAwareness(w.Sys, 0.5, 3))
	same := d.Deployment.Clone()
	for i := 0; i < 200; i++ {
		cur := make(map[model.HostID]float64, len(d.LocalModels))
		cand := make(map[model.HostID]float64, len(d.LocalModels))
		for h, local := range d.LocalModels {
			cur[h] = objective.Availability{}.Quantify(local, d.Deployment)
			cand[h] = objective.Availability{}.Quantify(local, same)
		}
		if !analyzer.Poll(cur, cand, 1) {
			t.Fatalf("call %d: the poll rejected the unchanged deployment: current %v, candidate %v", i, cur, cand)
		}
	}
}

func TestDecentralizedQuorumBlocksEnactment(t *testing.T) {
	w, _ := newTestWorld(t, 4, 10, 10, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, nil)
	d.Quorum = 1.01 // impossible quorum: nothing may be enacted
	before := w.LiveDeployment()
	rep, err := d.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.VotePassed || rep.Enacted {
		t.Fatalf("impossible quorum passed: %+v", rep)
	}
	if !w.LiveDeployment().Equal(before) {
		t.Fatal("deployment changed despite failed vote")
	}
}

func TestCentralizedVsDecentralizedShape(t *testing.T) {
	// E9's shape: with full knowledge the centralized instantiation
	// should achieve at least the decentralized availability.
	sysC, depC := genSystem(t, 5, 12, 11)
	wc, err := NewWorld(sysC, depC, WorldConfig{Monitors: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wc.Close)
	// The 400 probes per measurement E8 and examples/adaptive run with:
	// the default's sampling error is wider than the margin asserted
	// below, whichever stretch of a link's loss stream the probes land on.
	wc.SetProbes(400)
	cent := NewCentralized(wc, analyzer.Policy{})
	cent.Tracker = nil
	wc.StepN(10)
	repC, err := cent.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sysD, depD := genSystem(t, 5, 12, 11)
	wd, err := NewWorld(sysD, depD, WorldConfig{Monitors: true, DeployerPerHost: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wd.Close)
	wd.SetProbes(400)
	decc := NewDecentralized(wd, nil)
	wd.StepN(10)
	repD, err := decc.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	centavail := objective.Availability{}.Quantify(sysC, cent.Deployment)
	decavail := objective.Availability{}.Quantify(sysD, decc.Deployment)
	if centavail < decavail-0.05 {
		t.Fatalf("centralized %v well below decentralized %v", centavail, decavail)
	}
	_ = repC
	_ = repD
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}

// pumpHeartbeats re-sends each host's heartbeat until the detector holds
// it up. A heartbeat is a single send, and a lossy link may eat it; the
// heartbeat tick is its only re-driver, which this loop stands in for.
func pumpHeartbeats(t *testing.T, w *World, fd *prism.FailureDetector, hosts []model.HostID) {
	t.Helper()
	waitUntil(t, func() bool {
		up := true
		for _, h := range hosts {
			if fd.State(h) != prism.HostUp {
				_ = w.Admins[h].SendHeartbeat()
				up = false
			}
		}
		return up
	})
}

func TestDecentralizedVoteProtocol(t *testing.T) {
	w, _ := newTestWorld(t, 4, 10, 12, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, nil)
	d.Protocol = "vote"
	w.StepN(10)
	rep, err := d.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvailabilityAfter < rep.AvailabilityBefore-1e-9 {
		t.Fatalf("vote protocol degraded availability: %v → %v",
			rep.AvailabilityBefore, rep.AvailabilityAfter)
	}
	if rep.Enacted {
		waitUntil(t, func() bool { return w.LiveDeployment().Equal(d.Deployment) })
	}
}
