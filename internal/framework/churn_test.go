package framework

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dif/internal/algo"
	"dif/internal/analyzer"
	"dif/internal/model"
	"dif/internal/objective"
	"dif/internal/prism"
)

// drillClock is the injected time source for liveness decisions: the
// drill advances it explicitly, so no failure-detection step depends on
// real time.
type drillClock struct {
	mu sync.Mutex
	t  time.Time
}

func newDrillClock() *drillClock { return &drillClock{t: time.Unix(2_000_000, 0)} }

func (c *drillClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *drillClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// TestChurnDrill is the acceptance drill: kill one of four hosts mid-wave
// and watch the whole stack recover. The wave aborts cleanly, the
// recovery cycle replans onto the three survivors with the dead host's
// components restored from origin copies, the replanned availability is
// within 5% of the best three-host deployment the same algorithm finds
// offline, and the resurrected host folds back in with a bumped
// incarnation. Liveness decisions run entirely on an injected clock.
func TestChurnDrill(t *testing.T) {
	w, _ := newTestWorld(t, 4, 10, 11, WorldConfig{})
	c := NewCentralized(w, analyzer.Policy{})

	clk := newDrillClock()
	fd := prism.NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	w.Deployer.AttachDetector(fd)

	// Slaves heartbeat in; the detector sees every one of them alive.
	pumpHeartbeats(t, w, fd, w.SlaveHosts())

	// Victim: the last slave. Pick a component on a survivor and start a
	// wave moving it onto the victim, then kill the victim under it.
	slaves := w.SlaveHosts()
	victim := slaves[len(slaves)-1]
	var movingComp model.ComponentID
	for comp, h := range c.Deployment {
		if h != victim {
			movingComp = comp
			break
		}
	}
	if movingComp == "" {
		t.Fatal("no component off the victim to move")
	}

	current := make(map[string]model.HostID, len(c.Deployment))
	for comp, h := range c.Deployment {
		current[string(comp)] = h
	}
	waveErr := make(chan error, 1)
	go func() {
		_, err := w.Deployer.Enact(
			map[string]model.HostID{string(movingComp): victim},
			current, 30*time.Second)
		waveErr <- err
	}()

	// Kill the victim mid-wave. Its fabric endpoint goes dark, its
	// components die with it, and heartbeat silence (by the injected
	// clock) declares it dead — which must abort the wave immediately.
	lost := w.CrashHost(victim)
	if len(lost) == 0 {
		t.Fatalf("victim %s held no components; drill needs a lossy crash", victim)
	}
	// Survivors keep heartbeating across the silence window; only the
	// victim's lease lapses.
	now := clk.Advance(10 * time.Second)
	for _, h := range w.SlaveHosts() {
		if h != victim {
			fd.ObserveAt(h, 0, now)
		}
	}
	fd.EvaluateAt(now)
	if fd.State(victim) != prism.HostDead {
		t.Fatalf("victim state = %v, want dead", fd.State(victim))
	}

	select {
	case err := <-waveErr:
		if err == nil || !strings.Contains(err.Error(), "(wave rolled back)") {
			t.Fatalf("wave err = %v, want a rolled-back abort", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wave did not abort on the victim's death")
	}

	// Recovery: replan onto the three survivors, with the dead host's
	// components restored from origin copies.
	rep, err := c.Recover(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Decision.Accepted {
		t.Fatalf("recovery decision not accepted: %+v", rep.Decision)
	}
	if err := c.Deployment.Validate(c.Model); err != nil {
		t.Fatalf("recovered deployment incomplete: %v", err)
	}
	for comp, h := range c.Deployment {
		if h == victim {
			t.Fatalf("component %s still planned on the dead host", comp)
		}
	}
	for _, comp := range lost {
		if _, ok := c.Deployment[comp]; !ok {
			t.Fatalf("lost component %s not restored", comp)
		}
	}
	waitUntil(t, func() bool { return w.LiveDeployment().Equal(c.Deployment) })

	// The replanned availability must be within 5% of the best three-host
	// deployment the same algorithm finds offline.
	name := c.Analyzer.SelectAlgorithm(c.Model, 1.0)
	alg, err := algo.NewRegistry().New(name)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := alg.Run(context.Background(), c.Model, c.Deployment,
		algo.Config{Objective: objective.Availability{}, Trials: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := objective.Availability{}.Quantify(c.Model, c.Deployment)
	if got < 0.95*offline.Score {
		t.Fatalf("recovered availability %v below 95%% of offline best %v", got, offline.Score)
	}

	// Resurrection: the host restarts with a bumped incarnation, rejoins
	// the control plane, and the detector resurrects it on the first
	// heartbeat of the new lifetime — while a replayed frame from the
	// dead incarnation stays ignored.
	fd.ObserveAt(victim, 0, clk.Now())
	if fd.State(victim) != prism.HostDead {
		t.Fatal("stale-incarnation heartbeat resurrected the dead host")
	}
	admin, err := w.RestartHost(victim)
	if err != nil {
		t.Fatal(err)
	}
	if admin.Incarnation() != 1 {
		t.Fatalf("restarted incarnation = %d, want 1", admin.Incarnation())
	}
	if err := c.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	if c.Model.HostDown(victim) {
		t.Fatal("model still marks the rejoined host down")
	}
	pumpHeartbeats(t, w, fd, []model.HostID{victim})
	if inc := fd.Incarnation(victim); inc != 1 {
		t.Fatalf("rejoined host's incarnation = %d, want 1", inc)
	}

	// The rejoined host is eligible again: the next estimation round may
	// place components on it (its allowed-host sets include it again).
	if hosts := c.Model.UpHostIDs(); len(hosts) != 4 {
		t.Fatalf("up hosts after rejoin = %v, want all 4", hosts)
	}
	if _, err := c.Cycle(context.Background()); err != nil {
		t.Fatalf("post-rejoin cycle: %v", err)
	}
	if err := c.Verify(w.LiveDeployment()); err != nil {
		t.Fatal(err)
	}
}

// TestWorldCloseDuringWave is the shutdown-ordering regression test:
// closing the world while a wave is stuck mid-flight must not deadlock on
// the wave.
func TestWorldCloseDuringWave(t *testing.T) {
	w, dep := newTestWorld(t, 3, 8, 5, WorldConfig{})
	slaves := w.SlaveHosts()
	dark := slaves[len(slaves)-1]
	// The destination goes dark at the fabric level only — the wave keeps
	// retrying it until Close aborts the epoch.
	w.Fabric.Crash(dark)

	var movingComp model.ComponentID
	for comp, h := range dep {
		if h != dark {
			movingComp = comp
			break
		}
	}
	current := make(map[string]model.HostID, len(dep))
	for comp, h := range dep {
		current[string(comp)] = h
	}
	waveErr := make(chan error, 1)
	go func() {
		_, err := w.Deployer.Enact(
			map[string]model.HostID{string(movingComp): dark},
			current, 30*time.Second)
		waveErr <- err
	}()
	waitUntil(t, func() bool { return true }) // yield once; the wave registers fast

	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("World.Close deadlocked on an in-flight wave")
	}
	select {
	case err := <-waveErr:
		if err == nil {
			t.Fatal("stuck wave reported success after shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wave never returned after World.Close")
	}
}

// TestDecentralizedAuctioneerPartitionTimesOut pins the election
// behavior: when the would-be auctioneer is partitioned from every
// survivor mid-round, its round deterministically times out (the probe
// budget drains — no wall-clock timer) and the survivors re-elect the
// next candidate instead of hanging.
func TestDecentralizedAuctioneerPartitionTimesOut(t *testing.T) {
	w, _ := newTestWorld(t, 4, 10, 9, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, nil)
	hosts := w.Sys.HostIDs()
	auctioneer := hosts[0] // rotation starts here: the first candidate

	for _, h := range hosts[1:] {
		if err := w.Fabric.SetPartitioned(auctioneer, h, true); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Deployment.Clone()

	done := make(chan error, 1)
	go func() {
		_, err := d.Cycle(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("cycle hung on the partitioned auctioneer")
	}

	if d.RoundTimeouts != 1 {
		t.Fatalf("RoundTimeouts = %d, want 1", d.RoundTimeouts)
	}
	if !d.Excluded[auctioneer] {
		t.Fatal("partitioned auctioneer not excluded")
	}
	if d.Coordinator != hosts[1] {
		t.Fatalf("coordinator = %s, want the next candidate %s", d.Coordinator, hosts[1])
	}
	// Nothing migrated onto the unreachable host.
	for comp, h := range d.Deployment {
		if h == auctioneer && before[comp] != auctioneer {
			t.Fatalf("component %s moved onto the partitioned host", comp)
		}
	}
}

// TestDecentralizedSurvivesAuctioneerDeath kills the would-be auctioneer
// outright and drives the decentralized recovery path: the survivors
// elect a new coordinator, restore the dead host's components from
// origin copies, replan among themselves, and later fold the restarted
// host back in. CI runs this under the race detector.
func TestDecentralizedSurvivesAuctioneerDeath(t *testing.T) {
	w, _ := newTestWorld(t, 4, 10, 13, WorldConfig{DeployerPerHost: true})
	d := NewDecentralized(w, nil)
	hosts := w.Sys.HostIDs()
	victim := hosts[0]

	lost := w.CrashHost(victim)
	rep, err := d.Recover(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.VotePassed {
		t.Fatal("recovery must bypass the acceptance vote")
	}
	if d.Coordinator == victim || d.Coordinator == "" {
		t.Fatalf("coordinator = %q after the victim's death", d.Coordinator)
	}
	if err := d.Deployment.Validate(w.Sys); err != nil {
		t.Fatalf("recovered deployment incomplete: %v", err)
	}
	for comp, h := range d.Deployment {
		if h == victim {
			t.Fatalf("component %s still on the dead host", comp)
		}
	}
	for _, comp := range lost {
		if _, ok := d.Deployment[comp]; !ok {
			t.Fatalf("lost component %s not restored", comp)
		}
	}
	waitUntil(t, func() bool { return w.LiveDeployment().Equal(d.Deployment) })

	// Rejoin and run a normal round with all four hosts again.
	if _, err := w.RestartHost(victim); err != nil {
		t.Fatal(err)
	}
	if w.Incarnation(victim) != 1 {
		t.Fatalf("incarnation = %d, want 1", w.Incarnation(victim))
	}
	if err := d.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Cycle(context.Background()); err != nil {
		t.Fatalf("post-rejoin cycle: %v", err)
	}
}
