package framework

import (
	"strings"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// goalDrillWorld builds a world on perfectly reliable links (the drills
// below count frames, so the only permitted loss is what a drill
// injects) with a metric registry attached.
func goalDrillWorld(t *testing.T, seed int64) (*World, model.Deployment, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	gen := model.DefaultGeneratorConfig(3, 6)
	gen.Reliability = model.Range{Min: 1.0, Max: 1.0}
	sys, dep0, err := model.NewGenerator(gen, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(sys, dep0, WorldConfig{Monitors: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, dep0, reg
}

// nonControlComponents lists a host's application components, sorted —
// the byte-for-byte witness compared against the deployer's goal
// manifest.
func nonControlComponents(w *World, h model.HostID) []string {
	var out []string
	for _, id := range w.Archs[h].ComponentIDs() {
		if id == prism.AdminID || id == prism.DeployerID {
			continue
		}
		out = append(out, id)
	}
	// Architecture.ComponentIDs returns sorted IDs, but the invariant
	// must not silently depend on that.
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			panic("component IDs not sorted")
		}
	}
	return out
}

// TestAgentRestartResyncSingleDelta is the level-triggered
// reconciliation acceptance drill: an agent whose lifetime spanned N
// waves is crashed (losing everything) and restarted empty. One
// announce/delta exchange — not N wave replays — must re-acquire its
// entire goal manifest.
func TestAgentRestartResyncSingleDelta(t *testing.T) {
	w, dep0, reg := goalDrillWorld(t, 29)
	victim := w.SlaveHosts()[0]

	current := make(map[string]model.HostID, len(dep0))
	for c, h := range dep0 {
		current[string(c)] = h
	}
	// Land two components on the victim across two separate waves, so
	// converging by replay would take more than one exchange.
	moved := 0
	for c, h := range current {
		if h == victim || moved == 2 {
			continue
		}
		res, err := w.Deployer.Enact(map[string]model.HostID{c: victim}, current, 10*time.Second)
		if err != nil || !res.Committed {
			t.Fatalf("setup wave for %s = %+v err=%v", c, res, err)
		}
		current[c] = victim
		moved++
	}
	if moved != 2 {
		t.Fatalf("setup moved %d components, want 2", moved)
	}
	genBefore := w.Deployer.GoalGeneration(victim)
	if genBefore < 3 { // seeded at 1, bumped by each wave
		t.Fatalf("victim goal generation = %d, want >= 3", genBefore)
	}
	want := w.Deployer.GoalManifest(victim)
	if len(want) == 0 {
		t.Fatal("victim goal manifest empty; drill proves nothing")
	}

	// Crash and restart: the new lifetime has nothing and knows nothing.
	w.CrashHost(victim)
	admin, err := w.RestartHost(victim)
	if err != nil {
		t.Fatal(err)
	}
	applied := func() int {
		v, _ := reg.Snapshot().Value(obs.Name("prism_goal_delta_applied_total", "host", string(victim)))
		return int(v)
	}
	appliedBefore := applied()

	if err := admin.AnnounceGoalState(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		gen := w.Deployer.GoalGeneration(victim)
		return gen == genBefore && w.Deployer.GoalAcked(victim) == gen &&
			admin.GoalGeneration() == gen
	})

	// Byte-for-byte convergence to the goal manifest.
	if got := nonControlComponents(w, victim); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("resynced manifest = %v, want %v", got, want)
	}
	// ONE delta did it — no replay, no per-wave catch-up.
	if got := applied() - appliedBefore; got != 1 {
		t.Fatalf("restart resync applied %d deltas, want exactly 1", got)
	}
	// The restarted lifetime reconstitutes through the goal stream, so
	// the resync must not mark any mismatch.
	if v, ok := reg.Snapshot().Value(obs.Name("prism_goal_resync_mismatch_total", "host", string(w.Master))); ok && v != 0 {
		t.Fatalf("resync mismatch counter = %v, want 0", v)
	}
}

// TestGoalStateSurvivesLeaderFailover pins the durability half of the
// goal-state design: generations replicate to the standby through the
// same checkpoint stream as the wave records, a promoted standby serves
// exactly the generations the old leader reached, and a restarted agent
// converges against the NEW leader via one announce/delta exchange.
func TestGoalStateSurvivesLeaderFailover(t *testing.T) {
	reg := obs.NewRegistry()
	clk := newDrillClock()
	gen := model.DefaultGeneratorConfig(3, 6)
	gen.Reliability = model.Range{Min: 1.0, Max: 1.0}
	sys, dep0, err := model.NewGenerator(gen, 31).Generate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(sys, dep0, WorldConfig{
		Monitors: true,
		Obs:      reg,
		Tune: func(ac *prism.AdminConfig) {
			ac.Clock, ac.EnactResendInterval = clk.Now, 20*time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	standby := w.SlaveHosts()[0]
	agentHost := w.SlaveHosts()[1]
	const ttl = 2 * time.Second
	ha, err := w.EnableHA(HAConfig{
		Standbys: []model.HostID{standby},
		StateDirs: map[model.HostID]string{
			w.Master: t.TempDir(),
			standby:  t.TempDir(),
		},
		Lease: prism.LeaderConfig{
			LeaseTTL: ttl,
			Clock:    clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ha.Close)
	leadB := ha.Leads[standby]
	if won, err := ha.Leads[w.Master].Campaign(); err != nil || !won {
		t.Fatalf("initial campaign: won=%v err=%v", won, err)
	}
	waitUntil(t, func() bool { return leadB.Term() == 1 })

	// One committed wave bumps generations past the seed.
	current := make(map[string]model.HostID, len(dep0))
	var comp string
	for c, h := range dep0 {
		current[string(c)] = h
		if h == agentHost {
			comp = string(c)
		}
	}
	if comp == "" {
		t.Fatal("no component on the agent host")
	}
	res, err := w.Deployer.Enact(map[string]model.HostID{comp: standby}, current, 10*time.Second)
	if err != nil || !res.Committed {
		t.Fatalf("wave = %+v err=%v", res, err)
	}

	// The goal checkpoints ride the replication stream; the close record
	// of the wave flushes them, so the standby's store catches up without
	// any extra traffic.
	gens := make(map[model.HostID]uint64, len(w.Hosts()))
	for _, h := range w.Hosts() {
		gens[h] = ha.Deps[w.Master].GoalGeneration(h)
	}
	waitUntil(t, func() bool {
		mirror := ha.Stores[standby].GoalGenerations()
		for h, g := range gens {
			if g > 0 && mirror[h] != g {
				return false
			}
		}
		return true
	})

	// Every batch the wave's appends flushed is applied and acked, so none
	// lands after the clock jump below and refreshes the standby's watch.
	waitUntil(t, func() bool { return ha.Leads[w.Master].Synced(standby) })

	// The leader falls silent (no more renewals); the standby's watch
	// fires on the injected clock and it takes over at term 2.
	now := clk.Advance(5 * ttl)
	if !leadB.LeaderSuspect(now) {
		t.Fatalf("standby does not suspect the silent leader after %v", 5*ttl)
	}
	if _, won, err := leadB.Failover(); err != nil || !won {
		t.Fatalf("failover: won=%v err=%v", won, err)
	}
	if leadB.Term() != 2 {
		t.Fatalf("failover term = %d, want 2", leadB.Term())
	}

	// The promoted leader serves the stream's generations — not zero,
	// not the attach-time snapshot.
	for _, h := range w.Hosts() {
		if got := ha.Deps[standby].GoalGeneration(h); got != gens[h] {
			t.Fatalf("promoted leader generation for %s = %d, want %d", h, got, gens[h])
		}
	}

	// An agent restarted AFTER the failover converges against the new
	// leader: the renewal pump hands its fresh lifetime the lease (so it
	// announces to the standby), and one exchange re-acquires its goal
	// manifest.
	w.CrashHost(agentHost)
	admin, err := w.RestartHost(agentHost)
	if err != nil {
		t.Fatal(err)
	}
	wantGen := gens[agentHost]
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		leadB.Renew()
		_ = admin.AnnounceGoalState()
		if ha.Deps[standby].GoalAcked(agentHost) == wantGen && admin.GoalGeneration() == wantGen {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := ha.Deps[standby].GoalAcked(agentHost); got != wantGen {
		t.Fatalf("post-failover resync acked %d, want %d", got, wantGen)
	}
	want := ha.Deps[standby].GoalManifest(agentHost)
	if got := nonControlComponents(w, agentHost); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("post-failover manifest = %v, want %v", got, want)
	}
}
