package framework

import (
	"strings"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// TestLeaderFailoverResumesDecidedWave is the high-availability
// acceptance drill. A two-deployer cluster runs a wave; the instant the
// commit decision is durable on the leader — and therefore already
// offered to the standby, since replication flushes before any append
// hook fires — the leader is partitioned from the entire world. The
// standby's leader watch fires on the injected clock, it campaigns at
// term 2, wins the agent quorum, and resumes the decided wave to commit
// under its ORIGINAL epoch number. When the partition heals, a late
// term-1 outcome from the old leader is fenced by every agent, and the
// fencing feedback deposes it.
func TestLeaderFailoverResumesDecidedWave(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	clk := newDrillClock()
	tracer.SetClock(clk.Now)
	// Pin link reliability to 1.0: the only loss in this drill is the
	// injected partition, so the single replication flush that must carry
	// the decided record to the standby cannot be silently eaten.
	gen := model.DefaultGeneratorConfig(3, 6)
	gen.Reliability = model.Range{Min: 1.0, Max: 1.0}
	sys, dep0, err := model.NewGenerator(gen, 23).Generate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(sys, dep0, WorldConfig{
		Monitors: true,
		Fault:    &prism.FaultConfig{},
		Obs:      reg,
		Trace:    tracer,
		Tune: func(ac *prism.AdminConfig) {
			ac.Clock, ac.EnactResendInterval = clk.Now, 20*time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	hosts := w.Hosts()
	standby := w.SlaveHosts()[0]
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
	leadA, leadB := ha.Leads[w.Master], ha.Leads[standby]

	if won, err := leadA.Campaign(); err != nil || !won {
		t.Fatalf("initial campaign: won=%v err=%v", won, err)
	}
	// Converge the standby on the (empty) term-1 stream so its leader
	// watch is armed before the wave.
	waitUntil(t, func() bool { return leadB.Term() == 1 })

	// Pick a mover that lives on neither deployer host, bound for the
	// third host, so the doomed leader is a pure coordinator.
	var comp model.ComponentID
	var src, dst model.HostID
	for _, c := range w.Sys.ComponentIDs() {
		if h := dep0[c]; h != w.Master && h != standby {
			comp, src = c, h
			break
		}
	}
	if comp == "" {
		for _, c := range w.Sys.ComponentIDs() {
			comp, src = c, dep0[c]
			break
		}
	}
	// Send it anywhere but the doomed leader: the survivors must be able
	// to finish the resumed wave while the old leader is partitioned.
	for _, h := range hosts {
		if h != src && h != w.Master {
			dst = h
			break
		}
	}
	current := make(map[string]model.HostID, len(dep0))
	for c, h := range dep0 {
		current[string(c)] = h
	}

	// Arm the partition: the instant the commit decision is durable, the
	// leader's own NIC is cut off from every other host — its transport
	// blocks both new sends and new inbound frames, while frames it
	// already handed to the network (the replication flush carrying the
	// decided record, which runs strictly before this hook) still
	// deliver. The leader process stays alive — the point is that its
	// late outcome broadcasts at term 1 must bounce off the fence, not
	// that it dies.
	ha.Stores[w.Master].ObserveAppend(prism.RecEpochDecided, func() {
		for _, h := range hosts {
			if h != w.Master {
				w.Faults[w.Master].Partition(h, true)
			}
		}
	})
	waveErr := make(chan error, 1)
	go func() {
		_, err := w.Deployer.Enact(
			map[string]model.HostID{string(comp): dst}, current, 20*time.Second)
		waveErr <- err
	}()

	// The decided record reached the standby's WAL before the partition
	// closed (flush-before-hook ordering).
	waitUntil(t, func() bool {
		for _, wv := range ha.Stores[standby].OpenWaves() {
			if wv.Epoch == 1 && wv.Decided && wv.Commit {
				return true
			}
		}
		return false
	})

	// The leader falls silent; the standby's watch crosses the detector
	// bound on the injected clock and the standby takes over.
	now := clk.Advance(5 * ttl)
	if !leadB.LeaderSuspect(now) {
		t.Fatalf("standby does not suspect the silent leader after %v", 5*ttl)
	}
	waves, won, err := leadB.Failover()
	if err != nil || !won {
		t.Fatalf("failover: won=%v err=%v", won, err)
	}
	if leadB.Term() != 2 {
		t.Fatalf("failover term = %d, want 2", leadB.Term())
	}
	if len(waves) != 1 || waves[0].Epoch != 1 || !waves[0].Resumed || !waves[0].Committed {
		t.Fatalf("resumed waves = %+v, want epoch 1 resumed commit", waves)
	}

	// The resumed commit finishes the move: active exactly once, at the
	// destination (the old leader is partitioned; the survivors suffice).
	waitUntil(t, func() bool {
		live := w.LiveDeployment()
		return live[comp] == dst && w.Archs[src].Component(string(comp)) == nil
	})

	// Heal the partition, and deliver the old leader's term-1 outcome to
	// every agent that saw the campaign: each one fences it, and the
	// feedback deposes the old leader. (Its own Enact may also re-send the
	// outcome on a re-broadcast tick, or learn term 2 from the new
	// leader's replication stream first; the frame is sent here so the
	// fence is exercised either way.)
	for _, h := range hosts {
		if h != w.Master {
			w.Faults[w.Master].Partition(h, false)
		}
	}
	for _, h := range hosts {
		if h == w.Master {
			continue
		}
		stale, err := prism.EncodeEvent(prism.Event{
			Name: prism.EvOutcome, Kind: prism.KindControl, Sender: prism.DeployerID,
			Target: prism.AdminID, SrcHost: w.Master, DstHost: h, SizeKB: 0.3,
			Payload: prism.WaveOutcome{Epoch: 1, Coordinator: w.Master, Commit: true, Term: 1, ReplyTo: w.Master},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Faults[w.Master].Send(h, stale, 0.3); err != nil {
			t.Fatalf("stale outcome to %s: %v", h, err)
		}
	}
	waitUntil(t, func() bool { return !leadA.IsLeader() && leadA.Term() == 2 })
	for _, h := range hosts {
		if h == w.Master {
			continue
		}
		waitUntil(t, func() bool {
			v, _ := reg.Snapshot().Value(obs.Name("prism_fenced_frames_total", "host", string(h)))
			return v >= 1
		})
	}
	select {
	case <-waveErr: // decided-then-fenced: either outcome shape is fine
	case <-time.After(10 * time.Second):
		t.Fatal("old leader's Enact never returned")
	}
	// A lease renewal sweeps the healed master's agent up to term 2: its
	// admin missed the campaign behind the partition, and the resumed
	// wave never touched it.
	leadB.Renew()
	waitUntil(t, func() bool { return w.Admins[w.Master].FenceTerm() == 2 })
	for _, h := range hosts {
		if got := w.Admins[h].FenceTerm(); got != 2 {
			t.Fatalf("agent %s fence = %d, want 2", h, got)
		}
		grants := w.Admins[h].LeaseGrants()
		if grants[1] != w.Master || grants[2] != standby {
			t.Fatalf("agent %s grant log = %v", h, grants)
		}
	}

	// The deposed leader refuses new waves; the new leader numbers its
	// next wave past the resumed epoch — never reusing, never renumbering.
	if _, err := ha.Deps[w.Master].Enact(nil, nil, time.Second); err != prism.ErrNotLeader {
		t.Fatalf("deposed Enact err = %v, want ErrNotLeader", err)
	}
	current[string(comp)] = dst
	res, err := ha.Deps[standby].Enact(
		map[string]model.HostID{string(comp): src}, current, 10*time.Second)
	if err != nil || !res.Committed || res.Epoch != 2 {
		t.Fatalf("post-failover wave = %+v err=%v, want committed epoch 2", res, err)
	}

	// The failover leaves its span subtree: failover → campaign + resume.
	render := tracer.Render()
	for _, want := range []string{"failover", "campaign", "resume"} {
		if !strings.Contains(render, want) {
			t.Fatalf("span forest missing %q:\n%s", want, render)
		}
	}
}

// TestLeaderCrashFailoverDoesNotRetryIntoCorpse pins the cost of a
// crashed leader: from Failover() to the first committed wave the new
// leader addresses the corpse once per re-drive round — one lease
// request, one replication batch per flush — and never re-sends a frame
// into it. A second standby receives exactly those rounds too, so the
// fabric's send counters toward it bound the corpse's.
func TestLeaderCrashFailoverDoesNotRetryIntoCorpse(t *testing.T) {
	reg := obs.NewRegistry()
	clk := newDrillClock()
	gen := model.DefaultGeneratorConfig(5, 10)
	gen.Reliability = model.Range{Min: 1.0, Max: 1.0}
	gen.LinkDensity = 1
	sys, dep0, err := model.NewGenerator(gen, 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(sys, dep0, WorldConfig{
		Monitors: true,
		Fault:    &prism.FaultConfig{},
		Obs:      reg,
		Tune: func(ac *prism.AdminConfig) {
			ac.Clock, ac.EnactResendInterval = clk.Now, time.Hour
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	slaves := w.SlaveHosts()
	corpse, heir, witness := w.Master, slaves[0], slaves[1]
	const ttl = 2 * time.Second
	ha, err := w.EnableHA(HAConfig{
		Standbys: []model.HostID{heir, witness},
		StateDirs: map[model.HostID]string{
			corpse: t.TempDir(), heir: t.TempDir(), witness: t.TempDir(),
		},
		// Every agent is live and every link lossless, so each campaign
		// wins on its first broadcast and never re-broadcasts (the world's
		// EnactResendInterval is an hour).
		Lease: prism.LeaderConfig{LeaseTTL: ttl, Clock: clk.Now},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ha.Close)
	if won, err := ha.Leads[corpse].Campaign(); err != nil || !won {
		t.Fatalf("initial campaign: won=%v err=%v", won, err)
	}
	waitUntil(t, func() bool {
		return ha.Leads[heir].Term() == 1 && ha.Leads[witness].Term() == 1
	})

	// The wave moves a component between the two hosts that are neither
	// deployers nor the witness, so the witness hears only the heir's
	// lease request and replication batches.
	movers := slaves[2:]
	var comp model.ComponentID
	for _, c := range w.Sys.ComponentIDs() {
		if dep0[c] == movers[0] || dep0[c] == movers[1] {
			comp = c
			break
		}
	}
	if comp == "" {
		t.Fatal("no component on the non-deployer hosts to move")
	}
	dst := movers[0]
	if dep0[comp] == dst {
		dst = movers[1]
	}
	current := make(map[string]model.HostID, len(dep0))
	for c, h := range dep0 {
		current[string(c)] = h
	}

	toward := func(h model.HostID) float64 {
		var n float64
		for _, x := range w.Hosts() {
			if s, ok := w.Fabric.Stats(x, h); ok && x != h {
				n += float64(s.Sent)
			}
		}
		return n
	}
	witnessSent := obs.Name("prism_fault_sent_total", "host", string(witness))
	framesToWitness := func() float64 {
		// The witness link carries both directions; everything the
		// witness sends from the crash on goes to the heir.
		s, _ := w.Fabric.Stats(heir, witness)
		own, _ := reg.Snapshot().Value(witnessSent)
		return float64(s.Sent) - own
	}
	// settled reads both counts once they hold still: a flush or a
	// witness's ack may be in flight, and the witness's own send counter
	// moves before the fabric's link counter does.
	settled := func() (corpseN, witnessN float64) {
		waitUntil(t, func() bool {
			c, w := toward(corpse), framesToWitness()
			time.Sleep(20 * time.Millisecond)
			corpseN, witnessN = toward(corpse), framesToWitness()
			return c == corpseN && w == witnessN
		})
		return corpseN, witnessN
	}
	corpse0, witness0 := settled()
	w.CrashHost(corpse)
	clk.Advance(5 * ttl) // every agent's term-1 lease lapses

	if _, won, err := ha.Leads[heir].Failover(); err != nil || !won {
		t.Fatalf("failover: won=%v err=%v", won, err)
	}
	res, err := ha.Deps[heir].Enact(map[string]model.HostID{string(comp): dst}, current, 10*time.Second)
	if err != nil || !res.Committed {
		t.Fatalf("first wave under the new term = %+v err=%v", res, err)
	}

	corpse1, witness1 := settled()
	attempts, rounds := corpse1-corpse0, witness1-witness0
	if attempts < 1 {
		t.Fatal("the new leader never addressed the corpse; the drill measures nothing")
	}
	if attempts > rounds {
		t.Fatalf("%v send attempts toward the corpse over %v re-drive rounds: a frame was retried into it",
			attempts, rounds)
	}
}
