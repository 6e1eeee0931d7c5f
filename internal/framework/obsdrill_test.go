package framework

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"dif/internal/analyzer"
	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// runTracedChurnDrill is one fully observed churn drill: a 4-host lossless
// fabric wearing 20% injected silent frame drops, one host crashed under a
// live wave, death declared on the injected clock, the network healed, and
// a centralized recovery replanned and committed. It returns the rendered
// span forest, the fault-counter snapshot, and the total injected drops —
// everything the determinism comparison needs.
//
// Determinism levers, so two same-seed runs are byte-identical:
//   - the generated system pins link reliability to 1.0, leaving the seeded
//     FaultTransports as the only loss process;
//   - Tune pins the enact-resend timer to an hour, so no wall-clock timer
//     injects extra (timing-dependent) sends;
//   - liveness runs entirely on the drill clock (Watch/ObserveAt/EvaluateAt),
//     with no network heartbeats; the tracer shares the same clock;
//   - the victim goes dark before the wave launches, and the drill waits
//     for the master's one dispatch attempt into the dead endpoint before
//     declaring the death, so that attempt's fate is fixed by the fault
//     seed alone.
func runTracedChurnDrill(t *testing.T, seed int64) (render, faults string, dropped float64) {
	t.Helper()
	gen := model.DefaultGeneratorConfig(4, 10)
	gen.Reliability = model.Range{Min: 1.0, Max: 1.0}
	sys, dep, err := model.NewGenerator(gen, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	clk := newDrillClock()
	tracer.SetClock(clk.Now)

	w, err := NewWorld(sys, dep, WorldConfig{
		Monitors: true,
		Obs:      reg,
		Trace:    tracer,
		Fault:    &prism.FaultConfig{Seed: seed, DropRate: 0.2},
		Tune: func(ac *prism.AdminConfig) {
			ac.EnactResendInterval = time.Hour
			// Wave durations and monitor aging read this clock, so the
			// prism_wave_* histograms below are seed-determined too.
			ac.Clock = clk.Now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	c := NewCentralized(w, analyzer.Policy{})

	fd := prism.NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	w.Deployer.AttachDetector(fd)
	for _, h := range w.SlaveHosts() {
		fd.Watch(h, clk.Now())
	}

	// Victim: the last slave. The moving component comes off the master
	// when possible, so the doomed wave's participants are exactly
	// {master, victim} and every phase-one network send is the master's.
	slaves := w.SlaveHosts()
	victim := slaves[len(slaves)-1]
	var movingComp model.ComponentID
	for _, comp := range sys.ComponentIDs() {
		if c.Deployment[comp] == w.Master {
			movingComp = comp
			break
		}
	}
	if movingComp == "" {
		for _, comp := range sys.ComponentIDs() {
			if c.Deployment[comp] != victim {
				movingComp = comp
				break
			}
		}
	}
	if movingComp == "" {
		t.Fatal("no component off the victim to move")
	}

	current := make(map[string]model.HostID, len(c.Deployment))
	for comp, h := range c.Deployment {
		current[string(comp)] = h
	}

	// The victim goes dark first — the detector still holds its lease, so
	// the wave passes the up-front liveness check and dies mid-flight.
	lost := w.CrashHost(victim)
	if len(lost) == 0 {
		t.Fatalf("victim %s held no components; drill needs a lossy crash", victim)
	}
	masterSent := obs.Name("prism_fault_sent_total", "host", string(w.Master))
	sentBefore, _ := reg.Snapshot().Value(masterSent)
	waveErr := make(chan error, 1)
	go func() {
		_, err := w.Deployer.Enact(
			map[string]model.HostID{string(movingComp): victim},
			current, 30*time.Second)
		waveErr <- err
	}()

	// Wait for the master's one reconfig dispatch into the dark endpoint:
	// the fault transport drops it or passes it on to fail against the
	// crashed host, as its seed decides. The wave's only network send is
	// that dispatch, so once it happened the send/drop counts below are a
	// pure function of the fault seed however late the death lands.
	waitUntil(t, func() bool {
		v, _ := reg.Snapshot().Value(masterSent)
		return v >= sentBefore+1
	})

	// Silence window: survivors renew their leases, the victim's lapses.
	now := clk.Advance(10 * time.Second)
	for _, h := range slaves {
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

	// Heal the survivors' networks (drop rate back to zero) so the
	// recovery wave commits drop-free, then recover.
	hosts := w.Hosts()
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		if h != victim {
			w.Faults[h].SetFaultConfig(prism.FaultConfig{Seed: seed})
		}
	}
	rep, err := c.Recover(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeCentralized {
		t.Fatalf("recover report mode = %q", rep.Mode)
	}
	if !rep.Accepted() {
		t.Fatalf("recovery decision not accepted: %+v", rep.Decision)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("recover phases = %+v, want restore/plan/enact", rep.Phases)
	}
	if !rep.Enacted || rep.Moves == 0 {
		t.Fatalf("recovery enacted nothing: enacted=%v moves=%d", rep.Enacted, rep.Moves)
	}
	if _, ok := rep.Metrics.Value("framework_recoveries_total"); !ok {
		t.Fatal("recover report snapshot is missing framework_recoveries_total")
	}
	waitUntil(t, func() bool { return w.LiveDeployment().Equal(c.Deployment) })

	// Total injected drops, summed from the per-host registry counters.
	for _, h := range hosts {
		v, _ := reg.Snapshot().Value(obs.Name("prism_fault_dropped_total", "host", string(h)))
		dropped += v
	}
	// The comparison covers the fault counters AND the wave metrics:
	// prism_wave_duration_ms is measured on the injected clock, so it must
	// be byte-identical across same-seed runs, not merely close.
	snap := reg.Snapshot()
	metrics := snap.Filter("prism_fault_").String() + snap.Filter("prism_wave_").String()
	return tracer.Render(), metrics, dropped
}

// TestTracedChurnDrillDeterministic is the observability acceptance drill:
// the traced churn drill — crash mid-wave under 20% injected drop — yields
// the exact span forest prepare→abort→recover(replan)→commit, reports the
// injected-drop count precisely, and reproduces both byte-for-byte on a
// second run with the same seed.
//
// The seed is one whose fault stream drops the doomed wave's single
// dispatch attempt, so the drill sees a non-zero injected-drop count.
func TestTracedChurnDrillDeterministic(t *testing.T) {
	const seed = 10
	render1, faults1, dropped1 := runTracedChurnDrill(t, seed)
	render2, faults2, dropped2 := runTracedChurnDrill(t, seed)

	if render1 != render2 {
		t.Fatalf("span forests differ across same-seed runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", render1, render2)
	}
	if faults1 != faults2 {
		t.Fatalf("fault counters differ across same-seed runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", faults1, faults2)
	}
	if dropped1 != dropped2 || dropped1 == 0 {
		t.Fatalf("injected drops = %v then %v, want equal and non-zero", dropped1, dropped2)
	}

	// Structure: the doomed wave aborts on the declared death, the
	// recovery replans, and its wave commits.
	for _, want := range []string{
		"wave [epoch=1 moves=1 outcome=abort]",
		"prepare [outcome=dead_abort dead=",
		"outcome [decision=rollback]",
		"recover [mode=centralized dead=",
		"restore [restored=",
		"plan [outcome=accepted algorithm=",
		"enact [outcome=done moves=",
		"wave [epoch=2",
		"outcome [decision=commit]",
	} {
		if !strings.Contains(render1, want) {
			t.Fatalf("span forest missing %q:\n%s", want, render1)
		}
	}
}
