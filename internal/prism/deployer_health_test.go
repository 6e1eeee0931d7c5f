package prism

import (
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// healthWorld builds a transportless deployer with a detector on a fake
// clock — enough to drive the health-scoring surface directly.
func healthWorld(t *testing.T) (*DeployerComponent, *FailureDetector, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	arch := NewArchitecture("a", nil)
	dep := NewDeployerComponent(arch, AdminConfig{Deployer: "a", Clock: clk.Now})
	t.Cleanup(dep.Close)
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	dep.AttachDetector(fd)
	return dep, fd, clk
}

func TestDeployerEvaluateHealthDegradesAndRecovers(t *testing.T) {
	dep, fd, clk := healthWorld(t)
	fd.ObserveAt("b", 1, clk.Now())
	if st := fd.State("b"); st != HostUp {
		t.Fatalf("state = %v, want up", st)
	}

	for i := 0; i < 20; i++ {
		dep.recordSend("b", false)
	}
	trs := dep.EvaluateHealth()
	if len(trs) != 1 || trs[0].Host != "b" || trs[0].From != HostUp || trs[0].To != HostDegraded {
		t.Fatalf("transitions = %+v, want single b up→degraded", trs)
	}
	if st := fd.State("b"); st != HostDegraded {
		t.Fatalf("state = %v, want degraded", st)
	}
	if got := dep.DegradedHosts(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("DegradedHosts = %v, want [b]", got)
	}
	// Steady state: no new flips while still degraded.
	if trs := dep.EvaluateHealth(); len(trs) != 0 {
		t.Fatalf("steady-state transitions = %+v, want none", trs)
	}

	// Sustained clean outcomes climb back over the recovery threshold.
	for i := 0; i < 40; i++ {
		dep.recordSend("b", true)
	}
	trs = dep.EvaluateHealth()
	if len(trs) != 1 || trs[0].From != HostDegraded || trs[0].To != HostUp {
		t.Fatalf("recovery transitions = %+v, want single degraded→up", trs)
	}
	if got := dep.DegradedHosts(); len(got) != 0 {
		t.Fatalf("DegradedHosts after recovery = %v, want empty", got)
	}
}

// TestDegradedReMarkedAfterSuspectLapse: a degraded peer whose heartbeats
// pause long enough to be suspected comes back up with its degraded flag
// cleared, so the next grade re-derives it from the score: a flag that
// outlived the lapse would keep the limping peer up for good.
func TestDegradedReMarkedAfterSuspectLapse(t *testing.T) {
	dep, fd, clk := healthWorld(t)
	fd.ObserveAt("b", 1, clk.Now())
	for i := 0; i < 20; i++ {
		dep.recordSend("b", false)
	}
	if trs := dep.EvaluateHealth(); len(trs) != 1 || trs[0].To != HostDegraded {
		t.Fatalf("transitions = %+v, want b up→degraded", trs)
	}
	clk.Advance(3 * time.Second)
	if trs := fd.Evaluate(); len(trs) != 1 || trs[0].To != HostSuspect {
		t.Fatalf("3s of silence: transitions = %+v, want b degraded→suspect", trs)
	}
	if trs := fd.Observe("b", 1); len(trs) != 1 || trs[0].To != HostUp {
		t.Fatalf("heartbeat: transitions = %+v, want b suspect→up", trs)
	}
	dep.recordSend("b", false)
	trs := dep.EvaluateHealth()
	if len(trs) != 1 || trs[0].From != HostUp || trs[0].To != HostDegraded {
		t.Fatalf("re-grade: transitions = %+v, want b up→degraded (score %.2f)", trs, fd.Scores()["b"])
	}
	if got := dep.DegradedHosts(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("DegradedHosts = %v, want [b]", got)
	}
}

// TestDeployerReportOutcomesFeedHealth: an answered report poll is
// positive evidence, an unanswered one negative — and the deployer's own
// host is never scored.
func TestDeployerReportOutcomesFeedHealth(t *testing.T) {
	dep, fd, _ := healthWorld(t)
	round := &reportRound{hosts: []model.HostID{"a", "b", "c"},
		got: map[model.HostID]MonitoringReport{"b": {Host: "b"}}}

	for i := 0; i < 10; i++ {
		dep.recordReportOutcomes(round)
	}
	scores := fd.Scores()
	if s := scores["b"]; s != 1 {
		t.Fatalf("answered peer score = %v, want 1", s)
	}
	if s := scores["c"]; s > 0.5 {
		t.Fatalf("unanswered peer score = %v, want < 0.5", s)
	}
	if _, ok := scores["a"]; ok {
		t.Fatal("deployer scored its own host")
	}
}

// TestDeployerHeartbeatFeedsHealth: Handle's heartbeat path records
// inter-arrival times in the peer's record, read from the detector's
// clock.
func TestDeployerHeartbeatFeedsHealth(t *testing.T) {
	dep, fd, clk := healthWorld(t)
	for i := 0; i < 3; i++ {
		dep.Handle(Event{Name: EvHeartbeat, Kind: KindControl,
			Payload: Heartbeat{Host: "b", Incarnation: 1}})
		clk.Advance(time.Second)
	}
	if st := fd.State("b"); st != HostUp {
		t.Fatalf("state = %v, want up", st)
	}
	if p := fd.record("b"); p.ngaps != 2 || p.gaps[0] != time.Second || p.gaps[1] != time.Second {
		t.Fatalf("inter-arrivals = %v, want two of 1s", p.gaps[:p.ngaps])
	}
}

// TestDeployerHealthForgottenOnDeath: a host that actually dies sheds
// its gray-failure history, so a rejoining incarnation starts clean.
func TestDeployerHealthForgottenOnDeath(t *testing.T) {
	dep, fd, clk := healthWorld(t)
	fd.ObserveAt("b", 1, clk.Now())
	for i := 0; i < 20; i++ {
		dep.recordSend("b", false)
	}
	dep.EvaluateHealth()
	if s := fd.Scores()["b"]; s > 0.5 {
		t.Fatalf("score before death = %v, want low", s)
	}
	clk.Advance(10 * time.Second)
	fd.Evaluate()
	if st := fd.State("b"); st != HostDead {
		t.Fatalf("state after silence = %v, want dead", st)
	}
	fd.Observe("b", 2)
	if s := fd.Scores()["b"]; s != 1 {
		t.Fatalf("score after rejoin = %v, want forgotten (1)", s)
	}
	if st := fd.State("b"); st != HostUp {
		t.Fatalf("state after rejoin = %v, want up", st)
	}
}

// TestHealthScorerGauge: each grade exports every peer's score as
// prism_peer_health_score{host,peer}.
func TestHealthScorerGauge(t *testing.T) {
	dep, fd, clk := healthWorld(t)
	reg := obs.NewRegistry()
	dep.arch.SetObservability(reg, nil)
	fd.ObserveAt("b", 1, clk.Now())
	for i := 0; i < 10; i++ {
		dep.recordSend("b", false)
	}
	dep.EvaluateHealth()
	v, ok := reg.Snapshot().Value(obs.Name("prism_peer_health_score", "host", "a", "peer", "b"))
	if !ok {
		t.Fatal("prism_peer_health_score gauge missing")
	}
	if v >= 0.5 {
		t.Fatalf("gauge = %v, want degraded-range score", v)
	}
}
