package prism

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dif/internal/model"
)

// fakeClock is an injectable, manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// TestLeasePolicyTransitions pins the silence rule: suspect after
// suspectAfter without a heartbeat, dead after deadAfter, and dead stays.
func TestLeasePolicyTransitions(t *testing.T) {
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)

	fd.ObserveAt("h1", 0, clk.Now())
	if st := fd.State("h1"); st != HostUp {
		t.Fatalf("after heartbeat state = %v, want up", st)
	}
	if trans := fd.EvaluateAt(clk.Advance(1 * time.Second)); len(trans) != 0 {
		t.Fatalf("1s silence produced transitions: %v", trans)
	}
	trans := fd.EvaluateAt(clk.Advance(1500 * time.Millisecond)) // 2.5s silent
	if len(trans) != 1 || trans[0].From != HostUp || trans[0].To != HostSuspect {
		t.Fatalf("2.5s silence transitions = %v, want up→suspect", trans)
	}
	// A heartbeat clears the suspicion.
	trans = fd.ObserveAt("h1", 0, clk.Now())
	if len(trans) != 1 || trans[0].From != HostSuspect || trans[0].To != HostUp {
		t.Fatalf("recovery transitions = %v, want suspect→up", trans)
	}
	// Long silence goes straight to dead.
	trans = fd.EvaluateAt(clk.Advance(10 * time.Second))
	if len(trans) != 1 || trans[0].To != HostDead {
		t.Fatalf("10s silence transitions = %v, want →dead", trans)
	}
	if st := fd.State("h1"); st != HostDead {
		t.Fatalf("state = %v, want dead", st)
	}
	// Dead hosts stay dead under further evaluation.
	if trans := fd.EvaluateAt(clk.Advance(time.Second)); len(trans) != 0 {
		t.Fatalf("dead host re-transitioned: %v", trans)
	}
}

func TestIncarnationGatedRejoin(t *testing.T) {
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)

	fd.ObserveAt("h1", 3, clk.Now())
	fd.EvaluateAt(clk.Advance(10 * time.Second))
	if st := fd.State("h1"); st != HostDead {
		t.Fatalf("state = %v, want dead", st)
	}
	// A replayed frame from the dead incarnation must not resurrect.
	if trans := fd.ObserveAt("h1", 3, clk.Now()); len(trans) != 0 {
		t.Fatalf("stale heartbeat resurrected the host: %v", trans)
	}
	if st := fd.State("h1"); st != HostDead {
		t.Fatalf("state after stale heartbeat = %v, want dead", st)
	}
	// A strictly greater incarnation rejoins.
	trans := fd.ObserveAt("h1", 4, clk.Now())
	if len(trans) != 1 || trans[0].From != HostDead || trans[0].To != HostUp || trans[0].Incarnation != 4 {
		t.Fatalf("rejoin transitions = %v, want dead→up inc=4", trans)
	}
	if inc := fd.Incarnation("h1"); inc != 4 {
		t.Fatalf("incarnation = %d, want 4", inc)
	}
}

func TestWatchNoticesNeverHeartbeatingHost(t *testing.T) {
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	fd.Watch("mute", clk.Now())
	trans := fd.EvaluateAt(clk.Advance(10 * time.Second))
	if len(trans) != 1 || trans[0].Host != "mute" || trans[0].To != HostDead {
		t.Fatalf("watched-but-silent host transitions = %v, want →dead", trans)
	}
}

// TestHealthScorerDegradeAndRecover: failed sends drag the peer record's
// health score below the band and a grade degrades the peer; one success
// does not bounce it back (hysteresis), a sustained clean streak does.
func TestHealthScorerDegradeAndRecover(t *testing.T) {
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.Observe("p", 1)
	for i := 0; i < 10; i++ {
		fd.RecordSend("p", true)
	}
	if got := fd.Scores()["p"]; got != 1 {
		t.Fatalf("score after clean streak = %v, want 1", got)
	}
	if tr := fd.Grade(); len(tr) != 0 {
		t.Fatalf("clean peer produced transitions: %v", tr)
	}
	for i := 0; i < 20; i++ {
		fd.RecordSend("p", false)
	}
	if tr := fd.Grade(); len(tr) != 1 || tr[0].Host != "p" || tr[0].To != HostDegraded {
		t.Fatalf("failing peer transitions = %v, want p degraded", tr)
	}
	fd.RecordSend("p", true)
	if tr := fd.Grade(); len(tr) != 0 {
		t.Fatalf("one success cleared degraded: %v", tr)
	}
	for i := 0; i < 30; i++ {
		fd.RecordSend("p", true)
	}
	if tr := fd.Grade(); len(tr) != 1 || tr[0].To != HostUp {
		t.Fatalf("recovered peer transitions = %v, want p up", tr)
	}
}

// TestHealthScorerRetryCountsAsFailure: a re-drive is recorded as a
// failed send, so pure retries drive the score below the degrade band.
func TestHealthScorerRetryCountsAsFailure(t *testing.T) {
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.Observe("p", 1)
	for i := 0; i < 20; i++ {
		fd.RecordSend("p", false)
	}
	if s := fd.Scores()["p"]; s > degradeBelow {
		t.Fatalf("score after pure retries = %v, want below degrade band", s)
	}
}

// TestHealthScorerHeartbeatJitter: regular heartbeats keep a clean peer at
// 1; wildly jittered ones drag the regularity term down.
func TestHealthScorerHeartbeatJitter(t *testing.T) {
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	at := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		at = at.Add(100 * time.Millisecond)
		fd.ObserveAt("steady", 1, at)
	}
	at = time.Unix(0, 0)
	for _, iv := range []time.Duration{10 * time.Millisecond, 900 * time.Millisecond,
		5 * time.Millisecond, 1200 * time.Millisecond, 15 * time.Millisecond,
		800 * time.Millisecond, 20 * time.Millisecond, 1100 * time.Millisecond} {
		at = at.Add(iv)
		fd.ObserveAt("jittery", 1, at)
	}
	scores := fd.Scores()
	if s := scores["steady"]; s != 1 {
		t.Fatalf("steady heartbeat score = %v, want 1", s)
	}
	if s := scores["jittery"]; s >= 0.95 {
		t.Fatalf("jittery heartbeat score = %v, want visibly below 1", s)
	}
}

// TestHealthScorerForget: a degraded peer that dies and rejoins under a
// greater incarnation starts with a clean record — score 1, not degraded.
func TestHealthScorerForget(t *testing.T) {
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	fd.ObserveAt("p", 1, clk.Now())
	for i := 0; i < 20; i++ {
		fd.RecordSend("p", false)
	}
	if tr := fd.Grade(); len(tr) != 1 || tr[0].To != HostDegraded {
		t.Fatalf("failing peer transitions = %v, want p degraded", tr)
	}
	fd.EvaluateAt(clk.Advance(10 * time.Second))
	if st := fd.State("p"); st != HostDead {
		t.Fatalf("state after silence = %v, want dead", st)
	}
	fd.ObserveAt("p", 2, clk.Now())
	if s := fd.Scores()["p"]; s != 1 {
		t.Fatalf("forgotten peer score = %v, want fresh 1", s)
	}
	if got := fd.DegradedHosts(); len(got) != 0 {
		t.Fatalf("forgotten peer still degraded: %v", got)
	}
	if tr := fd.Grade(); len(tr) != 0 {
		t.Fatalf("forgotten peer re-graded: %v", tr)
	}
}

func TestHeartbeatOverNetsimFeedsDetector(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1")
	dw.addCounter(t, "s1", "c1", 7)
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	dw.deployer.AttachDetector(fd)

	if err := dw.admins["s1"].SendHeartbeat(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fd.State("s1") == HostUp })
	if man := fd.Manifest("s1"); len(man) != 1 || man[0] != "c1" {
		t.Fatalf("manifest = %v, want [c1]", man)
	}

	// Silence (by the injected clock — no real waiting) kills the host
	// and the transition reaches subscribers.
	var gotMu sync.Mutex
	var got []Transition
	fd.Subscribe(func(tr Transition) {
		gotMu.Lock()
		got = append(got, tr)
		gotMu.Unlock()
	})
	fd.EvaluateAt(clk.Advance(10 * time.Second))
	gotMu.Lock()
	defer gotMu.Unlock()
	if len(got) != 1 || got[0].Host != "s1" || got[0].To != HostDead {
		t.Fatalf("published transitions = %v, want s1→dead", got)
	}
}

func TestEnactAbortsWhenParticipantDies(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 3)
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	dw.deployer.AttachDetector(fd)

	// s2 heartbeats once, then crashes: its fabric endpoint goes dark so
	// the wave's EvReconfig can never be honored.
	fd.ObserveAt("s2", 0, clk.Now())
	dw.fabric.Crash("s2")

	done := make(chan error, 1)
	go func() {
		_, err := dw.deployer.Enact(
			map[string]model.HostID{"c1": "s2"},
			map[string]model.HostID{"c1": "s1"},
			30*time.Second)
		done <- err
	}()

	// Let the wave get in flight, then declare s2 dead via the injected
	// clock. The death must abort the wave immediately — not after the
	// 30s deadline.
	time.Sleep(50 * time.Millisecond)
	fd.EvaluateAt(clk.Advance(10 * time.Second))

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "died mid-wave") {
			t.Fatalf("err = %v, want mid-wave death abort", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wave did not abort on participant death")
	}
	// The component never left its source.
	if dw.archs["s1"].Component("c1") == nil {
		t.Fatal("c1 lost from source after aborted wave")
	}
}

func TestEnactAbortsUpFrontOnKnownDeadParticipant(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 3)
	clk := newFakeClock()
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	dw.deployer.AttachDetector(fd)

	fd.ObserveAt("s2", 0, clk.Now())
	dw.fabric.Crash("s2")
	fd.EvaluateAt(clk.Advance(10 * time.Second)) // dead before the wave starts

	start := time.Now()
	_, err := dw.deployer.Enact(
		map[string]model.HostID{"c1": "s2"},
		map[string]model.HostID{"c1": "s1"},
		30*time.Second)
	if err == nil || !strings.Contains(err.Error(), "died mid-wave") {
		t.Fatalf("err = %v, want dead-participant abort", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("known-dead participant still consumed the deadline")
	}
}

func TestDeployerCloseAbortsInFlightWave(t *testing.T) {
	dw := newDeployWorld(t, 1.0, "m", "s1", "s2")
	dw.addCounter(t, "s1", "c1", 3)
	// s2 is dark, so the wave can only end by deadline — or by Close.
	dw.fabric.Crash("s2")

	done := make(chan error, 1)
	go func() {
		_, err := dw.deployer.Enact(
			map[string]model.HostID{"c1": "s2"},
			map[string]model.HostID{"c1": "s1"},
			30*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	dw.deployer.Close()

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "closed mid-wave") {
			t.Fatalf("err = %v, want closed-mid-wave abort", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not abort the in-flight wave (shutdown deadlock)")
	}
}

// degrade feeds host failed sends until a grade degrades it, and returns
// the grade's transitions.
func degrade(fd *FailureDetector, host model.HostID) []Transition {
	for i := 0; i < 20; i++ {
		fd.RecordSend(host, false)
	}
	return fd.Grade()
}

// TestDegradedOverlay pins the HostDegraded state machine: degraded only
// attaches to an Up host, heartbeats refresh the record without clearing
// it, Evaluate keeps it while heartbeats flow, and only a grade above the
// band returns it to Up.
func TestDegradedOverlay(t *testing.T) {
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	t0 := time.Unix(0, 0)
	var seen []Transition
	fd.Subscribe(func(tr Transition) { seen = append(seen, tr) })

	// Degrading an unknown host is a no-op.
	if tr := degrade(fd, "h"); len(tr) != 0 {
		t.Fatalf("degrading an unknown host produced %v", tr)
	}

	fd.ObserveAt("h", 1, t0)
	tr := fd.Grade()
	if len(tr) != 1 || tr[0].From != HostUp || tr[0].To != HostDegraded {
		t.Fatalf("grade transitions = %v, want Up→Degraded", tr)
	}
	if st := fd.State("h"); st != HostDegraded {
		t.Fatalf("state = %v, want degraded", st)
	}
	if got := fd.DegradedHosts(); len(got) != 1 || got[0] != "h" {
		t.Fatalf("DegradedHosts = %v, want [h]", got)
	}

	// Heartbeats keep arriving: the overlay must survive both the
	// observation and a re-evaluation.
	fd.ObserveAt("h", 1, t0.Add(2*time.Second))
	if st := fd.State("h"); st != HostDegraded {
		t.Fatalf("heartbeat cleared the overlay: state = %v", st)
	}
	if tr := fd.EvaluateAt(t0.Add(3 * time.Second)); len(tr) != 0 {
		t.Fatalf("Evaluate while degraded-and-heartbeating produced %v", tr)
	}
	if st := fd.State("h"); st != HostDegraded {
		t.Fatalf("Evaluate cleared the overlay: state = %v", st)
	}

	// Recovery takes a grade above the band.
	for i := 0; i < 40; i++ {
		fd.RecordSend("h", true)
	}
	tr = fd.Grade()
	if len(tr) != 1 || tr[0].From != HostDegraded || tr[0].To != HostUp {
		t.Fatalf("recovery transitions = %v, want Degraded→Up", tr)
	}
	if len(seen) != 2 {
		t.Fatalf("subscriber saw %d transitions, want 2", len(seen))
	}
}

// TestDegradedHostStillDiesOnSilence pins that degraded never shields a
// host whose heartbeats actually stop: Degraded escalates through
// Suspect to Dead on the normal silence schedule.
func TestDegradedHostStillDiesOnSilence(t *testing.T) {
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	t0 := time.Unix(0, 0)
	fd.ObserveAt("h", 1, t0)
	degrade(fd, "h")

	tr := fd.EvaluateAt(t0.Add(3 * time.Second))
	if len(tr) != 1 || tr[0].From != HostDegraded || tr[0].To != HostSuspect {
		t.Fatalf("silent degraded host transitions = %v, want Degraded→Suspect", tr)
	}
	tr = fd.EvaluateAt(t0.Add(6 * time.Second))
	if len(tr) != 1 || tr[0].To != HostDead {
		t.Fatalf("transitions = %v, want →Dead", tr)
	}
	// Dead is absorbing: a grade above the band cannot resurrect it.
	for i := 0; i < 40; i++ {
		fd.RecordSend("h", true)
	}
	if tr := fd.Grade(); len(tr) != 0 {
		t.Fatalf("grading a dead host produced %v", tr)
	}
	if st := fd.State("h"); st != HostDead {
		t.Fatalf("state = %v, want dead", st)
	}
}

// TestDegradedSuspectRecoversToUp pins that a degraded host whose
// heartbeats pause briefly (Suspect) and resume comes back as Up — the
// next grade re-marks it if the gray fault persists
// (TestDegradedReMarkedAfterSuspectLapse).
func TestDegradedSuspectRecoversToUp(t *testing.T) {
	fd := NewFailureDetector(2*time.Second, 5*time.Second)
	t0 := time.Unix(0, 0)
	fd.ObserveAt("h", 1, t0)
	degrade(fd, "h")
	fd.EvaluateAt(t0.Add(3 * time.Second)) // → Suspect
	tr := fd.ObserveAt("h", 1, t0.Add(4*time.Second))
	if len(tr) != 1 || tr[0].From != HostSuspect || tr[0].To != HostUp {
		t.Fatalf("resumed heartbeat transitions = %v, want Suspect→Up", tr)
	}
}
