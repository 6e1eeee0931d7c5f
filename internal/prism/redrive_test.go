package prism

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
)

// tapTransport counts the frames its host sends and silently swallows
// the first drop frames carrying the named event — a loss the sender
// cannot observe, like a wireless drop.
type tapTransport struct {
	Transport
	name string

	mu    sync.Mutex
	drop  int
	sends map[string]int // event name → frames sent (swallowed included)
}

func newTap(inner Transport, name string, drop int) *tapTransport {
	return &tapTransport{Transport: inner, name: name, drop: drop, sends: make(map[string]int)}
}

func (tp *tapTransport) Send(to model.HostID, data []byte, sizeKB float64) error {
	e, err := DecodeEvent(data)
	tp.mu.Lock()
	if err == nil {
		tp.sends[e.Name]++
		if e.Name == tp.name && tp.drop > 0 {
			tp.drop--
			tp.mu.Unlock()
			return nil
		}
	}
	tp.mu.Unlock()
	return tp.Transport.Send(to, data, sizeKB)
}

func (tp *tapTransport) sent(name string) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.sends[name]
}

// TestControlSendToCrashedPeerIsOneAttempt pins the single-attempt send:
// toward a crashed peer, one controlSender.send is one transport attempt
// that fails with the fabric's verdict — no retry chain, no backoff.
func TestControlSendToCrashedPeerIsOneAttempt(t *testing.T) {
	var tap *tapTransport
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "a" {
			return tr
		}
		tap = newTap(tr, "", 0)
		return tap
	}, "a", "b")
	cs := newControlSender(w.archs["a"], AdminConfig{Deployer: "a", Bus: "bus"}, DeployerID)
	w.fabric.Crash("b")

	err := cs.send("b", Event{Name: "test.frame", Target: AdminID})
	if !errors.Is(err, netsim.ErrHostDown) {
		t.Fatalf("send to a crashed peer: err = %v, want ErrHostDown", err)
	}
	if got := tap.sent("test.frame"); got != 1 {
		t.Fatalf("one send made %d transport attempts, want 1", got)
	}
}

// TestRequestReportsReRequestKeepsWindow: the first report reply is lost
// silently, so the deployer re-requests. The admin answers the repeat
// of the round from the report it already built — the interactions it
// counted before the first request are still in it, because the
// frequency window was reset once for the round, not once per request.
func TestRequestReportsReRequestKeepsWindow(t *testing.T) {
	var tap *tapTransport
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "s1" {
			return tr
		}
		tap = newTap(tr, EvReport, 1)
		return tap
	}, "m", "s1")
	dw := deployOn(t, w, "m")
	dw.addCounter(t, "s1", "c1", 0)
	c2 := dw.addCounter(t, "s1", "c2", 0)
	for i := 0; i < 3; i++ {
		c2.Emit(Event{Name: "tick", Target: "c1"})
	}
	waitFor(t, func() bool { return dw.archs["s1"].Component("c1").(*counterComponent).value() == 3 })

	reports, err := dw.deployer.RequestReports([]model.HostID{"s1"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := tap.sent(EvReport); got != 2 {
		t.Fatalf("s1 sent %d reports, want 2 (one swallowed, one answering the re-request)", got)
	}
	ints := reports["s1"].Interactions
	if len(ints) != 1 || ints[0].Events != 3 {
		t.Fatalf("re-requested report interactions = %+v, want the 3 events counted before the round", ints)
	}
	// A new round resets the window: nothing happened since.
	reports, err = dw.deployer.RequestReports([]model.HostID{"s1"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ints := reports["s1"].Interactions; len(ints) != 0 {
		t.Fatalf("next round's interactions = %+v, want none", ints)
	}
}

// TestAnnounceRedrivenByHeartbeat: the agent's first goal-state announce
// is lost silently; its next heartbeat re-announces, the agent converges
// on the deployer's delta, and from then on heartbeats stop announcing.
func TestAnnounceRedrivenByHeartbeat(t *testing.T) {
	var tap *tapTransport
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "s1" {
			return tr
		}
		tap = newTap(tr, EvGoalAnnounce, 1)
		return tap
	}, "m", "s1")
	dw := deployOn(t, w, "m")
	dw.deployer.SeedGoalState(map[model.HostID][]GoalComponent{
		"m": nil, "s1": {{ID: "c1", Type: "counter"}},
	})
	agent := dw.admins["s1"]
	if err := agent.AnnounceGoalState(); err != nil {
		t.Fatal(err)
	}
	if err := agent.SendHeartbeat(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return agent.GoalGeneration() == 1 && dw.archs["s1"].Component("c1") != nil
	})
	if got := tap.sent(EvGoalAnnounce); got != 2 {
		t.Fatalf("%d announces before convergence, want 2 (the lost one and the heartbeat's)", got)
	}
	for i := 0; i < 3; i++ {
		if err := agent.SendHeartbeat(); err != nil {
			t.Fatal(err)
		}
	}
	if got, hb := tap.sent(EvGoalAnnounce), tap.sent(EvHeartbeat); got != 2 || hb != 4 {
		t.Fatalf("after convergence: %d announces over %d heartbeats, want 2 over 4", got, hb)
	}
}
