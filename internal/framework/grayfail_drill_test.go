package framework

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dif/internal/analyzer"
	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// TestGrayFailureDrill is the gray-failure acceptance drill: one host
// keeps heartbeating cleanly while silently dropping 60% of its inbound
// frames — the canonical asymmetric fault a lease detector cannot see.
// The stack must (1) flip the host to HostDegraded via its health
// score's end-to-end evidence without ever declaring it dead, (2) fold
// the verdict into the centralized model so planning stops placing new
// components on it, and (3) still commit an in-flight wave across the
// lossy link through the control plane's re-drive loops.
func TestGrayFailureDrill(t *testing.T) {
	reg := obs.NewRegistry()
	clk := newDrillClock()
	w, _ := newTestWorld(t, 4, 10, 21, WorldConfig{
		Fault: &prism.FaultConfig{Seed: 77},
		Obs:   reg,
		Tune: func(c *prism.AdminConfig) {
			// Fast re-dispatch everywhere: the drill's wave must
			// converge across a 60%-lossy link in test time.
			c.EnactResendInterval = 25 * time.Millisecond
		},
	})
	c := NewCentralized(w, analyzer.Policy{})
	c.ReportTimeout = 150 * time.Millisecond

	fd := prism.NewFailureDetector(2*time.Second, 5*time.Second)
	fd.SetClock(clk.Now)
	var wentDead atomic.Bool
	fd.Subscribe(func(tr prism.Transition) {
		if tr.To == prism.HostDead {
			wentDead.Store(true)
		}
	})
	w.Deployer.AttachDetector(fd)

	slaves := w.SlaveHosts()
	pumpHeartbeats(t, w, fd, slaves)

	// The victim's inbound direction goes gray: frames toward it vanish
	// silently while its own heartbeats and report replies flow clean.
	victim := slaves[len(slaves)-1]
	w.Faults[victim].SetFaultConfig(prism.FaultConfig{
		Seed:    99,
		Inbound: prism.DirFault{DropRate: 0.6},
	})

	// Poll the victim until the unanswered report requests drag its
	// health score below the degradation threshold. Every round the
	// whole fleet heartbeats and the lease detector re-evaluates on the
	// injected clock, so any false death verdict would surface here.
	degraded := false
	for round := 0; round < 120 && !degraded; round++ {
		for _, h := range slaves {
			_ = w.Admins[h].SendHeartbeat()
		}
		_, _ = w.Deployer.RequestReports([]model.HostID{victim}, c.ReportTimeout)
		c.syncDegraded()
		fd.EvaluateAt(clk.Advance(500 * time.Millisecond))
		degraded = fd.State(victim) == prism.HostDegraded
	}
	if !degraded {
		t.Fatalf("victim %s never flipped to degraded; state = %v", victim, fd.State(victim))
	}
	if wentDead.Load() {
		t.Fatal("gray faults escalated to a death verdict")
	}
	if ids := c.Model.DegradedHostIDs(); len(ids) != 1 || ids[0] != victim {
		t.Fatalf("model degraded hosts = %v, want [%s]", ids, victim)
	}

	// Planning steers off the limping host: an accepted plan may drain
	// it, but must not newly place anything on it.
	dec, err := c.Analyzer.Analyze(context.Background(), c.Model, c.Deployment, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted {
		for comp, h := range dec.Result.Deployment {
			if h == victim && c.Deployment[comp] != victim {
				t.Fatalf("accepted plan newly places %s on degraded host %s", comp, victim)
			}
		}
	}

	// An in-flight wave crossing the gray link still commits: the
	// reconfig re-dispatch (which also re-drives the fetch) and the
	// outcome re-broadcast each punch through the 60% loss.
	var moving model.ComponentID
	for comp, h := range c.Deployment {
		if h == victim {
			moving = comp
			break
		}
	}
	if moving == "" {
		t.Fatalf("victim %s holds no components; drill needs a resident to drain", victim)
	}
	current := make(map[string]model.HostID, len(c.Deployment))
	for comp, h := range c.Deployment {
		current[string(comp)] = h
	}
	res, err := w.Deployer.Enact(
		map[string]model.HostID{string(moving): w.Master}, current, 30*time.Second)
	if err != nil {
		t.Fatalf("wave across gray link: %v", err)
	}
	if !res.Committed || res.Received != res.Moved {
		t.Fatalf("wave did not commit cleanly: %+v", res)
	}
	c.Deployment[moving] = w.Master
	waitUntil(t, func() bool { return w.LiveDeployment().Equal(c.Deployment) })

	// The whole drill long: degraded, never dead.
	if st := fd.State(victim); st != prism.HostDegraded {
		t.Fatalf("victim state after the wave = %v, want degraded", st)
	}
	if wentDead.Load() {
		t.Fatal("gray faults escalated to a death verdict")
	}
}

// TestOverloadShedsAppTrafficFirst floods the master's receive path with
// application traffic under a small admission budget: only the app class
// sheds, queued liveness frames survive the flood, and draining them
// brings the failure detector up — overload never manufactures deaths.
func TestOverloadShedsAppTrafficFirst(t *testing.T) {
	reg := obs.NewRegistry()
	w, _ := newTestWorld(t, 3, 12, 23, WorldConfig{Obs: reg})
	master := w.Master

	fd := prism.NewFailureDetector(2*time.Second, 5*time.Second)
	w.Deployer.AttachDetector(fd)

	adm := w.BusConnector(master).EnableAdmission(prism.AdmissionConfig{
		Manual: true, QueueCap: 32,
	})

	// Heartbeats land first and wait in the liveness queue. Nothing is
	// dispatched until the drain, so each host re-sends until the fabric
	// takes its beacon (netsim reports a lost frame to the sender).
	for _, h := range w.SlaveHosts() {
		waitUntil(t, func() bool { return w.Admins[h].SendHeartbeat() == nil })
	}
	waitUntil(t, func() bool {
		return adm.Depth(prism.ClassLiveness) >= len(w.SlaveHosts())
	})

	// Flood: application broadcasts from every host overflow the bounded
	// app queue at the master.
	w.StepN(200)
	waitUntil(t, func() bool {
		v, _ := reg.Snapshot().Value(obs.Name("prism_shed_total",
			"class", "app", "host", string(master)))
		return v > 0
	})
	snap := reg.Snapshot()
	if v, _ := snap.Value(obs.Name("prism_shed_total",
		"class", "liveness", "host", string(master))); v != 0 {
		t.Fatalf("flood shed %v liveness frames", v)
	}
	if v, _ := snap.Value(obs.Name("prism_shed_total",
		"class", "control", "host", string(master))); v != 0 {
		t.Fatalf("flood shed %v control frames", v)
	}

	// Draining dispatches highest class first: the detector sees every
	// slave despite the backlog of app frames behind them.
	adm.Drain(-1)
	waitUntil(t, func() bool {
		for _, h := range w.SlaveHosts() {
			if fd.State(h) != prism.HostUp {
				return false
			}
		}
		return true
	})
}
