package framework

import (
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// pairSystem is two hosts on a perfect link with one component on b.
func pairSystem(t *testing.T) (*model.System, model.Deployment) {
	t.Helper()
	sys := model.NewSystem()
	sys.AddHost("a", model.Params{model.ParamMemory: 64})
	sys.AddHost("b", model.Params{model.ParamMemory: 64})
	if _, err := sys.AddLink("a", "b", model.Params{
		model.ParamReliability: 1, model.ParamBandwidth: 1 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	sys.AddComponent("victim", model.Params{model.ParamMemory: 1})
	return sys, model.Deployment{"victim": "b"}
}

func faultCount(reg *obs.Registry, name string, h model.HostID) int {
	v, _ := reg.Snapshot().Value(obs.Name("prism_fault_"+name+"_total", "host", string(h)))
	return int(v)
}

// A frame sitting in the fault decorator's inbound delay stage when its
// host fail-stops must die with the host: CrashHost closes the transport,
// so the delayed frame finds it closed at fire time and is counted
// blocked instead of reaching a component on the dead architecture.
func TestCrashHostDiscardsDelayedInbound(t *testing.T) {
	sys, dep := pairSystem(t)
	reg := obs.NewRegistry()
	const delay = 150 * time.Millisecond
	w, err := NewWorld(sys, dep, WorldConfig{
		Master: "a", Obs: reg,
		Fault: &prism.FaultConfig{Inbound: prism.DirFault{DelayRate: 1, Delay: delay}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	victim := w.Archs["b"].Component("victim").(*TrafficComponent)

	w.BusConnector("a").Route(prism.Event{Name: "ping", Sender: "ext", Target: "victim", SizeKB: 0.1})
	waitUntil(t, func() bool { return faultCount(reg, "delayed", "b") >= 1 })
	blockedBefore := faultCount(reg, "blocked", "b")
	w.CrashHost("b")
	time.Sleep(2 * delay) // past the frame's fire time, wherever the crash caught it
	if _, recv := trafficCounters(victim); recv != 0 {
		t.Fatalf("component on the crashed host handled %d events from the grave", recv)
	}
	if got := faultCount(reg, "blocked", "b") - blockedBefore; got < 1 {
		t.Fatalf("prism_fault_blocked_total rose by %d, want the delayed frame counted", got)
	}
}

// hostShape is what a host's wiring looks like from outside.
type hostShape struct {
	drops     string // outbound drop pattern of the fault stream's first draws
	delivery  bool   // delivery-guarantee layer on
	admission bool
	monitors  bool
	deployer  bool
}

func shapeOf(t *testing.T, w *World, reg *obs.Registry, h, peer model.HostID) hostShape {
	t.Helper()
	var s hostShape
	if ft := w.Faults[h]; ft != nil {
		for i := 0; i < 64; i++ {
			before := faultCount(reg, "dropped", h)
			if err := ft.Send(peer, []byte{0}, 0.01); err != nil {
				t.Fatal(err)
			}
			s.drops += string(rune('0' + faultCount(reg, "dropped", h) - before))
		}
	}
	dc := w.BusConnector(h)
	// A targeted application event is stamped into the send window only
	// while the delivery layer is on.
	dc.Route(prism.Event{Name: "probe", Sender: "ext", Target: "nowhere", SizeKB: 0.01})
	s.delivery = dc.PendingAppEvents() == 1
	s.admission = dc.Admission() != nil
	s.monitors = w.Admins[h].FrequencyMonitor() != nil
	s.deployer = w.Archs[h].Component(prism.DeployerID) != nil
	return s
}

// RestartHost goes through the same HostConfig as NewWorld, so a host's
// second lifetime is wired like its first — whatever the world's config.
func TestRestartHostMatchesNewWorld(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  WorldConfig
	}{
		{"bare", WorldConfig{}},
		{"monitors", WorldConfig{Monitors: true}},
		{"delivery off", WorldConfig{Delivery: &prism.DeliveryConfig{Disabled: true}}},
		{"admission", WorldConfig{Admission: prism.AdmissionConfig{Enabled: true, QueueCap: 8}}},
		{"faults", WorldConfig{Seed: 7, Fault: &prism.FaultConfig{Seed: 7, DropRate: 0.5}}},
		{"deployer per host", WorldConfig{DeployerPerHost: true, Monitors: true}},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			sys, dep := pairSystem(t)
			reg := obs.NewRegistry()
			cfg.Master, cfg.Obs = "a", reg
			w, err := NewWorld(sys, dep, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			first := shapeOf(t, w, reg, "b", "a")
			w.CrashHost("b")
			admin, err := w.RestartHost("b")
			if err != nil {
				t.Fatal(err)
			}
			if admin.Incarnation() != 1 || w.Incarnation("b") != 1 {
				t.Fatalf("incarnation = %d/%d after one restart, want 1", admin.Incarnation(), w.Incarnation("b"))
			}
			if second := shapeOf(t, w, reg, "b", "a"); second != first {
				t.Fatalf("second lifetime %+v, first %+v", second, first)
			}
			if first.admission != cfg.Admission.Enabled || first.monitors != cfg.Monitors ||
				first.delivery != (cfg.Delivery == nil) || first.deployer != cfg.DeployerPerHost ||
				(first.drops != "") != (cfg.Fault != nil) {
				t.Fatalf("shape %+v does not reflect config %+v", first, cfg)
			}
		})
	}
}
