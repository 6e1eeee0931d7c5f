package prism

import (
	"errors"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
	"dif/internal/obs"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newCircuitBreaker(BreakerConfig{Enabled: true, FailureThreshold: 3}, clk.Now, nil)
	for i := 0; i < 3; i++ {
		if st := b.State("p"); st != breakerClosed {
			t.Fatalf("state before failure %d = %v, want closed", i, st)
		}
		release, err := b.Acquire("p")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		release(false)
	}
	if st := b.State("p"); st != breakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", st)
	}
	if _, err := b.Acquire("p"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("acquire while open: err = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := newFakeClock()
	b := newCircuitBreaker(BreakerConfig{Enabled: true, FailureThreshold: 3}, clk.Now, nil)
	for i := 0; i < 10; i++ {
		release, err := b.Acquire("p")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if i%2 == 0 {
			release(false)
		} else {
			release(true)
		}
	}
	if st := b.State("p"); st != breakerClosed {
		t.Fatalf("interleaved failures opened the circuit: %v", st)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	counter := func(base string, peer model.HostID) *obs.Counter {
		return reg.Counter(obs.Name(base, "host", "h", "peer", string(peer)))
	}
	b := newCircuitBreaker(BreakerConfig{Enabled: true, FailureThreshold: 1, Cooldown: 100 * time.Millisecond, ProbeBudget: 1}, clk.Now, counter)
	release, _ := b.Acquire("p")
	release(false) // opens
	if _, err := b.Acquire("p"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}

	clk.Advance(150 * time.Millisecond)
	probe, err := b.Acquire("p")
	if err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if st := b.State("p"); st != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
	// Probe budget spent: a second caller is rejected while the probe
	// is in flight.
	if _, err := b.Acquire("p"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second probe: err = %v, want ErrBreakerOpen", err)
	}
	probe(true)
	if st := b.State("p"); st != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value(obs.Name("prism_breaker_open_total", "host", "h", "peer", "p")); v != 1 {
		t.Fatalf("prism_breaker_open_total = %v, want 1", v)
	}
	if v, _ := snap.Value(obs.Name("prism_breaker_probes_total", "host", "h", "peer", "p")); v != 1 {
		t.Fatalf("prism_breaker_probes_total = %v, want 1", v)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newCircuitBreaker(BreakerConfig{Enabled: true, FailureThreshold: 1, Cooldown: 100 * time.Millisecond}, clk.Now, nil)
	release, _ := b.Acquire("p")
	release(false)
	clk.Advance(150 * time.Millisecond)
	probe, _ := b.Acquire("p")
	probe(false)
	if st := b.State("p"); st != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	// The fresh open period restarts the cooldown.
	if _, err := b.Acquire("p"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	clk.Advance(150 * time.Millisecond)
	if _, err := b.Acquire("p"); err != nil {
		t.Fatalf("probe after second cooldown rejected: %v", err)
	}
}

func TestBreakerReset(t *testing.T) {
	clk := newFakeClock()
	b := newCircuitBreaker(BreakerConfig{Enabled: true, FailureThreshold: 1}, clk.Now, nil)
	release, _ := b.Acquire("p")
	release(false)
	b.Reset("p")
	if st := b.State("p"); st != breakerClosed {
		t.Fatalf("state after reset = %v, want closed", st)
	}
}

// breakerWorld builds two directly connected hosts with fault
// transports and returns host a's control sender built from cfg, plus
// a's fault transport for partition control.
func breakerWorld(t *testing.T, cfg AdminConfig) (*controlSender, *FaultTransport) {
	t.Helper()
	fabric := netsim.NewFabric(5)
	t.Cleanup(fabric.Close)
	for _, h := range []model.HostID{"a", "b"} {
		if err := fabric.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.Connect("a", "b", netsim.LinkState{Reliability: 1, BandwidthKB: 10_000}); err != nil {
		t.Fatal(err)
	}
	arch := NewArchitecture("a", nil)
	tr, err := NewNetsimTransport(fabric, "a")
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFaultTransport(tr, FaultConfig{})
	if _, err := arch.AddDistributionConnector("bus", ft); err != nil {
		t.Fatal(err)
	}
	cfg.Bus = "bus"
	return newControlSender(arch, cfg, "test"), ft
}

// TestBreakerOpensThenRecovers drives a controlSender through the full
// open → half-open → closed cycle against a real transport.
func TestBreakerOpensThenRecovers(t *testing.T) {
	clk := newFakeClock()
	cfg := AdminConfig{
		Deployer: "a",
		Clock:    clk.Now,
		Breaker:  BreakerConfig{Enabled: true, FailureThreshold: 2, Cooldown: 100 * time.Millisecond},
	}
	cs, ft := breakerWorld(t, cfg)
	ft.Partition("b", true)
	for i := 0; i < 2; i++ {
		if err := cs.send("b", Event{Name: "test.frame", Target: AdminID}); err == nil {
			t.Fatal("send across a partition succeeded")
		}
	}
	if err := cs.send("b", Event{Name: "test.frame", Target: AdminID}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen fail-fast", err)
	}

	ft.Partition("b", false)
	clk.Advance(150 * time.Millisecond)
	if err := cs.send("b", Event{Name: "test.frame", Target: AdminID}); err != nil {
		t.Fatalf("post-recovery probe failed: %v", err)
	}
	if st := cs.breaker.State("b"); st != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
}
