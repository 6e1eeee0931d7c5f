package prism

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
	"dif/internal/obs"
)

// faultCounters reads a fault transport's injected-fault tallies from its
// registry — the replacement for the deleted Stats accessor. The registry
// counters update synchronously inside Send, so per-frame decisions are
// observable without racing async delivery.
func faultCounters(reg *obs.Registry, host string) map[string]int {
	snap := reg.Snapshot()
	out := make(map[string]int)
	for _, k := range []string{"sent", "dropped", "duplicated", "delayed", "blocked"} {
		v, _ := snap.Value(obs.Name("prism_fault_"+k+"_total", "host", host))
		out[k] = int(v)
	}
	return out
}

// faultPair builds two netsim-backed transports wrapped in fault
// injectors with the given configs.
func faultPair(t *testing.T, fcA, fcB FaultConfig) (*FaultTransport, *FaultTransport) {
	t.Helper()
	fabric := netsim.NewFabric(7)
	t.Cleanup(fabric.Close)
	for _, h := range []model.HostID{"a", "b"} {
		if err := fabric.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.Connect("a", "b", netsim.LinkState{Reliability: 1, BandwidthKB: 10_000}); err != nil {
		t.Fatal(err)
	}
	ta, err := NewNetsimTransport(fabric, "a")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewNetsimTransport(fabric, "b")
	if err != nil {
		t.Fatal(err)
	}
	return NewFaultTransport(ta, fcA), NewFaultTransport(tb, fcB)
}

func countingReceiver() (func(model.HostID, []byte), func() int) {
	ch := make(chan struct{}, 1024)
	recv := func(model.HostID, []byte) { ch <- struct{}{} }
	count := func() int { return len(ch) }
	return recv, count
}

func TestFaultTransportSilentDrop(t *testing.T) {
	reg := obs.NewRegistry()
	fa, fb := faultPair(t, FaultConfig{Seed: 1, DropRate: 1, Obs: reg}, FaultConfig{})
	recv, got := countingReceiver()
	fb.SetReceiver(recv)
	for i := 0; i < 20; i++ {
		if err := fa.Send("b", []byte("x"), 1); err != nil {
			t.Fatalf("silent drop must not surface an error, got %v", err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n := got(); n != 0 {
		t.Fatalf("%d frames leaked through a DropRate=1 transport", n)
	}
	st := faultCounters(reg, "a")
	if st["dropped"] != 20 || st["sent"] != 20 {
		t.Fatalf("counters = %v, want 20 sent / 20 dropped", st)
	}
}

func TestFaultTransportDuplicateDelivery(t *testing.T) {
	reg := obs.NewRegistry()
	fa, fb := faultPair(t, FaultConfig{Seed: 1, DupRate: 1, Obs: reg}, FaultConfig{})
	recv, got := countingReceiver()
	fb.SetReceiver(recv)
	for i := 0; i < 10; i++ {
		if err := fa.Send("b", []byte("x"), 1); err != nil {
			t.Fatal(err)
		}
	}
	waitForCond(t, func() bool { return got() == 20 })
	if st := faultCounters(reg, "a"); st["duplicated"] != 10 {
		t.Fatalf("counters = %v, want 10 duplicated", st)
	}
}

func TestFaultTransportPartition(t *testing.T) {
	fa, fb := faultPair(t, FaultConfig{}, FaultConfig{})
	recvA, gotA := countingReceiver()
	recvB, gotB := countingReceiver()
	fa.SetReceiver(recvA)
	fb.SetReceiver(recvB)

	fa.Partition("b", true)
	if err := fa.Send("b", []byte("x"), 1); !errors.Is(err, ErrPeerPartitioned) {
		t.Fatalf("send across partition: err = %v, want ErrPeerPartitioned", err)
	}
	// Inbound is blocked too: b can send, a must not see it.
	if err := fb.Send("a", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if gotA() != 0 {
		t.Fatal("partitioned transport delivered an inbound frame")
	}

	fa.Partition("b", false)
	if err := fa.Send("b", []byte("x"), 1); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	waitForCond(t, func() bool { return gotB() == 1 })
}

func TestFaultTransportDeterministicDrops(t *testing.T) {
	// pattern records which of 50 frames survive under seed 99. With
	// reconfigure, the transport first drops under another seed and is
	// then switched to seed 99, which must restart the fault stream.
	pattern := func(reconfigure bool) []bool {
		reg := obs.NewRegistry()
		cfg := FaultConfig{Seed: 99, DropRate: 0.5, Obs: reg}
		if reconfigure {
			cfg.Seed = 7
		}
		fa, _ := faultPair(t, cfg, FaultConfig{})
		if reconfigure {
			for i := 0; i < 20; i++ {
				if err := fa.Send("b", []byte("x"), 1); err != nil {
					t.Fatal(err)
				}
			}
			fa.SetFaultConfig(FaultConfig{Seed: 99, DropRate: 0.5})
		}
		out := make([]bool, 0, 50)
		last := faultCounters(reg, "a")["dropped"]
		for i := 0; i < 50; i++ {
			if err := fa.Send("b", []byte("x"), 1); err != nil {
				t.Fatal(err)
			}
			// The registry counters update synchronously inside Send, so
			// the drop decision per frame is observable without racing
			// async delivery.
			dropped := faultCounters(reg, "a")["dropped"]
			out = append(out, dropped == last)
			last = dropped
		}
		return out
	}
	first, second, reseeded := pattern(false), pattern(false), pattern(true)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("drop pattern diverged at frame %d despite identical seeds", i)
		}
		if first[i] != reseeded[i] {
			t.Fatalf("drop pattern after SetFaultConfig diverged at frame %d", i)
		}
	}
	drops := 0
	for _, delivered := range first {
		if !delivered {
			drops++
		}
	}
	if drops < 10 || drops > 40 {
		t.Fatalf("%d of 50 frames dropped, want roughly half", drops)
	}
}

func TestFaultTransportDelayedDelivery(t *testing.T) {
	fa, fb := faultPair(t, FaultConfig{Seed: 1, DelayRate: 1, Delay: 60 * time.Millisecond}, FaultConfig{})
	recv, got := countingReceiver()
	fb.SetReceiver(recv)
	if err := fa.Send("b", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got() != 0 {
		t.Fatal("delayed frame arrived early")
	}
	waitForCond(t, func() bool { return got() == 1 })
	// Close drains the delayed-delivery goroutines.
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitForCond polls cond with a longer deadline than dist_test's waitFor
// (fault tests sleep through injected delays).
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}

// TestFaultTransportDirectionalMatrix pins the gray-failure matrix: the
// a→b direction lossy, b→a clean, driven by b's inbound fault process.
func TestFaultTransportDirectionalMatrix(t *testing.T) {
	reg := obs.NewRegistry()
	fa, fb := faultPair(t, FaultConfig{},
		FaultConfig{Seed: 11, Inbound: DirFault{DropRate: 0.6}, Obs: reg})
	recvA, gotA := countingReceiver()
	recvB, gotB := countingReceiver()
	fa.SetReceiver(recvA)
	fb.SetReceiver(recvB)
	for i := 0; i < 100; i++ {
		if err := fa.Send("b", []byte("x"), 1); err != nil {
			t.Fatal(err)
		}
		if err := fb.Send("a", []byte("y"), 1); err != nil {
			t.Fatal(err)
		}
	}
	waitForCond(t, func() bool { return gotA() == 100 })
	time.Sleep(30 * time.Millisecond)
	if n := gotB(); n < 10 || n > 70 {
		t.Fatalf("lossy direction delivered %d of 100, want roughly 40%%", n)
	}
	if d := faultCounters(reg, "b")["dropped"]; d+gotB() != 100 {
		t.Fatalf("dropped(%d) + delivered(%d) != 100", d, gotB())
	}
}

// TestFaultTransportPerPeerOverride pins that a Peers entry replaces the
// transport-wide directional mix for that peer only.
func TestFaultTransportPerPeerOverride(t *testing.T) {
	fabric := netsim.NewFabric(7)
	t.Cleanup(fabric.Close)
	for _, h := range []model.HostID{"a", "b", "c"} {
		if err := fabric.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]model.HostID{{"a", "b"}, {"a", "c"}} {
		if err := fabric.Connect(pair[0], pair[1], netsim.LinkState{Reliability: 1, BandwidthKB: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := NewNetsimTransport(fabric, "a")
	if err != nil {
		t.Fatal(err)
	}
	fa := NewFaultTransport(ta, FaultConfig{
		Seed:     3,
		Outbound: DirFault{DropRate: 1},
		Peers:    map[model.HostID]PeerFault{"c": {}},
	})
	recvs := make(map[model.HostID]func() int)
	for _, h := range []model.HostID{"b", "c"} {
		tr, err := NewNetsimTransport(fabric, h)
		if err != nil {
			t.Fatal(err)
		}
		recv, got := countingReceiver()
		tr.SetReceiver(recv)
		recvs[h] = got
	}
	for i := 0; i < 10; i++ {
		if err := fa.Send("b", []byte("x"), 1); err != nil {
			t.Fatal(err)
		}
		if err := fa.Send("c", []byte("x"), 1); err != nil {
			t.Fatal(err)
		}
	}
	waitForCond(t, func() bool { return recvs["c"]() == 10 })
	if n := recvs["b"](); n != 0 {
		t.Fatalf("default Outbound DropRate=1 leaked %d frames to b", n)
	}
}

// TestFaultTransportOneWayPartition pins the asymmetric partition: with
// only the inbound half cut, outbound sends still flow and vice versa.
func TestFaultTransportOneWayPartition(t *testing.T) {
	fa, fb := faultPair(t, FaultConfig{}, FaultConfig{})
	recvA, gotA := countingReceiver()
	recvB, gotB := countingReceiver()
	fa.SetReceiver(recvA)
	fb.SetReceiver(recvB)

	fa.PartitionInbound("b", true)
	if err := fa.Send("b", []byte("x"), 1); err != nil {
		t.Fatalf("outbound must stay open under an inbound-only cut: %v", err)
	}
	if err := fb.Send("a", []byte("y"), 1); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, func() bool { return gotB() == 1 })
	time.Sleep(30 * time.Millisecond)
	if gotA() != 0 {
		t.Fatal("inbound-partitioned transport delivered an inbound frame")
	}

	fa.PartitionInbound("b", false)
	fa.PartitionOutbound("b", true)
	if err := fa.Send("b", []byte("x"), 1); !errors.Is(err, ErrPeerPartitioned) {
		t.Fatalf("outbound-partitioned send: err = %v, want ErrPeerPartitioned", err)
	}
	if err := fb.Send("a", []byte("y"), 1); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, func() bool { return gotA() == 1 })

	fa.PartitionOutbound("b", false)
	if err := fa.Send("b", []byte("x"), 1); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	waitForCond(t, func() bool { return gotB() == 2 })
}

// TestFlapScheduleDeterministic pins that the flap schedule is a pure
// function of its config: same seed → byte-identical phases, different
// seed → a different schedule, and each phase lands in [base/2, base].
func TestFlapScheduleDeterministic(t *testing.T) {
	cfg := FlapConfig{Seed: 42, Up: 100 * time.Millisecond, Down: 40 * time.Millisecond}
	a, b := FlapSchedule(cfg, 64), FlapSchedule(cfg, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("phase %d diverged across identical configs: %v vs %v", i, a[i], b[i])
		}
		base := cfg.Up
		if i%2 == 1 {
			base = cfg.Down
		}
		if a[i] < base/2 || a[i] > base {
			t.Fatalf("phase %d = %v outside [%v, %v]", i, a[i], base/2, base)
		}
	}
	other := FlapSchedule(FlapConfig{Seed: 43, Up: cfg.Up, Down: cfg.Down}, 64)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFaultTransportFlap pins the transport-level flap behaviour against
// the pure schedule, driving time with an injected clock: sends fail
// exactly while FlapDownAt says the link is down.
func TestFaultTransportFlap(t *testing.T) {
	flap := FlapConfig{Seed: 9, Up: 20 * time.Millisecond, Down: 10 * time.Millisecond}
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	fa, fb := faultPair(t, FaultConfig{Seed: 9, Outbound: DirFault{Flap: flap}, Clock: clock}, FaultConfig{})
	recv, got := countingReceiver()
	fb.SetReceiver(recv)

	delivered := 0
	for step := 0; step < 200; step++ {
		elapsed := time.Duration(step) * time.Millisecond
		mu.Lock()
		now = time.Unix(0, 0).Add(elapsed)
		mu.Unlock()
		err := fa.Send("b", []byte("x"), 1)
		if down := FlapDownAt(flap, elapsed); down && !errors.Is(err, ErrPeerPartitioned) {
			t.Fatalf("step %d: schedule says down, Send returned %v", step, err)
		} else if !down && err != nil {
			t.Fatalf("step %d: schedule says up, Send returned %v", step, err)
		}
		if err == nil {
			delivered++
		}
	}
	if delivered == 0 || delivered == 200 {
		t.Fatalf("flap delivered %d of 200 — schedule never toggled", delivered)
	}
	waitForCond(t, func() bool { return got() == delivered })
}

// TestFaultTransportDelayedFramePartitionCut is the regression test for
// the in-flight-delay bug: a frame already sitting in the delay
// goroutine when a partition opens must NOT be delivered after the cut.
func TestFaultTransportDelayedFramePartitionCut(t *testing.T) {
	reg := obs.NewRegistry()
	fa, fb := faultPair(t, FaultConfig{Seed: 1, DelayRate: 1, Delay: 80 * time.Millisecond, Obs: reg}, FaultConfig{})
	recv, got := countingReceiver()
	fb.SetReceiver(recv)
	if err := fa.Send("b", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	// The frame is now in flight inside the delay goroutine. Cut the
	// link before it lands.
	fa.Partition("b", true)
	time.Sleep(150 * time.Millisecond)
	if n := got(); n != 0 {
		t.Fatalf("delayed frame crossed a partition that opened before delivery (%d delivered)", n)
	}
	if st := faultCounters(reg, "a"); st["blocked"] == 0 {
		t.Fatal("cut delayed frame was not counted as blocked")
	}
	// Healing afterwards must not resurrect the dropped frame.
	fa.Partition("b", false)
	time.Sleep(30 * time.Millisecond)
	if n := got(); n != 0 {
		t.Fatalf("dropped delayed frame resurrected after heal (%d delivered)", n)
	}
}

// BenchmarkNewFaultTransport measures wrapping a transport, which every
// netsim world does once per host.
func BenchmarkNewFaultTransport(b *testing.B) {
	fabric := netsim.NewFabric(7)
	defer fabric.Close()
	if err := fabric.AddHost("a", nil); err != nil {
		b.Fatal(err)
	}
	inner, err := NewNetsimTransport(fabric, "a")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faultSink = NewFaultTransport(inner, FaultConfig{Seed: int64(i), DropRate: 0.1})
	}
}

var faultSink *FaultTransport
