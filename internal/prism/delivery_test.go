package prism

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dif/internal/model"
)

// recorderLedger counts port deliveries per event ID, outside the
// component so the tally survives the component's migrations.
type recorderLedger struct {
	mu     sync.Mutex
	counts map[string]int
}

func newRecorderLedger() *recorderLedger {
	return &recorderLedger{counts: make(map[string]int)}
}

func (l *recorderLedger) note(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[id]++
}

func (l *recorderLedger) count(id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[id]
}

// recorderComp is a migratable component that reports every delivered
// string payload to the shared ledger.
type recorderComp struct {
	BaseComponent
	led *recorderLedger
}

func newRecorderComp(id string, led *recorderLedger) *recorderComp {
	return &recorderComp{BaseComponent: NewBaseComponent(id), led: led}
}

func (r *recorderComp) TypeName() string          { return "recorder" }
func (r *recorderComp) Snapshot() ([]byte, error) { return []byte("r"), nil }
func (r *recorderComp) Restore([]byte) error      { return nil }
func (r *recorderComp) Handle(e Event) {
	if id, ok := e.Payload.(string); ok {
		r.led.note(id)
	}
}

// deliveryWorld builds a lossy four-host fault world with one recorder
// component on s1 and the delivery layer tuned to never abandon.
func deliveryWorld(t *testing.T) (*faultWorld, *recorderLedger) {
	t.Helper()
	fc := FaultConfig{Seed: 7, DropRate: 0.20, DupRate: 0.10}
	fcs := map[model.HostID]FaultConfig{"m": fc, "s1": fc, "s2": fc, "s3": fc}
	fw := newFaultWorld(t, fastRetryCfg(), fcs, "m", "s1", "s2", "s3")
	led := newRecorderLedger()
	fw.registry.Register("recorder", func(id string) Migratable {
		return newRecorderComp(id, led)
	})
	rc := newRecorderComp("c1", led)
	if err := fw.archs["s1"].AddComponent(rc); err != nil {
		t.Fatal(err)
	}
	if err := fw.archs["s1"].Weld("c1", "bus"); err != nil {
		t.Fatal(err)
	}
	for _, arch := range fw.archs {
		arch.DistributionConnector("bus").SetDeliveryConfig(DeliveryConfig{MaxAttempts: 1 << 20})
	}
	return fw, led
}

func (fw *faultWorld) deliveryTicks() {
	for _, arch := range fw.archs {
		arch.DistributionConnector("bus").DeliveryTick()
	}
}

func (fw *faultWorld) pendingApp() int {
	n := 0
	for _, arch := range fw.archs {
		n += arch.DistributionConnector("bus").PendingAppEvents()
	}
	return n
}

func (fw *faultWorld) injectAt(from model.HostID, target string, ids ...string) {
	dc := fw.archs[from].DistributionConnector("bus")
	for _, id := range ids {
		dc.Route(Event{Name: "app.probe", Target: target, SizeKB: 0.2, Payload: id})
	}
}

// settleDelivery ticks the retransmission clock until every listed event
// has landed and all pending tables drained.
func settleDelivery(t *testing.T, fw *faultWorld, led *recorderLedger, ids []string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		fw.deliveryTicks()
		all := true
		for _, id := range ids {
			if led.count(id) == 0 {
				all = false
				break
			}
		}
		if all && fw.pendingApp() == 0 {
			return
		}
		if time.Now().After(deadline) {
			missing := []string{}
			for _, id := range ids {
				if led.count(id) == 0 {
					missing = append(missing, id)
				}
			}
			t.Fatalf("delivery did not settle: missing %v, %d pending", missing, fw.pendingApp())
		}
		time.Sleep(time.Millisecond)
	}
}

// runWave enacts one single-component wave while injecting mid-wave
// traffic at the moving component and driving the delivery clock.
func (fw *faultWorld) runWave(t *testing.T, comp string, src, dst model.HostID,
	midIDs []string) error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		_, err := fw.deployer.Enact(
			map[string]model.HostID{comp: dst},
			map[string]model.HostID{comp: src}, 15*time.Second)
		errCh <- err
	}()
	fw.injectAt(fw.master, comp, midIDs...)
	return fw.awaitWave(errCh)
}

// awaitWave ticks delivery until a wave running on another goroutine
// reports on errCh.
func (fw *faultWorld) awaitWave(errCh <-chan error) error {
	for {
		fw.deliveryTicks()
		select {
		case err := <-errCh:
			return err
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestDoubleMoveDeliversExactlyOnce is the acceptance drill: the same
// component moves twice in consecutive waves over 20% loss + 10%
// duplication, with traffic in flight before and during both waves.
// Every event must reach the component exactly once, and the component
// must end active only on its final host.
func TestDoubleMoveDeliversExactlyOnce(t *testing.T) {
	fw, led := deliveryWorld(t)
	ids := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6"}

	fw.injectAt("m", "c1", "e0", "e1", "e2")
	if err := fw.runWave(t, "c1", "s1", "s2", []string{"e3", "e4"}); err != nil {
		t.Fatalf("first wave: %v", err)
	}
	if err := fw.runWave(t, "c1", "s2", "s3", []string{"e5", "e6"}); err != nil {
		t.Fatalf("second wave: %v", err)
	}
	settleDelivery(t, fw, led, ids)

	for _, id := range ids {
		if got := led.count(id); got != 1 {
			t.Fatalf("event %s delivered %d times, want exactly 1", id, got)
		}
	}
	if at := fw.placement("c1")["c1"]; len(at) != 1 || at[0] != "s3" {
		t.Fatalf("c1 active on %v, want exactly [s3]", at)
	}
}

// TestDoubleMoveSecondWaveAborts is the abort variant: the second wave's
// destination takes the arrival and is then declared dead mid-wave, the
// wave rolls back, and all in-flight traffic still lands exactly once at
// the surviving location. The destination's frames to the coordinator
// are cut one way, so its done report cannot commit the wave before the
// death verdict lands, while the abort still reaches it.
func TestDoubleMoveSecondWaveAborts(t *testing.T) {
	fw, led := deliveryWorld(t)
	ids := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6"}

	fw.injectAt("m", "c1", "e0", "e1", "e2")
	if err := fw.runWave(t, "c1", "s1", "s2", []string{"e3", "e4"}); err != nil {
		t.Fatalf("first wave: %v", err)
	}
	fw.faults["m"].PartitionInbound("s3", true)
	errCh := make(chan error, 1)
	go func() {
		_, err := fw.deployer.Enact(
			map[string]model.HostID{"c1": "s3"},
			map[string]model.HostID{"c1": "s2"}, 15*time.Second)
		errCh <- err
	}()
	fw.injectAt("m", "c1", "e5", "e6")
	waitFor(t, func() bool {
		fw.deliveryTicks()
		return fw.archs["s3"].Component("c1") != nil
	})
	fw.deployer.NoteHostDead("s3")
	err := fw.awaitWave(errCh)
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("second wave err = %v, want rollback", err)
	}
	fw.faults["m"].PartitionInbound("s3", false)
	settleDelivery(t, fw, led, ids)

	for _, id := range ids {
		if got := led.count(id); got != 1 {
			t.Fatalf("event %s delivered %d times, want exactly 1", id, got)
		}
	}
	if at := fw.placement("c1")["c1"]; len(at) != 1 || at[0] != "s2" {
		t.Fatalf("c1 active on %v, want exactly [s2] after rollback", at)
	}
}

// TestDisabledDeliveryDropsSilently pins the pre-guarantee behavior the
// delivery layer exists to fix: with the layer disabled, targeted
// application events over a lossy transport are silently lost — no
// retransmission, no accounting. The same scenario with the layer
// enabled delivers every event exactly once.
func TestDisabledDeliveryDropsSilently(t *testing.T) {
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%02d", i)
	}
	run := func(disabled bool) (*faultWorld, *recorderLedger) {
		fc := FaultConfig{Seed: 99, DropRate: 0.5}
		fcs := map[model.HostID]FaultConfig{"m": fc, "s1": fc}
		fw := newFaultWorld(t, fastRetryCfg(), fcs, "m", "s1")
		led := newRecorderLedger()
		rc := newRecorderComp("c1", led)
		if err := fw.archs["s1"].AddComponent(rc); err != nil {
			t.Fatal(err)
		}
		if err := fw.archs["s1"].Weld("c1", "bus"); err != nil {
			t.Fatal(err)
		}
		for _, arch := range fw.archs {
			arch.DistributionConnector("bus").SetDeliveryConfig(
				DeliveryConfig{Disabled: disabled, MaxAttempts: 1 << 20})
		}
		fw.injectAt("m", "c1", ids...)
		return fw, led
	}

	// Disabled: half the frames vanish and nothing brings them back.
	fw, led := run(true)
	time.Sleep(300 * time.Millisecond)
	fw.deliveryTicks() // no-op with the layer off
	delivered := 0
	for _, id := range ids {
		if led.count(id) > 0 {
			delivered++
		}
	}
	if delivered == len(ids) {
		t.Fatalf("disabled layer delivered all %d events over a 50%% lossy link; "+
			"the regression this test pins has disappeared", len(ids))
	}
	if fw.pendingApp() != 0 {
		t.Fatalf("disabled layer tracked %d pending events, want 0", fw.pendingApp())
	}

	// Enabled: the exact same scenario settles with every event delivered.
	fw2, led2 := run(false)
	settleDelivery(t, fw2, led2, ids)
	for _, id := range ids {
		if got := led2.count(id); got != 1 {
			t.Fatalf("enabled layer delivered %s %d times, want exactly 1", id, got)
		}
	}
}

// atomicSink counts deliveries without locks visible to the test body.
type atomicSink struct {
	BaseComponent
	n atomic.Int64
}

func (s *atomicSink) Handle(Event) { s.n.Add(1) }

// TestConcurrentHoldReleaseRoute hammers one connector with concurrent
// Hold/Release/Route for the same target — including Releases racing
// in-flight Routes — under a small held-buffer bound so the spill path
// runs too. The race detector is the primary assertion; the test also
// checks that the final Release leaves no buffered stragglers.
func TestConcurrentHoldReleaseRoute(t *testing.T) {
	s := NewScaffold()
	s.Start(4)
	defer s.Stop()
	c := NewConnector("bus", s)
	c.SetMaxHeld(16)
	sink := &atomicSink{BaseComponent: NewBaseComponent("t")}
	other := &atomicSink{BaseComponent: NewBaseComponent("u")}
	c.attach(sink)
	c.attach(other)

	const routes = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < routes; i++ {
			c.Route(Event{Name: "app", Target: "t", Payload: i})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < routes; i++ {
			c.Route(Event{Name: "app", Target: "u", Payload: i})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			c.Hold("t")
			c.Release("t", true)
		}
	}()
	wg.Wait()
	c.Release("t", true) // flush anything a final Hold trapped
	s.Drain()

	if held := c.HeldSnapshot("t"); held != nil {
		t.Fatalf("%d events still held after final release", len(held))
	}
	if got := other.n.Load(); got != routes {
		t.Fatalf("untargeted component got %d events, want %d", got, routes)
	}
	if got := sink.n.Load(); got > routes {
		t.Fatalf("target got %d events, more than the %d routed", got, routes)
	}
}

// TestStoreAndForwardQueuesOnPartition is examples/disconnected as a
// test: the send window is the store-and-forward queue. Reports stamped
// during a partition stay pending through failed retransmissions, and
// once the link heals the delivery clock lands each exactly once — no
// second queue, no flush call.
func TestStoreAndForwardQueuesOnPartition(t *testing.T) {
	w := newWorld(t, 1.0, "field", "base")
	reporter := w.addEcho(t, "field", "reporter")
	sink := w.addEcho(t, "base", "sink")
	field, base := w.buses["field"], w.buses["base"]
	send := func(n int) {
		for i := 0; i < n; i++ {
			reporter.Emit(Event{Name: "position-report", Target: "sink", SizeKB: 2})
		}
	}
	tick := func() bool {
		base.DeliveryTick() // flushes acks
		field.DeliveryTick()
		return field.PendingAppEvents() == 0
	}

	send(5)
	waitFor(t, func() bool { return sink.count.Load() == 5 })
	waitFor(t, tick)

	if err := w.fabric.SetPartitioned("field", "base", true); err != nil {
		t.Fatal(err)
	}
	send(8)
	for i := 0; i < 5; i++ {
		tick() // retransmissions into the partition fail and stay pending
	}
	if p, n := field.PendingAppEvents(), sink.count.Load(); p != 8 || n != 5 {
		t.Fatalf("during the partition: %d pending, %d handled; want 8 and 5", p, n)
	}

	if err := w.fabric.SetPartitioned("field", "base", false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, tick)
	for i := 0; i < 5; i++ {
		tick() // further ticks must not deliver anything twice
	}
	time.Sleep(10 * time.Millisecond)
	if p, n := field.PendingAppEvents(), sink.count.Load(); p != 0 || n != 13 {
		t.Fatalf("after the heal: %d pending, %d handled; want 0 and exactly 13", p, n)
	}
}

// TestStoreAndForwardLossyFlushRequeues: a tick into a link that is
// still down re-sends the whole backlog, lands nothing and loses
// nothing — every event goes back on the wheel for the next tick.
func TestStoreAndForwardLossyFlushRequeues(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	bus := w.buses["h1"]
	if err := w.fabric.SetPartitioned("h1", "h2", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.Emit(Event{Name: "x", Target: "b"})
	}
	for tick := 1; tick <= retransmitGraceTicks+3; tick++ {
		want := 3
		if tick < retransmitGraceTicks {
			want = 0
		}
		if n := bus.DeliveryTick(); n != want {
			t.Fatalf("tick %d retransmitted %d, want %d", tick, n, want)
		}
	}
	if got := bus.PendingAppEvents(); got != 3 || b.count.Load() != 0 {
		t.Fatalf("still partitioned: %d pending, %d delivered; want 3 and 0", got, b.count.Load())
	}
}
