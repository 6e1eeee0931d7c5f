package prism

import (
	"testing"
	"time"

	"dif/internal/obs"
)

// TestAckBatchingOneFrameSettlesMany sends a burst of stamped events
// below the inline-flush threshold and asserts the receiver's next
// delivery tick settles the entire burst with a single ack-batch frame.
func TestAckBatchingOneFrameSettlesMany(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	reg := obs.NewRegistry()
	w.archs["h2"].SetObservability(reg, nil)

	const n = 50 // below DefaultAckFlush: nothing flushes inline
	for i := 0; i < n; i++ {
		a.Emit(Event{Name: "e", Target: "b"})
	}
	waitFor(t, func() bool { return b.count.Load() == n })
	if got := w.buses["h1"].PendingAppEvents(); got != n {
		t.Fatalf("pending before ack flush = %d, want %d", got, n)
	}

	w.buses["h2"].DeliveryTick() // flushes the dirty ack range
	waitFor(t, func() bool { return w.buses["h1"].PendingAppEvents() == 0 })

	frames := reg.Counter(obs.Name("prism_batch_ack_frames_total", "host", "h2")).Value()
	if frames != 1 {
		t.Errorf("ack frames = %v, want 1 (one batch for the whole burst)", frames)
	}
}

// TestAckBatchingInlineFlushUnderLoad pushes past the AckFlush threshold
// and asserts acks flow without any receiver tick at all.
func TestAckBatchingInlineFlushUnderLoad(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	w.buses["h2"].SetDeliveryConfig(DeliveryConfig{AckFlush: 8})

	const n = 40
	for i := 0; i < n; i++ {
		a.Emit(Event{Name: "e", Target: "b"})
	}
	waitFor(t, func() bool { return b.count.Load() == n })
	// Inline flushes (every 8 deliveries) must settle at least the first
	// 32 events with no DeliveryTick on either side.
	waitFor(t, func() bool { return w.buses["h1"].PendingAppEvents() <= n%8 })
}

// TestAckBatchRangeIdempotent re-applies the same cumulative range twice
// and asserts the second application is a no-op — batches are windows,
// so duplicated or reordered ack frames cannot corrupt the table.
func TestAckBatchRangeIdempotent(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2")
	a := w.addEcho(t, "h1", "a")
	b := w.addEcho(t, "h2", "b")
	for i := 0; i < 5; i++ {
		a.Emit(Event{Name: "e", Target: "b"})
	}
	waitFor(t, func() bool { return b.count.Load() == 5 })

	batch := AppAckBatch{Host: "h2", Ranges: []AckRange{{Target: "b", Inc: 0, Floor: 5}}}
	w.buses["h1"].handleAppAckBatch(batch)
	if got := w.buses["h1"].PendingAppEvents(); got != 0 {
		t.Fatalf("pending after range = %d, want 0", got)
	}
	w.buses["h1"].handleAppAckBatch(batch) // replay must be harmless
	if got := w.buses["h1"].PendingAppEvents(); got != 0 {
		t.Fatalf("pending after replayed range = %d, want 0", got)
	}
}

// TestRetransmitWheelGracePeriod pins the wheel schedule: a fresh event
// is not retransmitted on the first tick after stamping (acks get one
// tick to flush), is retransmitted on the second, and every tick after.
func TestRetransmitWheelGracePeriod(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2")
	a := w.addEcho(t, "h1", "a")
	w.addEcho(t, "h2", "b")
	// Pre-partition the fabric so the event stays pending (the receiver
	// never acks what it never got).
	w.fabric.SetPartitioned("h1", "h2", true)
	a.Emit(Event{Name: "e", Target: "b"})
	waitFor(t, func() bool { return w.buses["h1"].PendingAppEvents() == 1 })
	if got := w.buses["h1"].DeliveryTick(); got != 0 {
		t.Fatalf("tick 1 retransmitted %d events, want 0 (grace)", got)
	}
	if got := w.buses["h1"].DeliveryTick(); got != 1 {
		t.Fatalf("tick 2 retransmitted %d events, want 1", got)
	}
	if got := w.buses["h1"].DeliveryTick(); got != 1 {
		t.Fatalf("tick 3 retransmitted %d events, want 1", got)
	}
	w.fabric.SetPartitioned("h1", "h2", false)
	waitFor(t, func() bool {
		w.buses["h1"].DeliveryTick()
		w.buses["h2"].DeliveryTick()
		return w.buses["h1"].PendingAppEvents() == 0
	})
}

// TestRelocationExpiryByTick pins the relocation table's absolute-expiry
// semantics: an entry answers bounce lookups until RelocTTL ticks pass,
// then lazily expires.
func TestRelocationExpiryByTick(t *testing.T) {
	w := newWorld(t, 1.0, "h1", "h2")
	bus := w.buses["h1"]
	bus.SetDeliveryConfig(DeliveryConfig{RelocTTL: 4})
	bus.RecordRelocation("c9", "h2")
	d := bus.delivery
	d.mu.Lock()
	_, before := d.reloc["c9"]
	d.mu.Unlock()
	if !before {
		t.Fatal("relocation entry missing after RecordRelocation")
	}
	for i := 0; i < relocSweepEvery+4; i++ {
		bus.DeliveryTick()
	}
	d.mu.Lock()
	_, after := d.reloc["c9"]
	d.mu.Unlock()
	if after {
		t.Fatal("relocation entry survived past its TTL")
	}
}

// TestTCPBatchingDeliversAndFlushes runs coalesced frames over real
// sockets: bursts arrive intact and in order, and a lone frame is
// written out rather than stranding in the pending buffer.
func TestTCPBatchingDeliversAndFlushes(t *testing.T) {
	a, err := NewTCPTransport("hostA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewTCPTransport("hostB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.SetBatching(32<<10, time.Millisecond)
	b.SetBatching(32<<10, time.Millisecond)
	a.AddPeer("hostB", b.Addr())
	b.AddPeer("hostA", a.Addr())

	var sink frameSink
	b.SetReceiver(sink.recv)
	const n = 300
	for i := 0; i < n; i++ {
		if err := a.Send("hostB", []byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return sink.count() == n })
	for i, f := range sink.all() {
		if len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("frame %d = %q, order broken by coalescing", i, f)
		}
	}

	// A lone frame below the buffer size must still arrive.
	if err := a.Send("hostB", []byte("lone"), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == n+1 })
}

// TestTCPBatchingCloseFlushes pins that Close drains pending frames
// before tearing sockets down.
func TestTCPBatchingCloseFlushes(t *testing.T) {
	a, err := NewTCPTransport("hostA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport("hostB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer("hostB", b.Addr())

	var sink frameSink
	b.SetReceiver(sink.recv)
	for i := 0; i < 3; i++ {
		if err := a.Send("hostB", []byte{'x'}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 3 })
}

// TestTCPTransportDoesNotRetainSendBuffers pins the BufferRetainer
// contract the pooled-encode path relies on: mutating the caller's
// buffer after Send must not corrupt the delivered frame.
func TestTCPTransportDoesNotRetainSendBuffers(t *testing.T) {
	a, b := newTCPPair(t)
	if a.RetainsSendBuffers() {
		t.Fatal("TCPTransport claims to retain send buffers")
	}
	var sink frameSink
	b.SetReceiver(sink.recv)
	buf := []byte("original")
	if err := a.Send("hostB", buf, 1); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBERED")
	waitFor(t, func() bool { return sink.count() == 1 })
	if got := sink.all()[0]; got != "original" {
		t.Fatalf("frame = %q; Send retained the caller's buffer", got)
	}
}
