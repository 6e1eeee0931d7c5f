package prism

import (
	"fmt"
	"testing"
)

// benchBus builds a 10-component architecture on one plain connector.
func benchBus(b *testing.B, monitored bool) *Connector {
	b.Helper()
	arch := NewArchitecture("bench", nil)
	bus, err := arch.AddConnector("bus")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		// counterComponent only bumps a counter per event; echo-style
		// sinks that accumulate slices would skew allocation numbers.
		c := newCounter(fmt.Sprintf("c%02d", i))
		if err := arch.AddComponent(c); err != nil {
			b.Fatal(err)
		}
		if err := arch.Weld(c.ID(), "bus"); err != nil {
			b.Fatal(err)
		}
	}
	if monitored {
		bus.AddMonitor(NewEvtFrequencyMonitor())
	}
	return bus
}

func BenchmarkRouteTargeted(b *testing.B) {
	bus := benchBus(b, false)
	e := Event{Name: "x", Sender: "c00", Target: "c01", SizeKB: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Route(e)
	}
}

func BenchmarkRouteTargetedMonitored(b *testing.B) {
	bus := benchBus(b, true)
	e := Event{Name: "x", Sender: "c00", Target: "c01", SizeKB: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Route(e)
	}
}

func BenchmarkRouteBroadcast(b *testing.B) {
	bus := benchBus(b, false)
	e := Event{Name: "x", Sender: "c00", SizeKB: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Route(e)
	}
}

func BenchmarkEventEncodeDecode(b *testing.B) {
	e := Event{Name: "x", Sender: "a", Target: "b", SrcHost: "h1", DstHost: "h2", Payload: "data"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := EncodeEvent(e)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeEvent(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmissionDeepQueue measures one enqueue + one pop with the
// app queue standing 2 048 deep — the depth the receive path holds at
// saturation, where a queue that shifts on pop pays for every frame
// behind the head.
func BenchmarkAdmissionDeepQueue(b *testing.B) {
	a := newAdmissionController(AdmissionConfig{Enabled: true, Manual: true}, func(Event) {})
	defer a.Close()
	e := Event{Name: "x", Kind: KindApplication, Sender: "c00", Target: "c01"}
	for i := 0; i < 2048; i++ {
		a.Enqueue(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Enqueue(e)
		a.Drain(1)
	}
}

// BenchmarkAckSettleWindow2048 measures one cumulative ack frame that
// settles 64 events against a send window standing 2 048 deep (each
// iteration also stamps the 64 replacements, as a saturated sender does).
func BenchmarkAckSettleWindow2048(b *testing.B) {
	r := newWindowRig()
	stamp64 := func() (last uint64) {
		for i := 0; i < 64; i++ {
			e := Event{Name: "x", Kind: KindApplication, Sender: "c00", Target: "c01"}
			r.dc.stamp(&e)
			last = e.Seq
		}
		return last
	}
	for i := 0; i < 2048/64; i++ {
		stamp64()
	}
	batch := AppAckBatch{Host: "h2", Ranges: []AckRange{{Target: "c01"}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Ranges[0].Floor = stamp64() - 2048
		r.dc.handleAppAckBatch(batch)
		if i%1024 == 1023 {
			// A live sender ticks; without it the wheel bucket stamp
			// appends to would grow for the whole run. Off the clock,
			// because the tick also retransmits the standing window.
			b.StopTimer()
			r.dc.DeliveryTick()
			r.tr.take()
			b.StartTimer()
		}
	}
}
