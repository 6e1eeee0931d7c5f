package prism

import (
	"fmt"
	"testing"

	"dif/internal/model"
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

// tallyTransport counts outbound frames and their bytes and delivers
// nothing.
type tallyTransport struct {
	captureTransport
	frames, bytes int
}

func (c *tallyTransport) Send(_ model.HostID, data []byte, _ float64) error {
	c.frames++
	c.bytes += len(data)
	return nil
}

// BenchmarkOnDeliverHole prices the receive gate (dedup, dirty marking,
// inline ack flush every DefaultAckFlush deliveries) on a stream that
// arrives in order and on one whose first sequence was lost, so every
// later arrival lands past a hole that never fills. One op is a chunk of
// 50 000 events — the hole's residue keeps growing across ops — and the
// two cases must stay within 2x in ns/event, with ack frames of a few
// dozen bytes either way.
func BenchmarkOnDeliverHole(b *testing.B) {
	const chunk = 50_000
	for _, bc := range []struct {
		name  string
		first uint64
	}{{"in_order", 1}, {"one_hole", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			tr := &tallyTransport{captureTransport: captureTransport{host: "h2", peers: []model.HostID{"h1"}}}
			dc := NewDistributionConnector("bus", "h2", nil, tr)
			e := stampedFrom("h1", "c01", 0)
			seq := bc.first
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < chunk; j++ {
					e.Seq = seq
					seq++
					if !dc.onDeliver(e) {
						b.Fatalf("seq %d reported duplicate", e.Seq)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/event")
			b.ReportMetric(float64(tr.bytes)/float64(tr.frames), "ackB/frame")
		})
	}
}
