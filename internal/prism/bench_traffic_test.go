package prism

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dif/internal/model"
)

// benchStampedEvent is the hot-path shape the ISSUE's codec targets: a
// stamped, payload-free application event.
func benchStampedEvent() Event {
	return Event{
		Name: "bench.traffic", Sender: "gen", Target: "sink", SrcHost: "src",
		SizeKB: 0.2, Seq: 42, SeqOrigin: "src", SeqInc: 1,
	}
}

func BenchmarkEncodeEventBinary(b *testing.B) {
	e := benchStampedEvent()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEvent(buf[:0], e)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeEventGob(b *testing.B) {
	e := benchStampedEvent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeEventGob(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEventBinary(b *testing.B) {
	data, err := AppendEvent(nil, benchStampedEvent())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBinaryEvent(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEventGob(b *testing.B) {
	data, err := encodeEventGob(benchStampedEvent())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeEventGob(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlCodec times the wave's smallest and largest control
// frames — a committed outcome and a 64 KiB component transfer — through
// the binary control family and through gob.
func BenchmarkControlCodec(b *testing.B) {
	codecs := []struct {
		name string
		enc  func(Event) ([]byte, error)
		dec  func([]byte) (Event, error)
	}{
		{"binary", EncodeEvent, decodeBinaryEvent},
		{"gob", encodeEventGob, decodeEventGob},
	}
	for _, frame := range []struct{ name, event string }{{"outcome", "outcome commit"}, {"transfer64k", "transfer"}} {
		e := codecCases()[frame.event]
		for _, c := range codecs {
			data, err := c.enc(e)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(frame.name+"/"+c.name+"/encode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.enc(e); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(frame.name+"/"+c.name+"/decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.dec(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// trafficResult is one sustained loopback run's outcome.
type trafficResult struct {
	EventsPerSec float64
	P99          time.Duration
}

// runTraffic pushes n stamped payload-free events through a real TCP
// loopback pair, decoding every frame on the receiver, and reports
// sustained throughput plus sampled p99 latency.
func runTraffic(n int) (trafficResult, error) {
	src, err := NewTCPTransport("src", "127.0.0.1:0")
	if err != nil {
		return trafficResult{}, err
	}
	defer src.Close()
	dst, err := NewTCPTransport("dst", "127.0.0.1:0")
	if err != nil {
		return trafficResult{}, err
	}
	defer dst.Close()
	src.AddPeer("dst", dst.Addr())

	const sampleEvery = 64
	sendTimes := make([]time.Time, n/sampleEvery+1)
	latencies := make([]time.Duration, n/sampleEvery+1)
	var received atomic.Int64
	var decodeErr atomic.Value
	dst.SetReceiver(func(_ model.HostID, data []byte) {
		e, err := DecodeEvent(data)
		if err != nil {
			decodeErr.Store(err)
			return
		}
		if (e.Seq-1)%sampleEvery == 0 {
			i := (e.Seq - 1) / sampleEvery
			latencies[i] = time.Since(sendTimes[i])
		}
		received.Add(1)
	})

	e := benchStampedEvent()
	var buf []byte
	start := time.Now()
	for i := 1; i <= n; i++ {
		e.Seq = uint64(i)
		if (e.Seq-1)%sampleEvery == 0 {
			sendTimes[(e.Seq-1)/sampleEvery] = time.Now()
		}
		buf, err = AppendEvent(buf[:0], e)
		if err != nil {
			return trafficResult{}, err
		}
		if err := src.Send("dst", buf, e.SizeKB); err != nil {
			return trafficResult{}, fmt.Errorf("send %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for received.Load() < int64(n) {
		if time.Now().After(deadline) {
			return trafficResult{}, fmt.Errorf("only %d/%d events arrived", received.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	if err, ok := decodeErr.Load().(error); ok && err != nil {
		return trafficResult{}, fmt.Errorf("receiver decode: %w", err)
	}

	sampled := latencies[:(n-1)/sampleEvery+1]
	sorted := append([]time.Duration(nil), sampled...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p99 := sorted[len(sorted)*99/100]
	return trafficResult{EventsPerSec: float64(n) / elapsed.Seconds(), P99: p99}, nil
}

// BenchmarkTrafficTCP is the sustained loopback throughput benchmark:
// encode → TCP → decode, b.N events end to end.
func BenchmarkTrafficTCP(b *testing.B) {
	res, err := runTraffic(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.EventsPerSec, "events/s")
	b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
}
