package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dif/internal/model"
	"dif/internal/prism"
	"dif/internal/store"
)

// The probes time single layers through their public functions. They run
// in traced runs only, while nothing else in the process is busy.

// timeOp calls fn n times and returns the mean time and allocations per
// call. A mean is right here: the calls are identical and back to back.
func timeOp(n int, fn func()) (ns, allocs float64) {
	fn() // warm caches and lazy initialisation
	a := startAllocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(t0)
	mallocs, _ := a.stop()
	return float64(elapsed) / float64(n), mallocs / float64(n)
}

var probeSink any // keeps results alive so calls are not optimised away

// probeCodec times the wire codec on the three event shapes the
// workloads put on the wire.
func probeCodec(e *env, pool payloadPool) error {
	stamped := prism.Event{Name: eventName, Sender: "gen", Target: "sink", SrcHost: "a", SizeKB: eventSizeKB, Seq: 123456, SeqOrigin: "a"}
	withPayload := stamped
	withPayload.Payload = pool[0]
	heartbeat := prism.Event{Name: prism.EvHeartbeat, Kind: prism.KindControl, Target: prism.DeployerID, SrcHost: "a", SizeKB: 0.2,
		Payload: prism.Heartbeat{Host: "a", Incarnation: 1, Seq: 42, Components: []string{"c0", "c1", "c2", "c3"}}}
	if !prism.BinaryEncodable(stamped) || prism.BinaryEncodable(withPayload) || prism.BinaryEncodable(heartbeat) {
		return fmt.Errorf("codec probe: events are not on the paths they are meant to measure")
	}
	buf := make([]byte, 0, 256)
	ns, al := timeOp(e.count(400000, 1000), func() { buf, _ = prism.AppendEvent(buf[:0], stamped) })
	e.res.set("prism.codec.encode_ns", ns)
	e.res.set("prism.codec.encode_allocs", al)
	data := append([]byte(nil), buf...)
	ns, al = timeOp(e.count(400000, 1000), func() { probeSink, _ = prism.DecodeEvent(data) })
	e.res.set("prism.codec.decode_ns", ns)
	e.res.set("prism.codec.decode_allocs", al)
	for _, c := range []struct {
		prefix string
		ev     prism.Event
	}{{"prism.codec.gob_", withPayload}, {"prism.codec.gob_control_", heartbeat}} {
		var enc []byte
		var err error
		ns, al = timeOp(e.count(20000, 200), func() { enc, err = prism.EncodeEvent(c.ev) })
		if err != nil {
			return err
		}
		e.res.set(c.prefix+"encode_ns", ns)
		e.res.set(c.prefix+"encode_allocs", al)
		ns, al = timeOp(e.count(5000, 100), func() { probeSink, err = prism.DecodeEvent(enc) })
		if err != nil {
			return err
		}
		e.res.set(c.prefix+"decode_ns", ns)
		e.res.set(c.prefix+"decode_allocs", al)
	}
	return nil
}

// probeRouteLocal times Connector.Route between two components of one
// architecture: no transport, synchronous scaffold.
func probeRouteLocal(e *env) error {
	arch := prism.NewArchitecture("solo", nil)
	if _, err := arch.AddConnector(busName); err != nil {
		return err
	}
	var got atomic.Int64
	src, dst := newSource("gen"), &countingSink{BaseComponent: prism.NewBaseComponent("sink"), n: &got}
	for _, c := range []prism.Component{src, dst} {
		if err := arch.AddComponent(c); err != nil {
			return err
		}
		if err := arch.Weld(c.ID(), busName); err != nil {
			return err
		}
	}
	n := e.count(400000, 1000)
	ev := prism.Event{Name: eventName, Target: "sink", SizeKB: eventSizeKB}
	ns, al := timeOp(n, func() { src.Emit(ev) })
	if got.Load() != int64(n)+1 {
		return fmt.Errorf("local route probe delivered %d of %d", got.Load(), n+1)
	}
	e.res.set("prism.connector.route_local_ns", ns)
	e.res.set("prism.connector.route_local_allocs", al)
	return nil
}

type countingSink struct {
	prism.BaseComponent
	n *atomic.Int64
}

func (c *countingSink) Handle(prism.Event) { c.n.Add(1) }

// probeTCPLeg times a bare TCPTransport pair: Send → receiver callback.
// At saturation it is what BENCH_traffic.json recorded; one frame at a
// time it is the floor the coalescing timer puts under every latency.
func probeTCPLeg(e *env) error {
	a, err := prism.NewTCPTransport("a", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := prism.NewTCPTransport("b", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetBatching(batchBytes, batchFlush)
	b.SetBatching(batchBytes, batchFlush)
	var got atomic.Int64
	b.SetReceiver(func(model.HostID, []byte) { got.Add(1) })
	a.AddPeer("b", b.Addr())
	if err := a.Hello("b"); err != nil {
		return err
	}
	frame := make([]byte, 31) // the size of a stamped payload-free event on the wire
	wait := func(n int64) error {
		deadline := time.Now().Add(settleLimit)
		for got.Load() < n {
			if time.Now().After(deadline) {
				return fmt.Errorf("tcp leg probe: %d of %d frames arrived", got.Load(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	n := e.count(400000, 1000)
	alloc := startAllocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send("b", frame, 0); err != nil {
			return err
		}
	}
	if err := wait(int64(n)); err != nil {
		return err
	}
	elapsed := time.Since(t0)
	mallocs, _ := alloc.stop()
	e.res.set("prism.tcp.leg_ns", float64(elapsed)/float64(n))
	e.res.set("prism.tcp.leg_allocs", mallocs/float64(n))

	idle := make([]float64, 0, 200)
	for i := 0; i < e.count(200, 20); i++ {
		before := got.Load()
		t0 := time.Now()
		if err := a.Send("b", frame, 0); err != nil {
			return err
		}
		for got.Load() == before {
			if time.Since(t0) > settleLimit {
				return fmt.Errorf("tcp leg probe: idle frame never arrived")
			}
		}
		idle = append(idle, float64(time.Since(t0))/1e6)
	}
	e.res.set("prism.tcp.leg_ms_p50_idle", median(idle))
	return nil
}

// probeStore times the WAL's two append paths on the filesystem the
// deployer's store uses.
func probeStore(e *env) error {
	dir, err := e.tempDir("storeprobe")
	if err != nil {
		return err
	}
	log, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	rec := make([]byte, 120) // about the size of an epoch record
	n := e.count(200, 20)
	single, batch := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := log.Append(1, rec); err != nil {
			return err
		}
		single = append(single, float64(time.Since(t0))/1e3)
	}
	four := []store.Record{{Kind: 1, Data: rec}, {Kind: 2, Data: rec}, {Kind: 3, Data: rec}, {Kind: 4, Data: rec}}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := log.AppendBatch(four); err != nil {
			return err
		}
		batch = append(batch, float64(time.Since(t0))/1e3)
	}
	e.res.set("store.append_fsync_us", median(single))
	e.res.set("store.append_batch_us", median(batch))
	return nil
}

// appendCounter counts a DeployerStore's appends of one record kind
// through its one-shot ObserveAppend hook, re-arming it every time.
type appendCounter struct {
	mu sync.Mutex
	n  int
}

func (c *appendCounter) arm(ds *prism.DeployerStore, kind byte) {
	ds.ObserveAppend(kind, func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
		c.arm(ds, kind)
	})
}

func (c *appendCounter) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = 0
	return n
}
