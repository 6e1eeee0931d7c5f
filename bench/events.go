package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dif/internal/model"
	"dif/internal/prism"
)

const (
	// steadyQueueCap is the admission capacity events_steady pins. The
	// -shed-capacity default of 256 collapses under coalesced bursts (see
	// README, finding 1); it is measured only by the overload phase.
	steadyQueueCap   = 4096
	overloadQueueCap = 256
	// window bounds unacknowledged events in the closed-loop phases.
	window       = 2048
	windowCheck  = 32
	payloadBytes = 256
	settleLimit  = 5 * time.Second
)

// eventsRig is two TCP nodes with a source on a and a sink on b.
type eventsRig struct {
	a, b *node
	src  *source
	snk  *sink
	tap  *tap
	pool payloadPool
	sent uint64 // events emitted so far == the sink stream's last sequence number
}

func buildEventsRig(e *env, queueCap int, pool payloadPool) (*eventsRig, error) {
	r := &eventsRig{tap: &tap{}, pool: pool}
	var err error
	if r.a, err = newNode(nodeConfig{host: "a", master: "a", queueCap: queueCap, reg: e.reg, tracer: e.tracer}); err != nil {
		return nil, err
	}
	if r.b, err = newNode(nodeConfig{host: "b", master: "a", queueCap: queueCap, reg: e.reg, tracer: e.tracer}); err != nil {
		r.a.close()
		return nil, err
	}
	r.src, r.snk = newSource("gen"), newSink("sink", 0, r.tap, pool)
	err = connect(r.a, r.b)
	if err == nil {
		err = r.a.place(r.src)
	}
	if err == nil {
		err = r.b.place(r.snk)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *eventsRig) close() { r.a.close(); r.b.close() }

func (r *eventsRig) emit(payload bool) {
	r.sent++
	ev := prism.Event{Name: eventName, Target: "sink", SizeKB: eventSizeKB}
	if payload {
		ev.Payload = r.pool.forSeq(r.sent)
	}
	r.src.Emit(ev)
}

// settle waits until the sink has every event emitted so far and then
// until the sender has no unacknowledged event left. It returns when the
// sink had them all, and how long the last acknowledgements took after
// that — up to one delivery tick, because the receiver flushes a partial
// ack batch only on its tick.
func (r *eventsRig) settle() (allAt time.Time, ackSettle time.Duration, ok bool) {
	if !r.tap.waitDelivered(int64(r.sent), settleLimit) {
		return time.Now(), 0, false
	}
	allAt = time.Now()
	ackSettle, ok = r.a.waitAcked(settleLimit)
	return allAt, ackSettle, ok
}

type openLoopResult struct {
	lat     dist
	late    lateness
	missing int
	emitNS  []float64
}

// openLoop emits at a fixed rate for length after an untimed warm-up at
// the same rate, and returns the due→Handle latencies.
func (r *eventsRig) openLoop(e *env, phase string, perSecond float64, length time.Duration) (openLoopResult, error) {
	warm := newSchedule(time.Now(), perSecond, e.warmup())
	warm.run(func(int) { r.emit(false) })
	if _, _, ok := r.settle(); !ok {
		return openLoopResult{}, fmt.Errorf("%s: warm-up never settled", phase)
	}
	s := newSchedule(time.Now().Add(time.Millisecond), perSecond, length)
	r.tap.begin(s, []uint64{r.sent}, e.traced())
	var out openLoopResult
	type emitSpan struct{ start, end time.Time }
	var emits []emitSpan
	if e.traced() {
		emits = make([]emitSpan, s.n/traceEvery+1)
	}
	out.late = s.run(func(i int) {
		if emits != nil && i%traceEvery == 0 {
			t0 := time.Now()
			r.emit(false)
			emits[i/traceEvery] = emitSpan{t0, time.Now()}
			return
		}
		r.emit(false)
	})
	_, _, settled := r.settle()
	lat, handled := r.tap.end()
	out.lat = summarize(lat)
	out.missing = s.n - len(lat)
	if !settled && out.missing == 0 {
		out.missing = 1 // delivered, but an ack never came back
	}
	for k, h := range handled {
		if h.IsZero() || emits[k].start.IsZero() {
			continue
		}
		op := fmt.Sprintf("%s/ev%d", phase, k*traceEvery)
		due := s.due(k * traceEvery)
		root := e.rec.add(0, op, "prism.datapath", "event", due, h)
		e.rec.add(root, op, "bench", "gen_wait", due, emits[k].start)
		e.rec.add(root, op, "prism.delivery", "emit", emits[k].start, emits[k].end)
		e.rec.add(root, op, "prism.tcp", "transit", emits[k].end, h)
		out.emitNS = append(out.emitNS, float64(emits[k].end.Sub(emits[k].start)))
	}
	e.res.ops(int64(s.n), int64(out.missing))
	return out, nil
}

type burstResult struct {
	perSecond  float64
	pendingMax int
	depthMax   int
	settleMS   float64
	ok         bool
}

// burst emits n events as fast as a window of unacknowledged events
// allows and times first Emit → sink has all. The wait for the last
// acknowledgements is checked but not timed: it ends on a 250 ms tick
// boundary and would quantize the rate.
func (r *eventsRig) burst(e *env, n int, payload bool) burstResult {
	var out burstResult
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if i%windowCheck == 0 {
			stuck := time.Time{}
			for {
				p := r.a.bus.PendingAppEvents()
				if p > out.pendingMax {
					out.pendingMax = p
				}
				if p <= window {
					break
				}
				// Acknowledgements normally free the window within a
				// millisecond. If they stop (README, finding 10) the
				// burst is abandoned instead of spinning forever.
				if stuck.IsZero() {
					stuck = time.Now()
				} else if time.Since(stuck) > settleLimit {
					e.res.ops(int64(n), int64(n-i))
					return out
				}
				runtime.Gosched()
			}
			if e.traced() && r.b.adm != nil {
				if d := r.b.adm.Depth(prism.ClassApp); d > out.depthMax {
					out.depthMax = d
				}
			}
		}
		r.emit(payload)
	}
	allAt, settle, ok := r.settle()
	elapsed := allAt.Sub(t0)
	out.ok = ok
	out.settleMS = float64(settle) / 1e6
	out.perSecond = float64(n) / elapsed.Seconds()
	failed := int64(0)
	if !ok {
		failed = int64(r.sent) - r.tap.delivered.Load()
		if failed <= 0 {
			failed = 1
		}
	}
	e.res.ops(int64(n), failed)
	return out
}

// warmBursts is how many untimed bursts precede the timed ones: the burst
// rate of a fresh rig climbs for its first few hundred thousand events
// (136 k → 170 k ev/s over ten bursts of 150 000 in one measurement).
const warmBursts = 3

// bursts runs warmBursts untimed bursts and then count timed ones. It
// stops at the first burst that does not complete: the data path has
// collapsed and every later burst would only wait out its limits.
func (r *eventsRig) bursts(e *env, count, n int, payload bool) ([]burstResult, error) {
	out := make([]burstResult, 0, count)
	for i := -warmBursts; i < count; i++ {
		size := n
		b := r.burst(e, size, payload)
		if !b.ok {
			return out, fmt.Errorf("burst %d of %d events did not complete: %d delivered of %d sent, %d unacknowledged",
				i, size, r.tap.delivered.Load(), r.sent, r.a.bus.PendingAppEvents())
		}
		if i >= 0 {
			out = append(out, b)
		}
	}
	return out, nil
}

func medianRate(bs []burstResult) float64 {
	v := make([]float64, len(bs))
	for i, b := range bs {
		v[i] = b.perSecond
	}
	return median(v)
}

// check verifies exactly-once at the port for everything emitted.
func (r *eventsRig) check(res *result, label string) {
	seen := r.snk.received()
	if !seen.complete(r.sent) {
		res.violate("%s: sink has floor %d with %d out of order, want exactly 1..%d", label, seen.floor, len(seen.above), r.sent)
	}
	if d := r.tap.dups.Load(); d != 0 {
		res.violate("%s: %d duplicate deliveries at the port", label, d)
	}
	if c := r.tap.corrupt.Load(); c != 0 {
		res.violate("%s: %d payloads differ from what was sent", label, c)
	}
	if p := r.a.bus.PendingAppEvents(); p != 0 {
		res.violate("%s: %d events still unacknowledged", label, p)
	}
}

func newPayloadPool(e *env) payloadPool {
	rng := e.rng(1)
	pool := make(payloadPool, 64)
	for i := range pool {
		pool[i] = make([]byte, payloadBytes)
		rng.Read(pool[i])
	}
	return pool
}

// runEventsSteady is the data path doing all the work with the control
// plane idle: targeted 0.2 KB events from a source on a to a sink on b.
func runEventsSteady(e *env) error {
	pool := newPayloadPool(e)
	if e.traced() {
		return tracedEventsSteady(e, pool)
	}
	rig, setup, err := medianSetup(25,
		func() (*eventsRig, error) { return buildEventsRig(e, steadyQueueCap, pool) },
		(*eventsRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	e.res.set("setup_s", setup)

	r20, err := rig.openLoop(e, "rate_20k", 20000, e.span(8*time.Second))
	if err != nil {
		return err
	}
	e.res.set("event_ms_p50", r20.lat.P50)
	e.res.set("event_ms_p99", r20.lat.P99)
	e.res.note("rate_20k: %v, generator late max %.3f ms", r20.lat, r20.late.maxMS())

	sat, err := rig.bursts(e, 6, e.count(150000, 2000), false)
	if err != nil {
		return fmt.Errorf("saturate: %w", err)
	}
	e.res.set("events_per_s", medianRate(sat))
	pay, err := rig.bursts(e, 3, e.count(10000, 500), true)
	if err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	e.res.set("payload_events_per_s", medianRate(pay))
	rig.check(e.res, "events_steady")

	e.res.set("journey_ms_p50", r20.lat.P50)
	e.res.set("ops_per_s", medianRate(sat))
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// untraced returns a view of the run with the observability handles
// off, for the baseline passes of a traced run.
func (e *env) untraced() *env {
	plain := *e
	plain.reg, plain.tracer, plain.rec = nil, nil, nil
	return &plain
}

// hostsTotal sums a per-host counter over the hosts.
func hostsTotal(e *env, base string, hosts []string, labels ...string) float64 {
	sum := 0.0
	for _, h := range hosts {
		sum += counter(e.reg, base, model.HostID(h), labels...)
	}
	return sum
}

func shedTotal(e *env, hosts []string) float64 {
	sum := 0.0
	for _, class := range []prism.ShedClass{prism.ClassLiveness, prism.ClassControl, prism.ClassApp} {
		sum += hostsTotal(e, "prism_shed_total", hosts, "class", class.String())
	}
	return sum
}

// deliveryCounters reports the delivery layer's own counters, summed
// over the hosts, as layer metrics.
func deliveryCounters(e *env, hosts []string) {
	e.res.set("prism.delivery.retransmits", hostsTotal(e, "prism_app_retransmits_total", hosts))
	e.res.set("prism.delivery.deduped", hostsTotal(e, "prism_app_deduped_total", hosts))
	e.res.set("prism.delivery.bounced", hostsTotal(e, "prism_app_bounced_total", hosts))
	e.res.set("prism.delivery.abandoned", hostsTotal(e, "prism_app_abandoned_total", hosts))
	e.res.set("prism.admission.shed_total", shedTotal(e, hosts))
}

// tracedEventsSteady is the traced run of events_steady: the same
// phases, shortened, with the registry and tracer wired and the
// benchmark's spans on one event in traceEvery; then the phases and
// probes that exist only to attribute cost to a layer.
func tracedEventsSteady(e *env, pool payloadPool) error {
	hosts := []string{"a", "b"}
	burstN := e.count(150000, 2000)

	// Baselines with the handles off: the same rig, and the rig without
	// admission.
	plain := e.untraced()
	baseline := func(queueCap int, label string) (float64, error) {
		rig, err := buildEventsRig(plain, queueCap, pool)
		if err != nil {
			return 0, err
		}
		defer rig.close()
		bs, err := rig.bursts(plain, 1, burstN, false)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", label, err)
		}
		rig.check(e.res, label)
		return medianRate(bs), nil
	}
	baseRate, err := baseline(steadyQueueCap, "baseline")
	if err != nil {
		return err
	}
	openRate, err := baseline(0, "without admission")
	if err != nil {
		return err
	}
	e.res.set("prism.admission.throughput_ratio", baseRate/openRate)

	rig, err := buildEventsRig(e, steadyQueueCap, pool)
	if err != nil {
		return err
	}
	defer rig.close()
	r20, err := rig.openLoop(e, "rate_20k", 20000, e.span(4*time.Second))
	if err != nil {
		return err
	}
	e.res.set("journey.event_ms_p50", r20.lat.P50)
	e.res.set("journey.event_ms_p99", r20.lat.P99)
	e.res.set("prism.delivery.emit_ns", median(r20.emitNS))

	// phase runs count bursts and relates the registry's byte and frame
	// counters and the process's allocations to the events they carried.
	type phaseResult struct {
		rate, allocs, allocBytes, wireBytes, ackFramesPerK float64
		bursts                                             []burstResult
	}
	phase := func(count, n int, payload bool) (out phaseResult, err error) {
		for i := 0; i < warmBursts; i++ {
			if b := rig.burst(e, n, payload); !b.ok {
				return out, errors.New("warm-up burst did not complete")
			}
		}
		sent0 := rig.sent
		bytes0 := counter(e.reg, "prism_transport_bytes_sent_total", "a")
		acks0 := counter(e.reg, "prism_batch_ack_frames_total", "b")
		a := startAllocs()
		for i := 0; i < count; i++ {
			b := rig.burst(e, n, payload)
			if !b.ok {
				return out, fmt.Errorf("burst %d did not complete", i)
			}
			out.bursts = append(out.bursts, b)
		}
		mallocs, mbytes := a.stop()
		events := float64(rig.sent - sent0)
		out.rate = medianRate(out.bursts)
		out.allocs, out.allocBytes = mallocs/events, mbytes/events
		out.wireBytes = (counter(e.reg, "prism_transport_bytes_sent_total", "a") - bytes0) / events
		out.ackFramesPerK = (counter(e.reg, "prism_batch_ack_frames_total", "b") - acks0) / events * 1000
		return out, nil
	}
	sat, err := phase(2, burstN, false)
	if err != nil {
		return fmt.Errorf("saturate: %w", err)
	}
	e.res.set("journey.events_per_s", sat.rate)
	e.res.set("prism.datapath.allocs_per_event", sat.allocs)
	e.res.set("prism.datapath.alloc_bytes_per_event", sat.allocBytes)
	e.res.set("prism.codec.wire_bytes_per_event", sat.wireBytes)
	e.res.set("prism.delivery.ack_frames_per_kevent", sat.ackFramesPerK)
	e.res.set("bench.trace_overhead_pct", (baseRate-sat.rate)/baseRate*100)
	pendingMax, depthMax := 0, 0
	settles := make([]float64, 0, len(sat.bursts))
	for _, b := range sat.bursts {
		pendingMax, depthMax = max(pendingMax, b.pendingMax), max(depthMax, b.depthMax)
		settles = append(settles, b.settleMS)
	}
	e.res.set("prism.delivery.pending_max", float64(pendingMax))
	e.res.set("prism.admission.depth_max", float64(depthMax))
	e.res.set("prism.delivery.ack_settle_ms", median(settles))
	pay, err := phase(2, e.count(10000, 500), true)
	if err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	e.res.set("journey.payload_events_per_s", pay.rate)
	e.res.set("prism.datapath.allocs_per_payload_event", pay.allocs)
	e.res.set("prism.codec.wire_bytes_per_payload_event", pay.wireBytes)
	rig.check(e.res, "events_steady")
	rig.a.mu.Lock()
	e.res.set("prism.delivery.tick_us", median(rig.a.tickUS))
	rig.a.mu.Unlock()
	deliveryCounters(e, hosts) // before the phases below, which shed and retransmit by design

	if err := probeCodec(e, pool); err != nil {
		return err
	}
	if err := probeRouteLocal(e); err != nil {
		return err
	}
	if err := probeTCPLeg(e); err != nil {
		return err
	}
	if err := rate100k(e, pool, r20.late.maxMS()); err != nil {
		return err
	}
	return overload(e, pool, hosts)
}

// rate100k is the open-loop phase at 100 000 ev/s, ≈ 55 % of saturation.
// It runs in the traced run only, on its own rig, and like overload it is
// a layer measurement rather than an operation count: this far up, one
// shed frame can tip the data path into a collapse it takes minutes to
// leave (README, finding 10), and that must not take a run's other
// figures with it. An event the phase loses shows as latency of
// settleLimit and in the note, not in failed.
func rate100k(e *env, pool payloadPool, late20k float64) error {
	rig, err := buildEventsRig(e, steadyQueueCap, pool)
	if err != nil {
		return err
	}
	defer rig.close()
	ops := newResult()
	quiet := *e
	quiet.res = ops
	r, err := rig.openLoop(&quiet, "rate_100k", 100000, e.span(3*time.Second))
	if err != nil {
		e.res.note("rate_100k: %v", err)
		return nil
	}
	e.res.set("prism.datapath.event_ms_p50_100k", r.lat.P50)
	e.res.set("prism.datapath.event_ms_p99_100k", r.lat.P99)
	e.res.set("prism.datapath.gen_late_ms_max", maxf(late20k, r.late.maxMS()))
	e.res.note("rate_100k: %v, %d of %d events not delivered within %v", r.lat, ops.failed, ops.attempted, settleLimit)
	return nil
}

// overloadRate is where the -shed-capacity default of 256 collapses on a
// 2-core machine: at 20 000 ev/s it sheds a few hundred frames and
// recovers, at 50 000 ev/s shedding and retransmission feed each other
// (README, finding 1). Capacity 4096 carries 100 000 ev/s without a shed.
const overloadRate = 50000

// overload offers overloadRate to a rig with the -shed-capacity default
// of 256 and reports how much arrived and how much was sent again. It is a
// layer measurement, not an operation count: events this phase loses are
// the finding, not a failure of the run.
func overload(e *env, pool payloadPool, hosts []string) error {
	rig, err := buildEventsRig(e, overloadQueueCap, pool)
	if err != nil {
		return err
	}
	defer rig.close()
	retrans0 := hostsTotal(e, "prism_app_retransmits_total", hosts)
	newSchedule(time.Now(), overloadRate, e.span(3*time.Second)).run(func(int) { rig.emit(false) })
	time.Sleep(e.span(time.Second))
	sent := float64(rig.sent)
	e.res.set("prism.delivery.overload_goodput_ratio", float64(rig.tap.delivered.Load())/sent)
	e.res.set("prism.delivery.overload_retransmit_amplification", (hostsTotal(e, "prism_app_retransmits_total", hosts)-retrans0)/sent)
	if d := rig.tap.dups.Load(); d != 0 {
		e.res.violate("overload: %d duplicate deliveries at the port", d)
	}
	return nil
}
