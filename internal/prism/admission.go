package prism

import (
	"sync"

	"dif/internal/obs"
)

// Overload protection on the receive path. Without it, a saturating
// app-traffic flood and the control plane share one inbound dispatch
// path: heartbeats queue behind bulk frames, the failure detector reads
// the resulting silence as death, and the cure (replanning) arrives
// exactly when the system can least afford it. The admission controller
// classifies every decoded inbound frame, holds it in a bounded
// per-class FIFO, and dispatches strictly highest-class-first:
//
//	ClassLiveness  lease + heartbeat frames   (detector food — never starves)
//	ClassControl   wave / goal / report frames
//	ClassApp       application traffic, pings, app-delivery acks
//
// When a class queue is full the arriving frame of that class is shed —
// so overload in a low class can never displace a higher one, and a
// flood sheds lowest-first. Shed frames are counted per class in
// prism_shed_total{class=...}; the app layer's end-to-end retransmission
// recovers shed app frames, and the control plane's own resend loops
// recover the (never-shed-by-app-pressure) control classes.
//
// Admission is opt-in (EnableAdmission); the default receive path stays
// synchronous and unbounded, which is the right trade for drills that
// need deterministic inline dispatch.

// ShedClass is an inbound frame's admission priority class.
type ShedClass int

// Priority classes, highest first.
const (
	ClassLiveness ShedClass = iota
	ClassControl
	ClassApp
	numShedClasses
)

// String returns the class label used on metrics.
func (c ShedClass) String() string {
	switch c {
	case ClassLiveness:
		return "liveness"
	case ClassControl:
		return "control"
	default:
		return "app"
	}
}

// ClassifyFrame maps a decoded inbound event to its admission class.
func ClassifyFrame(e Event) ShedClass {
	if e.kind() != KindControl {
		return ClassApp // application traffic and pings
	}
	switch e.Name {
	case EvHeartbeat, EvLeaseRequest, EvLeaseGrant:
		return ClassLiveness
	case EvAppAckBatch, EvAppBounce:
		// App-delivery machinery rides control frames but serves app
		// traffic; shedding it is recovered by app retransmission.
		return ClassApp
	default:
		// Wave, goal-state, report, replication, and relay frames: the
		// control plane's own retransmission layers back them.
		return ClassControl
	}
}

// AdmissionConfig tunes the receive-path admission controller.
type AdmissionConfig struct {
	Enabled bool
	// QueueCap bounds each class queue (default DefaultQueueCap frames).
	// Queues grow on demand, so a large bound costs nothing while idle.
	QueueCap int
	// Manual disables the built-in dispatch pump; the owner drains
	// explicitly via Drain (deterministic tests).
	Manual bool
}

// DefaultQueueCap is the per-class admission bound when none is given:
// deep enough that coalesced TCP bursts at 100 k events/s are admitted
// whole (256 collapsed into retransmission storms at 50 k).
const DefaultQueueCap = 4096

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	return c
}

// AdmissionController is the bounded, class-prioritized receive queue.
type AdmissionController struct {
	cfg      AdmissionConfig
	dispatch func(Event)

	mu     sync.Mutex
	cond   *sync.Cond
	queues [numShedClasses]ring[Event] // grown on demand, bounded by QueueCap
	closed bool
	done   chan struct{}

	shed  [numShedClasses]*obs.Counter
	depth [numShedClasses]*obs.Gauge
}

func newAdmissionController(cfg AdmissionConfig, dispatch func(Event)) *AdmissionController {
	a := &AdmissionController{cfg: cfg.withDefaults(), dispatch: dispatch}
	a.cond = sync.NewCond(&a.mu)
	if !a.cfg.Manual {
		a.done = make(chan struct{})
		go a.pump()
	}
	return a
}

// instrument registers the controller's shed counters and queue-depth
// gauges, labelled by host and class.
func (a *AdmissionController) instrument(reg *obs.Registry, host string) {
	a.mu.Lock()
	for c := ShedClass(0); c < numShedClasses; c++ {
		a.shed[c] = reg.Counter(obs.Name("prism_shed_total", "class", c.String(), "host", host))
		a.depth[c] = reg.Gauge(obs.Name("prism_admission_depth", "class", c.String(), "host", host))
	}
	a.mu.Unlock()
}

// Enqueue admits or sheds one decoded inbound frame.
func (a *AdmissionController) Enqueue(e Event) {
	c := ClassifyFrame(e)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	q := &a.queues[c]
	if q.n >= a.cfg.QueueCap {
		a.shed[c].Inc()
		a.mu.Unlock()
		return
	}
	q.push(e, a.cfg.QueueCap)
	a.depth[c].Set(float64(q.n))
	a.mu.Unlock()
	a.cond.Signal()
}

// popLocked removes the highest-priority queued frame. Callers hold a.mu.
func (a *AdmissionController) popLocked() (Event, bool) {
	for c := ShedClass(0); c < numShedClasses; c++ {
		if q := &a.queues[c]; q.n > 0 {
			e := q.pop()
			a.depth[c].Set(float64(q.n))
			return e, true
		}
	}
	return Event{}, false
}

// pump dispatches queued frames, highest class first, until Close.
func (a *AdmissionController) pump() {
	defer close(a.done)
	for {
		a.mu.Lock()
		for {
			if a.closed {
				a.mu.Unlock()
				return
			}
			if e, ok := a.popLocked(); ok {
				a.mu.Unlock()
				a.dispatch(e)
				break
			}
			a.cond.Wait()
		}
	}
}

// Drain synchronously dispatches up to n queued frames in priority
// order (manual mode), returning how many it dispatched. n < 0 drains
// everything queued.
func (a *AdmissionController) Drain(n int) int {
	dispatched := 0
	for n < 0 || dispatched < n {
		a.mu.Lock()
		e, ok := a.popLocked()
		a.mu.Unlock()
		if !ok {
			break
		}
		a.dispatch(e)
		dispatched++
	}
	return dispatched
}

// Depth returns the current queue depth for one class.
func (a *AdmissionController) Depth(c ShedClass) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queues[c].n
}

// Close stops the pump and discards queued frames.
func (a *AdmissionController) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	a.cond.Broadcast()
	if a.done != nil {
		<-a.done
	}
}
