// Package netsim provides the simulated network substrate the paper's
// evaluation environment ran on. The paper's scenarios (DSN'04 §1, §5)
// run over fluctuating, unreliable wireless links between PDAs; this
// package reproduces that environment deterministically at laptop scale:
// a message fabric with per-link reliability (Bernoulli loss), bandwidth,
// and transmission delay, plus partitions and parameter-fluctuation
// processes.
//
// The fabric exercises exactly the code paths the framework's monitors
// and effectors depend on: reliability monitors observe real message
// loss, effectors ship serialized components across lossy links, and the
// fluctuators drive the analyzer's stability profile.
package netsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// Message is a payload delivered through the fabric.
type Message struct {
	From    model.HostID
	To      model.HostID
	SizeKB  float64
	Payload any
	// Latency is the simulated transfer latency the message experienced.
	Latency time.Duration
}

// Handler consumes messages delivered to an endpoint. Handlers run on the
// endpoint's dispatch goroutine; they must not block indefinitely.
type Handler func(Message)

// Errors reported by the fabric.
var (
	ErrUnknownHost  = errors.New("netsim: unknown host")
	ErrNoRoute      = errors.New("netsim: hosts not connected")
	ErrDropped      = errors.New("netsim: message dropped")
	ErrPartitioned  = errors.New("netsim: link partitioned")
	ErrHostDown     = errors.New("netsim: host down")
	ErrFabricClosed = errors.New("netsim: fabric closed")
)

// LinkState is the live state of one simulated link.
type LinkState struct {
	Reliability float64 // delivery probability [0,1]
	BandwidthKB float64 // KB/s
	Delay       time.Duration
	Partitioned bool
}

// DirKey identifies one direction of a link; it keys the per-direction
// loss streams.
type DirKey struct {
	From, To model.HostID
}

// LinkStats counts traffic over one link (both directions).
type LinkStats struct {
	Sent      int
	Delivered int
	Dropped   int
	BytesKB   float64
}

// Fabric is the simulated network: hosts, links, loss, delay, partitions.
// All methods are safe for concurrent use.
type Fabric struct {
	mu   sync.Mutex
	seed int64
	// loss holds one random stream per directed link, derived from
	// (seed, from, to) on first use, so a link's loss pattern depends
	// only on its own traffic — never on how goroutines sending over
	// other links happen to interleave.
	loss   map[DirKey]*rand.Rand
	links  map[model.HostPair]*linkEntry
	hosts  map[model.HostID]*endpoint
	down   map[model.HostID]bool
	closed bool

	// timeScale compresses simulated delays into wall-clock waits:
	// 0 disables waiting entirely (latency is still reported on the
	// message), 1.0 waits the full simulated delay (see waitFor).
	timeScale float64

	// bwAccurate enables queueing-accurate bandwidth modeling: each link
	// keeps a backlog of in-flight kilobytes, a send's latency includes
	// the time to drain the backlog ahead of it, and DrainBandwidth
	// advances virtual time. Without it (the default) each send is
	// charged only its own transmission time, as if every message had
	// the link to itself.
	bwAccurate bool
	// queueCapKB bounds each link's backlog when bwAccurate is on;
	// sends that would exceed it are tail-dropped deterministically.
	// 0 = unbounded (no drops — determinism-sensitive callers like the
	// chaos soak rely on this).
	queueCapKB float64

	// Nil-safe fabric-wide metric handles, wired by Instrument.
	sentTotal      *obs.Counter
	deliveredTotal *obs.Counter
	droppedTotal   *obs.Counter
	bytesKBTotal   *obs.Counter
	queueDropTotal *obs.Counter
}

type linkEntry struct {
	state LinkState
	stats LinkStats
	// backlogKB is the link's queued-but-untransmitted kilobytes under
	// bandwidth-accurate mode (both directions share the medium, as on
	// the paper's wireless links).
	backlogKB float64
}

type endpoint struct {
	id model.HostID

	mu      sync.Mutex
	handler Handler
	buf     []Message
	// busy is true while the dispatch goroutine is inside a handler —
	// the buffer may be empty yet the endpoint is not quiescent.
	busy   bool
	signal chan struct{} // capacity 1: "buffer non-empty" edge
	stop   chan struct{}
	done   chan struct{}
}

// NewFabric returns an empty fabric seeded for reproducible loss.
func NewFabric(seed int64) *Fabric {
	return &Fabric{
		seed:  seed,
		loss:  make(map[DirKey]*rand.Rand),
		links: make(map[model.HostPair]*linkEntry),
		hosts: make(map[model.HostID]*endpoint),
		down:  make(map[model.HostID]bool),
	}
}

// lossStream returns the directed link's own random stream. Caller
// holds f.mu.
func (f *Fabric) lossStream(k DirKey) *rand.Rand {
	rng := f.loss[k]
	if rng == nil {
		h := fnv.New64a()
		h.Write([]byte(k.From + "\x00" + k.To))
		rng = rand.New(rand.NewPCG(uint64(f.seed), h.Sum64()))
		f.loss[k] = rng
	}
	return rng
}

// Instrument registers fabric-wide traffic counters in reg (the
// per-link LinkStats stay authoritative for link-level queries).
func (f *Fabric) Instrument(reg *obs.Registry) {
	f.mu.Lock()
	f.sentTotal = reg.Counter("netsim_sent_total")
	f.deliveredTotal = reg.Counter("netsim_delivered_total")
	f.droppedTotal = reg.Counter("netsim_dropped_total")
	f.bytesKBTotal = reg.Counter("netsim_bytes_kb_total")
	f.queueDropTotal = reg.Counter("netsim_queue_drops_total")
	f.mu.Unlock()
}

// SetBandwidthAccurate toggles queueing-accurate bandwidth modeling:
// sends queue behind the link's existing backlog (latency includes the
// wait) and DrainBandwidth advances virtual time. capKB, when positive,
// bounds each link's backlog — an overflowing send is tail-dropped
// deterministically (no randomness involved); 0 keeps queues unbounded.
func (f *Fabric) SetBandwidthAccurate(on bool, capKB float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bwAccurate = on
	f.queueCapKB = capKB
	if !on {
		for _, entry := range f.links {
			entry.backlogKB = 0
		}
	}
}

// DrainBandwidth advances bandwidth-accurate virtual time by dt: every
// link transmits dt's worth of its backlog. Deterministic — drive it
// from the same clock that drives delivery ticks (the chaos runner does)
// or from a test loop; wall time never drains queues by itself.
func (f *Fabric) DrainBandwidth(dt time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.bwAccurate {
		return
	}
	secs := dt.Seconds()
	for _, entry := range f.links {
		if entry.state.BandwidthKB <= 0 || entry.backlogKB == 0 {
			continue
		}
		entry.backlogKB -= entry.state.BandwidthKB * secs
		if entry.backlogKB < 0 {
			entry.backlogKB = 0
		}
	}
}

// BacklogKB reports a link's queued kilobytes under bandwidth-accurate
// mode (0 when the mode is off or no link exists).
func (f *Fabric) BacklogKB(a, b model.HostID) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if entry, ok := f.links[model.MakeHostPair(a, b)]; ok {
		return entry.backlogKB
	}
	return 0
}

// SetTimeScale sets the wall-clock fraction of simulated delays (0
// disables waiting; latency is still computed and reported). Send
// blocks its caller for the scaled latency and never less: from 1 ms up
// it sleeps, and below that it yields the processor until the deadline,
// because a shorter sleep in an otherwise idle process parks until the
// runtime's next timer wakeup, about a millisecond later (see
// timerResolution). A virtual clock driving every delay would replace
// this rule.
func (f *Fabric) SetTimeScale(scale float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.timeScale = scale
}

// AddHost registers a host and starts its dispatch goroutine. The handler
// may be nil initially and set later with SetHandler.
func (f *Fabric) AddHost(id model.HostID, h Handler) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFabricClosed
	}
	if _, ok := f.hosts[id]; ok {
		return fmt.Errorf("netsim: host %s already registered", id)
	}
	ep := &endpoint{
		id:      id,
		handler: h,
		signal:  make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	f.hosts[id] = ep
	go ep.dispatch()
	return nil
}

// SetHandler replaces the message handler for a host.
func (f *Fabric) SetHandler(id model.HostID, h Handler) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.hosts[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, id)
	}
	ep.mu.Lock()
	ep.handler = h
	ep.mu.Unlock()
	return nil
}

// enqueue appends a message to the endpoint's unbounded buffer. Sends
// never block: simulated hosts may synchronously fan out large message
// batches from within their own handlers without deadlocking the fabric.
func (ep *endpoint) enqueue(msg Message) {
	ep.mu.Lock()
	ep.buf = append(ep.buf, msg)
	ep.mu.Unlock()
	select {
	case ep.signal <- struct{}{}:
	default:
	}
}

// drainOnce delivers every currently buffered message and reports
// whether any were delivered.
func (ep *endpoint) drainOnce() bool {
	ep.mu.Lock()
	msgs := ep.buf
	ep.buf = nil
	handler := ep.handler
	if len(msgs) > 0 {
		ep.busy = true
	}
	ep.mu.Unlock()
	for _, msg := range msgs {
		if handler != nil {
			handler(msg)
		}
	}
	if len(msgs) > 0 {
		ep.mu.Lock()
		ep.busy = false
		ep.mu.Unlock()
	}
	return len(msgs) > 0
}

func (ep *endpoint) dispatch() {
	defer close(ep.done)
	for {
		select {
		case <-ep.signal:
			ep.drainOnce()
		case <-ep.stop:
			// Drain anything already queued, then exit.
			for ep.drainOnce() {
			}
			return
		}
	}
}

// Idle reports whether the fabric is quiescent: every endpoint's buffer
// is empty and no handler is mid-delivery. A true result is only a
// point-in-time observation — handlers may send again immediately — so
// callers poll it inside settle loops rather than treating it as a
// barrier.
func (f *Fabric) Idle() bool {
	f.mu.Lock()
	eps := make([]*endpoint, 0, len(f.hosts))
	for _, ep := range f.hosts {
		eps = append(eps, ep)
	}
	f.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		quiet := len(ep.buf) == 0 && !ep.busy
		ep.mu.Unlock()
		if !quiet {
			return false
		}
	}
	return true
}

// Crash takes a host down: every send to or from it fails with
// ErrHostDown and anything queued for delivery is discarded (a crashed
// host's memory is gone). The host stays registered so Recover can bring
// it back. Crashing an unknown host or an already-down host is a no-op
// that reports false.
func (f *Fabric) Crash(h model.HostID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.hosts[h]
	if !ok || f.down[h] {
		return false
	}
	f.down[h] = true
	ep.mu.Lock()
	ep.buf = nil
	ep.mu.Unlock()
	return true
}

// Recover brings a crashed host back up. The endpoint's handler is
// whatever was last installed; a restarted runtime replaces it via
// SetHandler (NewNetsimTransport does so). Reports whether the host was
// down.
func (f *Fabric) Recover(h model.HostID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.down[h] {
		return false
	}
	delete(f.down, h)
	return true
}

// Down reports whether a host is currently crashed.
func (f *Fabric) Down(h model.HostID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[h]
}

// DownHosts returns the crashed hosts, sorted.
func (f *Fabric) DownHosts() []model.HostID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]model.HostID, 0, len(f.down))
	for h := range f.down {
		out = append(out, h)
	}
	sortHostIDs(out)
	return out
}

// Connect creates (or reconfigures) a link between two hosts.
func (f *Fabric) Connect(a, b model.HostID, state LinkState) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.hosts[a]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, a)
	}
	if _, ok := f.hosts[b]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, b)
	}
	if a == b {
		return fmt.Errorf("netsim: cannot link %s to itself", a)
	}
	pair := model.MakeHostPair(a, b)
	if entry, ok := f.links[pair]; ok {
		entry.state = state
		return nil
	}
	f.links[pair] = &linkEntry{state: state}
	return nil
}

// Disconnect removes the link between two hosts.
func (f *Fabric) Disconnect(a, b model.HostID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.links, model.MakeHostPair(a, b))
}

// SetPartitioned marks the link between two hosts as partitioned (or
// heals it). A partitioned link drops every message but keeps its
// parameters.
func (f *Fabric) SetPartitioned(a, b model.HostID, partitioned bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, ok := f.links[model.MakeHostPair(a, b)]
	if !ok {
		return ErrNoRoute
	}
	entry.state.Partitioned = partitioned
	return nil
}

// Link returns the live state of the link between two hosts.
func (f *Fabric) Link(a, b model.HostID) (LinkState, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, ok := f.links[model.MakeHostPair(a, b)]
	if !ok {
		return LinkState{}, false
	}
	return entry.state, true
}

// Stats returns the traffic counters for the link between two hosts.
func (f *Fabric) Stats(a, b model.HostID) (LinkStats, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, ok := f.links[model.MakeHostPair(a, b)]
	if !ok {
		return LinkStats{}, false
	}
	return entry.stats, true
}

// ResetStats zeroes all traffic counters.
func (f *Fabric) ResetStats() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, entry := range f.links {
		entry.stats = LinkStats{}
	}
}

// Send transmits a message. Local sends (from == to) always succeed with
// zero latency. Remote sends fail with ErrNoRoute when no link exists,
// ErrPartitioned when the link is partitioned, and ErrDropped when the
// Bernoulli loss process eats the message. On success the message is
// enqueued to the destination and its simulated latency reported.
func (f *Fabric) Send(from, to model.HostID, sizeKB float64, payload any) (time.Duration, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrFabricClosed
	}
	dst, ok := f.hosts[to]
	if !ok {
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrUnknownHost, to)
	}
	if _, ok := f.hosts[from]; !ok {
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrUnknownHost, from)
	}
	if f.down[from] || f.down[to] {
		if entry, ok := f.links[model.MakeHostPair(from, to)]; ok && from != to {
			entry.stats.Sent++
			entry.stats.Dropped++
			f.sentTotal.Inc()
			f.droppedTotal.Inc()
		}
		f.mu.Unlock()
		return 0, ErrHostDown
	}

	var latency time.Duration
	dropped := false
	if from != to {
		entry, ok := f.links[model.MakeHostPair(from, to)]
		if !ok {
			f.mu.Unlock()
			return 0, ErrNoRoute
		}
		entry.stats.Sent++
		entry.stats.BytesKB += sizeKB
		f.sentTotal.Inc()
		f.bytesKBTotal.Add(sizeKB)
		if entry.state.Partitioned {
			entry.stats.Dropped++
			f.droppedTotal.Inc()
			f.mu.Unlock()
			return 0, ErrPartitioned
		}
		if f.bwAccurate && entry.state.BandwidthKB > 0 &&
			f.queueCapKB > 0 && entry.backlogKB+sizeKB > f.queueCapKB {
			// Queue overflow: tail-drop before the loss process so the
			// drop is deterministic (no randomness consumed).
			entry.stats.Dropped++
			f.droppedTotal.Inc()
			f.queueDropTotal.Inc()
			f.mu.Unlock()
			return 0, ErrDropped
		}
		latency = entry.state.Delay
		if entry.state.BandwidthKB > 0 {
			if f.bwAccurate {
				// Queueing delay: this message waits behind the link's
				// current backlog before its own transmission time.
				latency += time.Duration(entry.backlogKB / entry.state.BandwidthKB * float64(time.Second))
				entry.backlogKB += sizeKB
			}
			latency += time.Duration(sizeKB / entry.state.BandwidthKB * float64(time.Second))
		}
		if f.lossStream(DirKey{From: from, To: to}).Float64() >= entry.state.Reliability {
			// The sender still pays the transfer time before discovering
			// the loss — retransmissions are not free.
			entry.stats.Dropped++
			f.droppedTotal.Inc()
			dropped = true
		} else {
			entry.stats.Delivered++
			f.deliveredTotal.Inc()
		}
	}
	scale := f.timeScale
	f.mu.Unlock()

	if scale > 0 && latency > 0 {
		waitFor(time.Duration(float64(latency) * scale))
	}
	if dropped {
		return 0, ErrDropped
	}
	select {
	case <-dst.stop:
		return 0, ErrFabricClosed
	default:
	}
	dst.enqueue(Message{From: from, To: to, SizeKB: sizeKB, Payload: payload, Latency: latency})
	return latency, nil
}

// timerResolution is the shortest wait time.Sleep keeps to when the
// process is otherwise idle: a shorter sleep lasts until the runtime's
// next netpoll wakeup, about a millisecond later. On a 2-core x86-64
// Linux box with Go 1.24, an idle Sleep(20µs) took 0.62 ms and
// Sleep(300µs) 1.10 ms.
const timerResolution = time.Millisecond

// waitFor blocks the caller for d: with time.Sleep from timerResolution
// up, and below it by yielding the processor until the deadline passes,
// so a microsecond link delay costs microseconds.
func waitFor(d time.Duration) {
	if d >= timerResolution {
		time.Sleep(d)
		return
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// Hosts returns the registered host IDs, sorted.
func (f *Fabric) Hosts() []model.HostID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]model.HostID, 0, len(f.hosts))
	for id := range f.hosts {
		out = append(out, id)
	}
	sortHostIDs(out)
	return out
}

// Close stops every endpoint's dispatch goroutine and waits for them to
// exit. Further sends fail with ErrFabricClosed.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	eps := make([]*endpoint, 0, len(f.hosts))
	for _, ep := range f.hosts {
		eps = append(eps, ep)
	}
	f.mu.Unlock()
	for _, ep := range eps {
		close(ep.stop)
	}
	for _, ep := range eps {
		<-ep.done
	}
}

func sortHostIDs(ids []model.HostID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// FromModel builds a fabric mirroring a system model's hosts and physical
// links: reliability, bandwidth, and delay are copied from the model's
// link parameters.
func FromModel(s *model.System, seed int64) (*Fabric, error) {
	f := NewFabric(seed)
	for _, h := range s.HostIDs() {
		if err := f.AddHost(h, nil); err != nil {
			return nil, err
		}
	}
	for _, pair := range s.LinkKeys() {
		l := s.Links[pair]
		state := LinkState{
			Reliability: l.Reliability(),
			BandwidthKB: l.Bandwidth(),
			Delay:       time.Duration(l.Delay() * float64(time.Millisecond)),
		}
		if err := f.Connect(pair.A, pair.B, state); err != nil {
			return nil, err
		}
	}
	return f, nil
}
