package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"dif/internal/prism"
)

const (
	eventName   = "bench.ev"
	eventSizeKB = 0.2
	moverType   = "bench.mover"
	// traceEvery is the event sampling rate of the traced run: one event
	// in traceEvery gets spans.
	traceEvery = 64
)

// seqSet is the set of sequence numbers a port has received from one
// origin stream: everything up to floor, plus the out-of-order residue.
// It is how exactly-once is checked, and it is small enough to travel in
// a mover's snapshot.
type seqSet struct {
	floor uint64
	above map[uint64]struct{}
}

// add records seq and reports whether it was new.
func (s *seqSet) add(seq uint64) bool {
	if seq <= s.floor {
		return false
	}
	if _, dup := s.above[seq]; dup {
		return false
	}
	if seq != s.floor+1 {
		if s.above == nil {
			s.above = make(map[uint64]struct{})
		}
		s.above[seq] = struct{}{}
		return true
	}
	s.floor = seq
	for len(s.above) > 0 {
		if _, ok := s.above[s.floor+1]; !ok {
			break
		}
		delete(s.above, s.floor+1)
		s.floor++
	}
	return true
}

// complete reports whether exactly 1..n were received.
func (s *seqSet) complete(n uint64) bool { return s.floor == n && len(s.above) == 0 }

// tap is where every port of a workload reports its deliveries. It lives
// outside the components so that it survives their migrations. During an
// open-loop phase it turns a sequence number back into the time the
// event was due — the schedule is arithmetic, so the generator and the
// ports share no memory — and keeps the due→Handle latency.
type tap struct {
	delivered atomic.Int64
	dups      atomic.Int64
	corrupt   atomic.Int64

	mu     sync.Mutex
	sched  *schedule
	stride int      // ports the schedule round-robins over
	base   []uint64 // per port: its last sequence number before the phase
	latMS  []float64
	// handled holds the Handle time of each sampled operation of the
	// phase in a traced run (nil otherwise), indexed by op/traceEvery.
	handled []time.Time
}

// begin arms latency recording for an open-loop phase.
func (t *tap) begin(s schedule, base []uint64, traced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sched, t.stride, t.base = &s, len(base), append([]uint64(nil), base...)
	t.latMS = make([]float64, 0, s.n)
	t.handled = nil
	if traced {
		t.handled = make([]time.Time, s.n/traceEvery+1)
	}
}

// end disarms recording and returns what the phase collected.
func (t *tap) end() (latMS []float64, handled []time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	latMS, handled = t.latMS, t.handled
	t.sched, t.latMS, t.handled = nil, nil, nil
	return latMS, handled
}

func (t *tap) deliver(port int, seq uint64, now time.Time) {
	t.delivered.Add(1)
	t.mu.Lock()
	if t.sched != nil && seq > t.base[port] {
		op := int(seq-t.base[port]-1)*t.stride + port
		if op < t.sched.n {
			t.latMS = append(t.latMS, float64(now.Sub(t.sched.due(op)))/1e6)
			if t.handled != nil && op%traceEvery == 0 {
				t.handled[op/traceEvery] = now
			}
		}
	}
	t.mu.Unlock()
}

// waitDelivered blocks until n deliveries were counted or the timeout passes.
func (t *tap) waitDelivered(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.delivered.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// payloadPool is the seeded set of payload bodies; an event with sequence
// number seq carries pool[seq%len(pool)], which the port checks.
type payloadPool [][]byte

func (p payloadPool) forSeq(seq uint64) []byte { return p[seq%uint64(len(p))] }

// sink is the receiving application component: it checks exactly-once
// per origin stream and payload integrity, and reports to the tap.
type sink struct {
	prism.BaseComponent
	port int
	tap  *tap
	pool payloadPool

	mu   sync.Mutex
	seen seqSet
}

func newSink(id string, port int, t *tap, pool payloadPool) *sink {
	return &sink{BaseComponent: prism.NewBaseComponent(id), port: port, tap: t, pool: pool}
}

func (s *sink) Handle(e prism.Event) {
	if e.Name != eventName || e.Seq == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	fresh := s.seen.add(e.Seq)
	s.mu.Unlock()
	if !fresh {
		s.tap.dups.Add(1)
		return
	}
	if p, ok := e.Payload.([]byte); ok && !bytes.Equal(p, s.pool.forSeq(e.Seq)) {
		s.tap.corrupt.Add(1)
	}
	s.tap.deliver(s.port, e.Seq, now)
}

func (s *sink) received() seqSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// mover is a sink that can migrate. Its snapshot carries the received set
// and an opaque state blob of the size the phase asks for. Exactly-once
// is judged against the moverBook's per-port sets, which live outside the
// instances: an event the departing instance handles after its snapshot
// was taken is delivered once at a port, yet missing from the carried
// set — the book counts those separately (README, finding 5).
type mover struct {
	sink
	book    *moverBook
	state   []byte
	snapped bool // under sink.mu: Snapshot has run on this instance
}

// moverBook is the movers' shared ledger: the authoritative received
// sets, and the Snapshot→Restore timestamps that give the transfer time
// of a wave.
type moverBook struct {
	tap   *tap
	ports map[string]int

	mu        sync.Mutex
	seen      []seqSet
	afterSnap int64 // events handled by an instance whose snapshot was already taken
	snapAt    map[string]time.Time
	transfers []float64 // ms, Snapshot → Restore of one mover
}

func newMoverBook(t *tap, ids []string) *moverBook {
	b := &moverBook{tap: t, ports: make(map[string]int), seen: make([]seqSet, len(ids)), snapAt: make(map[string]time.Time)}
	for i, id := range ids {
		b.ports[id] = i
	}
	return b
}

func (b *moverBook) factory(id string) prism.Migratable { return b.newMover(id, nil) }

func (b *moverBook) newMover(id string, state []byte) *mover {
	m := &mover{book: b, state: state}
	m.BaseComponent = prism.NewBaseComponent(id)
	m.port, m.tap = b.ports[id], b.tap
	return m
}

func (m *mover) Handle(e prism.Event) {
	if e.Name != eventName || e.Seq == 0 {
		return
	}
	now := time.Now()
	m.mu.Lock()
	m.seen.add(e.Seq)
	snapped := m.snapped
	m.mu.Unlock()
	m.book.mu.Lock()
	fresh := m.book.seen[m.port].add(e.Seq)
	if snapped {
		m.book.afterSnap++
	}
	m.book.mu.Unlock()
	if !fresh {
		m.tap.dups.Add(1)
		return
	}
	m.tap.deliver(m.port, e.Seq, now)
}

func (m *mover) TypeName() string { return moverType }

// Snapshot layout: floor | residue count | residue... | state blob.
func (m *mover) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, 0, 16+8*len(m.seen.above)+len(m.state))
	out = binary.LittleEndian.AppendUint64(out, m.seen.floor)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(m.seen.above)))
	for seq := range m.seen.above {
		out = binary.LittleEndian.AppendUint64(out, seq)
	}
	out = append(out, m.state...)
	m.snapped = true
	m.book.mu.Lock()
	m.book.snapAt[m.ID()] = time.Now()
	m.book.mu.Unlock()
	return out, nil
}

func (m *mover) Restore(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("mover %s: snapshot of %d bytes", m.ID(), len(data))
	}
	floor := binary.LittleEndian.Uint64(data)
	n := binary.LittleEndian.Uint64(data[8:])
	if uint64(len(data)-16) < 8*n {
		return fmt.Errorf("mover %s: truncated snapshot", m.ID())
	}
	m.mu.Lock()
	m.seen = seqSet{floor: floor}
	for i := uint64(0); i < n; i++ {
		m.seen.add(binary.LittleEndian.Uint64(data[16+8*i:]))
	}
	m.state = append([]byte(nil), data[16+8*n:]...)
	m.mu.Unlock()
	now := time.Now()
	m.book.mu.Lock()
	if at, ok := m.book.snapAt[m.ID()]; ok {
		m.book.transfers = append(m.book.transfers, float64(now.Sub(at))/1e6)
		delete(m.book.snapAt, m.ID())
	}
	m.book.mu.Unlock()
	return nil
}

// setState replaces the blob the mover carries (between phases).
func (m *mover) setState(state []byte) {
	m.mu.Lock()
	m.state = state
	m.mu.Unlock()
}

func (m *mover) stateHash() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return hashBytes(m.state)
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// source is the generator's component: a bare emitter.
type source struct{ prism.BaseComponent }

func newSource(id string) *source { return &source{prism.NewBaseComponent(id)} }

func (*source) Handle(prism.Event) {}
