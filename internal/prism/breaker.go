package prism

import (
	"errors"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// Per-peer circuit breaker for the control plane. Every control send is
// one attempt, re-driven by the loop that owns its exchange; toward a
// *gray* peer — one that keeps failing for seconds at a time — those
// loops would keep paying for attempts that fail. The breaker converts
// sustained failure into fail-fast: after FailureThreshold consecutive
// observable failures the circuit opens and sends toward that peer
// return ErrBreakerOpen immediately; after Cooldown one probe
// (ProbeBudget concurrent) is let through half-open, and its outcome
// either closes the circuit or re-opens it. Recovery needs no dedicated
// path: the deployer's resend loops and the goal-state re-announce keep
// calling send, so the first post-recovery probe succeeds and traffic
// resumes.

// BreakerConfig tunes the per-peer circuit breaker. The zero value is
// disabled: symmetric partitions are meant to be ridden out by the
// re-drive loops.
type BreakerConfig struct {
	Enabled bool
	// FailureThreshold is how many consecutive observable send failures
	// (partitions, transport errors) open the circuit (default 5).
	FailureThreshold int
	// Cooldown is how long an open circuit rejects sends before
	// half-opening for a probe (default 500ms).
	Cooldown time.Duration
	// ProbeBudget bounds concurrent half-open probes (default 1).
	ProbeBudget int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 1
	}
	return c
}

// ErrBreakerOpen is returned (fail-fast) while the circuit toward a
// peer is open, or half-open with its probe budget spent.
var ErrBreakerOpen = errors.New("prism: circuit open toward peer")

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

type circuitBreaker struct {
	cfg   BreakerConfig
	clock func() time.Time
	// counter resolves a host+peer-labelled counter lazily (the obs
	// registry may be wired after construction); may return nil handles.
	counter func(base string, peer model.HostID) *obs.Counter

	mu    sync.Mutex
	peers map[model.HostID]*peerBreaker
}

type peerBreaker struct {
	state    breakerState
	fails    int
	openedAt time.Time
	probes   int // half-open probes currently in flight
}

func newCircuitBreaker(cfg BreakerConfig, clock func() time.Time, counter func(string, model.HostID) *obs.Counter) *circuitBreaker {
	if clock == nil {
		clock = time.Now
	}
	if counter == nil {
		counter = func(string, model.HostID) *obs.Counter { return nil }
	}
	return &circuitBreaker{
		cfg:     cfg.withDefaults(),
		clock:   clock,
		counter: counter,
		peers:   make(map[model.HostID]*peerBreaker),
	}
}

func (b *circuitBreaker) peer(id model.HostID) *peerBreaker {
	p, ok := b.peers[id]
	if !ok {
		p = &peerBreaker{}
		b.peers[id] = p
	}
	return p
}

// Acquire admits (or fail-fast rejects) one send toward peer. On
// admission it returns a release callback the sender must invoke exactly
// once with whether the send succeeded.
func (b *circuitBreaker) Acquire(peer model.HostID) (func(ok bool), error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peer(peer)
	if p.state == breakerOpen {
		if b.clock().Sub(p.openedAt) < b.cfg.Cooldown {
			return nil, ErrBreakerOpen
		}
		p.state = breakerHalfOpen
		p.probes = 0
	}
	probe := p.state == breakerHalfOpen
	if probe {
		if p.probes >= b.cfg.ProbeBudget {
			return nil, ErrBreakerOpen
		}
		p.probes++
		b.counter("prism_breaker_probes_total", peer).Inc()
	}
	return func(ok bool) { b.release(peer, probe, ok) }, nil
}

func (b *circuitBreaker) release(peer model.HostID, probe, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peer(peer)
	switch {
	case probe:
		p.probes--
		if ok {
			p.state = breakerClosed
			p.fails = 0
		} else {
			b.open(p, peer)
		}
	case ok:
		p.fails = 0
	default:
		p.fails++
		if p.state == breakerClosed && p.fails >= b.cfg.FailureThreshold {
			b.open(p, peer)
		}
	}
}

func (b *circuitBreaker) open(p *peerBreaker, peer model.HostID) {
	p.state = breakerOpen
	p.openedAt = b.clock()
	b.counter("prism_breaker_open_total", peer).Inc()
}

// State reports the circuit state toward peer (tests and diagnostics).
func (b *circuitBreaker) State(peer model.HostID) breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.peers[peer]
	if !ok {
		return breakerClosed
	}
	// An open circuit past its cooldown is morally half-open; report
	// the stored state — Acquire performs the actual transition.
	return p.state
}

// Reset clears the circuit toward peer (a resurrected host starts with
// a clean slate).
func (b *circuitBreaker) Reset(peer model.HostID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.peers, peer)
}
