// Liveness layer: admins heartbeat the deployer over the existing
// Transport, and its failure detector keeps one record per peer (peerCore,
// peer.go) that turns silence into HostSuspect and HostDead, gray-failure
// evidence into HostDegraded, and only a greater incarnation back from
// dead. The paper's motivating scenario is hosts *disappearing* (PDAs
// dropping off the network); this layer lets the framework notice and
// replan instead of wedging. Time is always an injected clock, never a
// sleep, so whole-stack crash drills are seeded and deterministic.
package prism

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"dif/internal/model"
)

// EvHeartbeat is the control-plane liveness beacon admins send to the
// deployer host.
const EvHeartbeat = "admin.heartbeat"

// Heartbeat is the liveness beacon payload. Components carries the
// sender's current component manifest so a rejoining host resyncs its
// inventory in the same message that resurrects it.
type Heartbeat struct {
	Host        model.HostID
	Incarnation uint64
	Seq         uint64
	Components  []string
}

// HostState is a host's liveness state as seen by a FailureDetector.
type HostState int

// Liveness states. Unknown hosts have never been watched or heard from.
// HostDegraded sits between Up and Suspect: the host is limping — its
// heartbeats still arrive, but its health score (failed sends, heartbeat
// jitter) fell below the band — so the planner steers new placements
// away without the detector ever declaring it dead.
const (
	HostUnknown HostState = iota
	HostUp
	HostDegraded
	HostSuspect
	HostDead
)

var hostStateNames = [...]string{"unknown", "up", "degraded", "suspect", "dead"}

// String returns the state name.
func (s HostState) String() string {
	if s < HostUp || s > HostDead {
		return "unknown"
	}
	return hostStateNames[s]
}

// Transition is one published liveness state change.
type Transition struct {
	Host        model.HostID
	From, To    HostState
	Incarnation uint64
	At          time.Time
}

// Default silence bounds: suspect after two missed 1s heartbeats, dead
// after five.
const (
	DefaultSuspectAfter = 2 * time.Second
	DefaultDeadAfter    = 5 * time.Second
)

// FailureDetector is the shell of the per-peer records: it feeds each
// peerCore its heartbeats, send outcomes, ticks and grades, publishes the
// transitions to subscribers, and keeps the peers' manifests. All methods
// are safe for concurrent use.
type FailureDetector struct {
	mu                      sync.Mutex
	now                     func() time.Time
	suspectAfter, deadAfter time.Duration
	peers                   map[model.HostID]*peerCore
	manifest                map[model.HostID][]string
	subs                    []func(Transition)
}

// NewFailureDetector returns a detector that suspects a peer after
// suspectAfter without a heartbeat and declares it dead after deadAfter;
// zero durations select the defaults.
func NewFailureDetector(suspectAfter, deadAfter time.Duration) *FailureDetector {
	return &FailureDetector{
		now:          time.Now,
		suspectAfter: cmp.Or(suspectAfter, DefaultSuspectAfter),
		deadAfter:    cmp.Or(deadAfter, DefaultDeadAfter),
		peers:        make(map[model.HostID]*peerCore),
		manifest:     make(map[model.HostID][]string),
	}
}

// SetClock injects the detector's time source (tests and drills).
func (fd *FailureDetector) SetClock(now func() time.Time) {
	fd.mu.Lock()
	fd.now = now
	fd.mu.Unlock()
}

// Subscribe registers a callback invoked (outside the detector's lock)
// for every published transition.
func (fd *FailureDetector) Subscribe(fn func(Transition)) {
	fd.mu.Lock()
	fd.subs = append(fd.subs, fn)
	fd.mu.Unlock()
}

// peer returns host's record, creating it. Callers hold fd.mu.
func (fd *FailureDetector) peer(host model.HostID) *peerCore {
	if fd.peers[host] == nil {
		c := newPeerCore(host, fd.suspectAfter, fd.deadAfter)
		fd.peers[host] = &c
	}
	return fd.peers[host]
}

// step feeds in to the hosts' records, or to every record in host order
// when none is named; a zero in.at is read from the clock. It publishes
// the transitions outside the lock and returns them.
func (fd *FailureDetector) step(in peerInput, hosts ...model.HostID) []Transition {
	fd.mu.Lock()
	if in.at.IsZero() {
		in.at = fd.now()
	}
	if len(hosts) == 0 {
		hosts = fd.hosts()
	}
	var trans []Transition
	for _, h := range hosts {
		trans = append(trans, fd.peer(h).step(in)...)
	}
	subs := append([]func(Transition){}, fd.subs...)
	fd.mu.Unlock()
	for _, tr := range trans {
		for _, fn := range subs {
			fn(tr)
		}
	}
	return trans
}

// Watch registers a host as expected-alive at the given instant, so its
// silence is noticed even if it never heartbeats. A host already heard
// from is left as it is.
func (fd *FailureDetector) Watch(host model.HostID, at time.Time) {
	fd.mu.Lock()
	p := fd.peer(host)
	if p.verdict == HostUnknown {
		p.step(peerInput{kind: peerBeat, inc: p.inc, at: at})
	}
	fd.mu.Unlock()
}

// Observe is ObserveAt the injected clock's current time.
func (fd *FailureDetector) Observe(host model.HostID, incarnation uint64) []Transition {
	return fd.step(peerInput{kind: peerBeat, inc: incarnation}, host)
}

// ObserveAt feeds a heartbeat with an explicit arrival time. A heartbeat
// from a dead host resurrects it only when its incarnation is strictly
// greater than the one that died; equal-or-lower incarnations are
// replayed frames from the dead lifetime and are ignored.
func (fd *FailureDetector) ObserveAt(host model.HostID, incarnation uint64, at time.Time) []Transition {
	return fd.step(peerInput{kind: peerBeat, inc: incarnation, at: at}, host)
}

// RecordSend folds one control-send outcome toward host into its health
// score: ok for an answered request, not ok for an unanswered one or a
// re-drive (the previous attempt did not land).
func (fd *FailureDetector) RecordSend(host model.HostID, ok bool) {
	fd.step(peerInput{kind: peerSent, ok: ok}, host)
}

// Evaluate is EvaluateAt the injected clock's current time.
func (fd *FailureDetector) Evaluate() []Transition {
	return fd.step(peerInput{kind: peerTick})
}

// EvaluateAt judges every host's silence at the given instant and
// returns (and publishes) the transitions, in sorted host order. Dead
// hosts stay dead until an incarnation-bumped heartbeat resurrects them.
func (fd *FailureDetector) EvaluateAt(now time.Time) []Transition {
	return fd.step(peerInput{kind: peerTick, at: now})
}

// Grade applies the health band to every host at the injected clock's
// time and returns (and publishes) the transitions, in sorted host order.
func (fd *FailureDetector) Grade() []Transition {
	return fd.step(peerInput{kind: peerGrade})
}

// Scores returns every tracked host's health score.
func (fd *FailureDetector) Scores() map[model.HostID]float64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	out := make(map[model.HostID]float64, len(fd.peers))
	for h, p := range fd.peers {
		out[h] = p.score()
	}
	return out
}

// State returns a host's current liveness state.
func (fd *FailureDetector) State(host model.HostID) HostState { return fd.record(host).verdict }

// Incarnation returns the highest incarnation observed for the host.
func (fd *FailureDetector) Incarnation(host model.HostID) uint64 { return fd.record(host).inc }

// record returns a copy of host's record (the zero record when unknown).
func (fd *FailureDetector) record(host model.HostID) (p peerCore) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if q := fd.peers[host]; q != nil {
		p = *q
	}
	return p
}

// Incarnations returns every nonzero incarnation — the deployer's
// durable checkpoint of which lifetimes it has seen.
func (fd *FailureDetector) Incarnations() map[model.HostID]uint64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	out := make(map[model.HostID]uint64)
	for h, p := range fd.peers {
		if p.inc > 0 {
			out[h] = p.inc
		}
	}
	return out
}

// PrimeIncarnation seeds the incarnation floor for a host without any
// state transition: a restarted deployer restores its checkpointed map
// here, so replayed frames from lifetimes that died before the crash
// stay ignored.
func (fd *FailureDetector) PrimeIncarnation(host model.HostID, inc uint64) {
	fd.mu.Lock()
	p := fd.peer(host)
	p.inc = max(p.inc, inc)
	fd.mu.Unlock()
}

// DegradedHosts returns every host currently degraded, sorted.
func (fd *FailureDetector) DegradedHosts() []model.HostID {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	var out []model.HostID
	for _, h := range fd.hosts() {
		if fd.peers[h].verdict == HostDegraded {
			out = append(out, h)
		}
	}
	return out
}

// hosts lists every tracked host, sorted. Callers hold fd.mu.
func (fd *FailureDetector) hosts() []model.HostID {
	out := make([]model.HostID, 0, len(fd.peers))
	for h := range fd.peers {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// SetManifest records a host's last-reported component manifest (sent
// with each heartbeat, so a rejoining host resyncs in one message).
func (fd *FailureDetector) SetManifest(host model.HostID, comps []string) {
	fd.mu.Lock()
	fd.manifest[host] = append([]string(nil), comps...)
	fd.mu.Unlock()
}

// Manifest returns a host's last-reported component manifest.
func (fd *FailureDetector) Manifest(host model.HostID) []string {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return append([]string(nil), fd.manifest[host]...)
}
