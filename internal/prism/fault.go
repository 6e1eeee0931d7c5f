package prism

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// FaultTransport decorates any Transport (simulated or TCP) with seeded,
// configurable fault injection — silent frame drops, delivery delay,
// duplicate delivery, per-peer partitions, and directional gray faults —
// so the middleware's dependability claims are testable against the
// exact failure modes the paper's target environment exhibits (DSN'04
// §3.1: unreliable wireless links, hosts that become temporarily
// unreachable, and links that limp asymmetrically).
//
// Drops are silent: Send reports success and the frame evaporates, like
// wireless loss the sender cannot observe, so the loops that re-drive
// each control exchange (reconfig re-dispatch, report re-request,
// outcome re-broadcast, lease re-broadcast, heartbeats) have to earn
// their keep.
// Partitions, by contrast, are observable: Send fails fast, like an
// unreachable peer, and inbound frames from the partitioned peer are
// discarded too. Link flaps behave like short observable partitions
// whose on/off schedule is a pure function of the flap seed.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu          sync.Mutex
	rng         *rand.Rand // outbound fault process; nil until its first draw
	rngIn       *rand.Rand // inbound fault process (decoupled from outbound); nil until its first draw
	partitioned map[model.HostID]partitionState
	flaps       map[flapKey]*flapCursor
	clock       func() time.Time
	start       time.Time
	closed      bool

	// The fault counters live in an obs.Registry (cfg.Obs, or nil-safe
	// no-op handles when none was supplied).
	sent, dropped, duplicated, delayed, blocked, flapped *obs.Counter

	// wg tracks in-flight delayed deliveries so Close can drain them.
	wg sync.WaitGroup
}

// partitionState tracks an injected partition per direction, so gray
// scenarios can cut only one way (frames in, frames out, or both).
type partitionState struct {
	in, out bool
}

func (p partitionState) any() bool { return p.in || p.out }

// DirFault describes one direction's gray-fault process: partial loss,
// added delay, and a seeded link-flap schedule. The zero value injects
// nothing.
type DirFault struct {
	// DropRate silently discards frames travelling in this direction.
	DropRate float64
	// DelayRate holds frames back for Delay before delivering them
	// asynchronously (reordering them past later frames).
	DelayRate float64
	Delay     time.Duration
	// Flap overlays a reproducible on/off schedule: while the link is in
	// a down phase, outbound sends fail fast (observable, like a
	// partition) and inbound frames are discarded.
	Flap FlapConfig
}

// PeerFault overrides the transport-wide directional fault mix for one
// peer. An entry replaces both directions wholesale (it does not merge
// with the Inbound/Outbound defaults).
type PeerFault struct {
	In  DirFault
	Out DirFault
}

// FlapConfig describes a seeded link-flap schedule: alternating up/down
// phases whose lengths are a pure function of (Seed, phase index) — the
// schedule is byte-identical across runs with the same config. The
// schedule is enabled when both Up and Down are positive; phase i lasts
// between base/2 and base where base is Up for even i, Down for odd i.
type FlapConfig struct {
	Seed int64
	Up   time.Duration
	Down time.Duration
}

// Enabled reports whether the flap schedule injects anything.
func (fc FlapConfig) Enabled() bool { return fc.Up > 0 && fc.Down > 0 }

// FlapPhase returns the duration of phase i (even phases are up, odd
// phases are down) — a pure function of the config, exposed so tests can
// pin schedule reproducibility without running a transport.
func FlapPhase(fc FlapConfig, i int) time.Duration {
	base := fc.Up
	if i%2 == 1 {
		base = fc.Down
	}
	half := base / 2
	if half <= 0 {
		return base
	}
	r := splitmix64(uint64(fc.Seed)*0x9e3779b97f4a7c15 + uint64(i) + 1)
	return half + time.Duration(r%uint64(half+1))
}

// splitmix64 is the standard 64-bit finalizer used for cheap seeded
// hashing (same construction as the parallel-search seed derivation).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FlapSchedule returns the first n phase durations of the schedule.
func FlapSchedule(fc FlapConfig, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = FlapPhase(fc, i)
	}
	return out
}

// FlapDownAt reports whether the schedule is in a down phase after
// elapsed time since the schedule's start — again a pure function.
func FlapDownAt(fc FlapConfig, elapsed time.Duration) bool {
	if !fc.Enabled() || elapsed < 0 {
		return false
	}
	var cum time.Duration
	for i := 0; ; i++ {
		cum += FlapPhase(fc, i)
		if elapsed < cum {
			return i%2 == 1
		}
	}
}

// flapKey identifies one direction of one peer link for cursor caching.
type flapKey struct {
	peer    model.HostID
	inbound bool
}

// flapCursor caches how far into the schedule a link has advanced so
// long-running transports do not re-walk the whole schedule every frame.
type flapCursor struct {
	idx int
	end time.Duration // cumulative schedule time at which phase idx ends
}

// FaultConfig tunes the injected fault mix. All rates are probabilities
// in [0, 1]; the zero value injects nothing. DropRate/DupRate/DelayRate
// apply symmetrically to outbound frames (the pre-gray behaviour);
// Inbound/Outbound/Peers layer a directional process on top.
type FaultConfig struct {
	// Seed drives the fault process deterministically.
	Seed int64
	// DropRate silently discards outbound frames.
	DropRate float64
	// DupRate delivers outbound frames twice.
	DupRate float64
	// DelayRate holds outbound frames back for Delay before delivering
	// them asynchronously (reordering them past later sends).
	DelayRate float64
	Delay     time.Duration
	// Inbound applies a directional fault process to frames arriving
	// from every peer; Outbound to frames sent to every peer. Peers
	// overrides both directions for specific peers.
	Inbound  DirFault
	Outbound DirFault
	Peers    map[model.HostID]PeerFault
	// Clock supplies the time base for flap schedules (defaults to
	// time.Now; drills inject a fake clock for determinism).
	Clock func() time.Time
	// Obs receives the transport's fault counters, labelled by host
	// (prism_fault_*_total{host=...}). When nil the counters are not
	// recorded anywhere (the handles are nil-safe no-ops).
	Obs *obs.Registry
}

// ErrPeerPartitioned is returned by Send while an injected partition (or
// a flap down-phase) separates this transport from the destination peer.
var ErrPeerPartitioned = errors.New("prism: peer partitioned (injected)")

var _ Transport = (*FaultTransport)(nil)

// NewFaultTransport wraps inner with fault injection. The injected-fault
// counters land in cfg.Obs under prism_fault_*_total{host=...}.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	reg := cfg.Obs
	host := string(inner.Host())
	f := &FaultTransport{
		inner:       inner,
		partitioned: make(map[model.HostID]partitionState),
		sent:        reg.Counter(obs.Name("prism_fault_sent_total", "host", host)),
		dropped:     reg.Counter(obs.Name("prism_fault_dropped_total", "host", host)),
		duplicated:  reg.Counter(obs.Name("prism_fault_duplicated_total", "host", host)),
		delayed:     reg.Counter(obs.Name("prism_fault_delayed_total", "host", host)),
		blocked:     reg.Counter(obs.Name("prism_fault_blocked_total", "host", host)),
		flapped:     reg.Counter(obs.Name("prism_fault_flapped_total", "host", host)),
	}
	f.applyConfig(cfg)
	return f
}

// SetFaultConfig swaps the fault mix mid-run (drills heal or worsen the
// network between phases), reseeds the fault processes from cfg.Seed,
// and restarts the flap schedules. The counters and their registry are
// untouched: cfg.Obs is ignored here.
func (f *FaultTransport) SetFaultConfig(cfg FaultConfig) {
	f.mu.Lock()
	cfg.Obs = f.cfg.Obs
	f.applyConfig(cfg)
	f.mu.Unlock()
}

// applyConfig installs cfg and resets the derived fault state. Callers
// hold f.mu (or are the constructor).
func (f *FaultTransport) applyConfig(cfg FaultConfig) {
	f.cfg = cfg
	f.rng, f.rngIn = nil, nil
	f.flaps = make(map[flapKey]*flapCursor)
	f.clock = cfg.Clock
	if f.clock == nil {
		f.clock = time.Now
	}
	f.start = f.clock()
}

// outRNG returns the outbound fault process, seeding it on its first
// draw: a transport configured without loss, duplication or delay never
// draws, and seeding a math/rand source costs far more than the rest of
// construction. Callers hold f.mu.
func (f *FaultTransport) outRNG() *rand.Rand {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.cfg.Seed))
	}
	return f.rng
}

// inRNG returns the inbound fault process, seeded like outRNG. It draws
// from its own stream so inbound and outbound decisions cannot perturb
// each other's sequences. Callers hold f.mu.
func (f *FaultTransport) inRNG() *rand.Rand {
	if f.rngIn == nil {
		f.rngIn = rand.New(rand.NewSource(int64(splitmix64(uint64(f.cfg.Seed) + 0x9e37))))
	}
	return f.rngIn
}

// dirFault resolves the directional fault process for one peer and
// direction: the per-peer override when present, else the transport-wide
// default.
func (f *FaultTransport) dirFault(peer model.HostID, inbound bool) DirFault {
	if pf, ok := f.cfg.Peers[peer]; ok {
		if inbound {
			return pf.In
		}
		return pf.Out
	}
	if inbound {
		return f.cfg.Inbound
	}
	return f.cfg.Outbound
}

// flapDown reports whether the (peer, direction) link is currently in a
// flap down-phase. Callers hold f.mu.
func (f *FaultTransport) flapDown(peer model.HostID, inbound bool, fc FlapConfig) bool {
	if !fc.Enabled() {
		return false
	}
	elapsed := f.clock().Sub(f.start)
	if elapsed < 0 {
		return false
	}
	k := flapKey{peer: peer, inbound: inbound}
	cur, ok := f.flaps[k]
	if !ok {
		cur = &flapCursor{idx: 0, end: FlapPhase(fc, 0)}
		f.flaps[k] = cur
	}
	for elapsed >= cur.end {
		cur.idx++
		cur.end += FlapPhase(fc, cur.idx)
	}
	return cur.idx%2 == 1
}

// Host implements Transport.
func (f *FaultTransport) Host() model.HostID { return f.inner.Host() }

// Peers implements Transport. Partitioned peers stay listed: a partition
// models an unreachable host, not a topology change, so senders keep
// trying the direct path and ride out the outage via their re-drive
// loops.
func (f *FaultTransport) Peers() []model.HostID { return f.inner.Peers() }

// SetReceiver implements Transport, interposing the inbound half of any
// active partition plus the inbound directional fault process.
func (f *FaultTransport) SetReceiver(recv func(from model.HostID, data []byte)) {
	f.inner.SetReceiver(func(from model.HostID, data []byte) {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		if f.partitioned[from].in {
			f.blocked.Inc()
			f.mu.Unlock()
			return
		}
		df := f.dirFault(from, true)
		if f.flapDown(from, true, df.Flap) {
			// Inbound loss during a down phase is silent by nature —
			// the sender already believed the frame was delivered.
			f.flapped.Inc()
			f.mu.Unlock()
			return
		}
		if df.DropRate > 0 && f.inRNG().Float64() < df.DropRate {
			f.dropped.Inc()
			f.mu.Unlock()
			return
		}
		var d time.Duration
		if df.DelayRate > 0 && df.Delay > 0 && f.inRNG().Float64() < df.DelayRate {
			d = df.Delay
			f.delayed.Inc()
			f.wg.Add(1)
		}
		f.mu.Unlock()
		if recv == nil {
			if d > 0 {
				f.wg.Done()
			}
			return
		}
		if d > 0 {
			// The inner transport may reuse data once this call returns.
			data := slices.Clone(data)
			go func() {
				defer f.wg.Done()
				time.Sleep(d)
				f.mu.Lock()
				cut := f.closed || f.partitioned[from].in
				if cut {
					f.blocked.Inc()
				}
				f.mu.Unlock()
				if cut {
					return
				}
				recv(from, data)
			}()
			return
		}
		recv(from, data)
	})
}

// Send implements Transport, applying the configured fault mix.
func (f *FaultTransport) Send(to model.HostID, data []byte, sizeKB float64) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("prism: fault transport closed")
	}
	if f.partitioned[to].out {
		f.blocked.Inc()
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPeerPartitioned, to)
	}
	df := f.dirFault(to, false)
	if f.flapDown(to, false, df.Flap) {
		// A flap down-phase is observable from the sending side, like a
		// short partition: the peer is unreachable right now.
		f.flapped.Inc()
		f.mu.Unlock()
		return fmt.Errorf("%w: %s (link flap)", ErrPeerPartitioned, to)
	}
	f.sent.Inc()
	drop := f.cfg.DropRate > 0 && f.outRNG().Float64() < f.cfg.DropRate
	if !drop && df.DropRate > 0 {
		drop = f.outRNG().Float64() < df.DropRate
	}
	dup := f.cfg.DupRate > 0 && f.outRNG().Float64() < f.cfg.DupRate
	var delayDur time.Duration
	if f.cfg.DelayRate > 0 && f.cfg.Delay > 0 && f.outRNG().Float64() < f.cfg.DelayRate {
		delayDur = f.cfg.Delay
	}
	if df.DelayRate > 0 && df.Delay > 0 && f.outRNG().Float64() < df.DelayRate && df.Delay > delayDur {
		delayDur = df.Delay
	}
	delay := delayDur > 0
	switch {
	case drop:
		f.dropped.Inc()
	case delay:
		f.delayed.Inc()
		f.wg.Add(1)
	case dup:
		f.duplicated.Inc()
	}
	f.mu.Unlock()

	if drop {
		return nil // silent loss: the sender believes it succeeded
	}
	if delay {
		go func() {
			defer f.wg.Done()
			time.Sleep(delayDur)
			// A partition that opened while the frame was in flight cuts
			// it: delayed frames are not immune to the outage they are
			// flying into.
			f.mu.Lock()
			cut := f.closed || f.partitioned[to].out
			if cut {
				f.blocked.Inc()
			}
			f.mu.Unlock()
			if cut {
				return
			}
			_ = f.inner.Send(to, data, sizeKB)
		}()
		return nil
	}
	err := f.inner.Send(to, data, sizeKB)
	if err == nil && dup {
		_ = f.inner.Send(to, data, sizeKB)
	}
	return err
}

// Partition opens (on=true) or heals (on=false) an injected partition
// between this host and peer, in both directions.
func (f *FaultTransport) Partition(peer model.HostID, on bool) {
	f.setPartition(peer, on, true, true)
}

// PartitionInbound cuts (or heals) only the inbound half of the link
// from peer: frames from peer are discarded, frames to peer still flow —
// the asymmetric outage at the heart of gray failures.
func (f *FaultTransport) PartitionInbound(peer model.HostID, on bool) {
	f.setPartition(peer, on, true, false)
}

// PartitionOutbound cuts (or heals) only the outbound half of the link
// to peer: sends fail fast, inbound frames still arrive.
func (f *FaultTransport) PartitionOutbound(peer model.HostID, on bool) {
	f.setPartition(peer, on, false, true)
}

func (f *FaultTransport) setPartition(peer model.HostID, on, in, out bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.partitioned[peer]
	if in {
		p.in = on
	}
	if out {
		p.out = on
	}
	if p.any() {
		f.partitioned[peer] = p
	} else {
		delete(f.partitioned, peer)
	}
}

// Close implements Transport: drains delayed deliveries, then closes the
// wrapped transport.
func (f *FaultTransport) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.wg.Wait()
	return f.inner.Close()
}
