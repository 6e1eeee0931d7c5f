package prism

import (
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// EvRelay wraps a control event being relayed hop-by-hop toward a host
// the sender cannot reach directly. Admins forward relay envelopes to
// their own peers (TTL-limited flood with duplicate suppression), so the
// control plane works over multi-hop topologies — e.g. the paper's §1
// scenario, where HQ reaches troop PDAs only through commander PDAs.
const EvRelay = "admin.relay"

// RelayPayload is the relay envelope.
type RelayPayload struct {
	// ID uniquely identifies the relayed message for duplicate
	// suppression ("origin/seq").
	ID string
	// TTL bounds the flood depth.
	TTL int
	// Data is the encoded inner control event.
	Data []byte
}

// DefaultRelayTTL bounds relay floods; it comfortably covers the
// topologies the framework targets (a handful of wireless hops).
const DefaultRelayTTL = 5

func registerRelayPayload() {
	gob.Register(RelayPayload{})
}

// relayState tracks duplicate suppression and sequence numbering for one
// host's control sender.
type relayState struct {
	mu   sync.Mutex
	seq  int
	seen map[string]bool
}

func newRelayState() *relayState {
	return &relayState{seen: make(map[string]bool)}
}

// nextID mints a flood-unique envelope ID. The origin's incarnation is
// part of the identity: a restarted host's fresh sender counts from 1
// again, and without the lifetime number its first envelopes would
// collide with IDs its previous lifetime already flooded — peers would
// suppress them as duplicates until the new counter outran the old one.
// (The app-delivery layer solves the same problem with SeqInc.)
func (rs *relayState) nextID(origin model.HostID, from string, inc uint64) string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.seq++
	return fmt.Sprintf("%s/%s/%d/%d", origin, from, inc, rs.seq)
}

// markSeen records an envelope ID, reporting whether it was new.
func (rs *relayState) markSeen(id string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.seen[id] {
		return false
	}
	rs.seen[id] = true
	return true
}

// controlSender is the shared control-plane transmission logic of
// AdminComponent and DeployerComponent: direct delivery with retries when
// the destination is a peer, TTL-flood relaying otherwise.
type controlSender struct {
	arch  *Architecture
	cfg   AdminConfig
	from  string // component ID stamped as sender
	relay *relayState
	// inc is the sender's lifetime number, folded into relay envelope
	// IDs; AdminComponent.SetIncarnation updates it on rejoin.
	inc atomic.Uint64
	// seq numbers backoff sleeps for deterministic jitter.
	seq atomic.Uint64
	// cancel, when set, is consulted between retry attempts: a true
	// return abandons the send. Owners use it to stop the capped-backoff
	// loop from hammering a partitioned link on behalf of a wave that has
	// since been aborted, or a leadership that has since been fenced.
	cancel func(e Event) bool
	// breaker, when non-nil (AdminConfig.Breaker.Enabled), fail-fasts
	// sends toward peers whose circuits are open and bounds per-peer
	// in-flight retry chains.
	breaker *circuitBreaker
}

// setCancel installs the retry-abandon predicate. Call before the sender
// is shared across goroutines (i.e. during component construction).
func (cs *controlSender) setCancel(fn func(e Event) bool) { cs.cancel = fn }

func newControlSender(arch *Architecture, cfg AdminConfig, from string) *controlSender {
	registerPayloadsOnce.Do(registerControlPayloads)
	cs := &controlSender{arch: arch, cfg: cfg.withDefaults(), from: from, relay: newRelayState()}
	cs.inc.Store(cfg.Incarnation)
	if cs.cfg.Breaker.Enabled {
		cs.breaker = newCircuitBreaker(cs.cfg.Breaker, cs.cfg.Clock, func(base string, peer model.HostID) *obs.Counter {
			return cs.arch.Obs().Counter(obs.Name(base, "host", string(cs.arch.Host()), "peer", string(peer)))
		})
	}
	return cs
}

// setIncarnation updates the lifetime number stamped into relay
// envelope IDs.
func (cs *controlSender) setIncarnation(inc uint64) { cs.inc.Store(inc) }

// send delivers a control event to a host: locally, directly, or via
// relay flood.
func (cs *controlSender) send(to model.HostID, e Event) error {
	e.Kind = KindControl
	e.Sender = cs.from
	e.DstHost = to
	if to == cs.arch.Host() {
		if conn := cs.arch.Connector(cs.cfg.Bus); conn != nil {
			conn.Route(e)
			return nil
		}
		return fmt.Errorf("%s %s: no bus connector", cs.from, cs.arch.Host())
	}
	dc := cs.arch.DistributionConnector(cs.cfg.Bus)
	if dc == nil {
		return fmt.Errorf("%s %s: bus is not a distribution connector", cs.from, cs.arch.Host())
	}
	e.SrcHost = cs.arch.Host()
	data, err := EncodeEvent(e)
	if err != nil {
		return err
	}
	if cs.isPeer(dc, to) {
		return cs.sendDirect(dc, to, data, e.EffectiveSizeKB(), e.Name, e)
	}
	return cs.sendRelayed(dc, data, e.EffectiveSizeKB(), e.Name, "", e)
}

func (cs *controlSender) isPeer(dc *DistributionConnector, h model.HostID) bool {
	for _, p := range dc.Transport().Peers() {
		if p == h {
			return true
		}
	}
	return false
}

// sendDirect retries a lossy link until the frame gets through or the
// attempt budget is spent, with capped exponential backoff and
// deterministic jitter between attempts so simultaneous senders desync.
// The cancel predicate is re-checked before and after every backoff
// sleep: an outcome retry for an epoch that was aborted meanwhile, or a
// frame from a deployer that lost its lease, is abandoned instead of
// burning the remaining attempt budget against a partitioned link.
func (cs *controlSender) sendDirect(dc *DistributionConnector, to model.HostID, data []byte, sizeKB float64, name string, ev Event) error {
	if cs.breaker == nil {
		err, _ := cs.sendDirectRetry(dc, to, data, sizeKB, name, ev)
		return err
	}
	release, err := cs.breaker.Acquire(to)
	if err != nil {
		return fmt.Errorf("%s %s → %s: %s: %w", cs.from, cs.arch.Host(), to, name, err)
	}
	err, cancelled := cs.sendDirectRetry(dc, to, data, sizeKB, name, ev)
	switch {
	case err == nil:
		release(sendOK)
	case cancelled:
		release(sendAbandoned)
	default:
		release(sendFailed)
	}
	return err
}

// sendDirectRetry is the retry chain itself; the second return marks a
// chain abandoned by the cancel predicate (no evidence about the peer).
func (cs *controlSender) sendDirectRetry(dc *DistributionConnector, to model.HostID, data []byte, sizeKB float64, name string, ev Event) (error, bool) {
	attempts := cs.cfg.SendAttempts
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if cs.cancel != nil && cs.cancel(ev) {
				cs.metric("prism_control_sends_cancelled_total").Inc()
				return fmt.Errorf("%s %s → %s: %s send cancelled after %d attempts",
					cs.from, cs.arch.Host(), to, name, i), true
			}
			cs.metric("prism_control_retries_total").Inc()
			time.Sleep(cs.backoff(i - 1))
			if cs.cancel != nil && cs.cancel(ev) {
				cs.metric("prism_control_sends_cancelled_total").Inc()
				return fmt.Errorf("%s %s → %s: %s send cancelled after %d attempts",
					cs.from, cs.arch.Host(), to, name, i), true
			}
		}
		if lastErr = dc.Transport().Send(to, data, sizeKB); lastErr == nil {
			return nil, false
		}
	}
	cs.metric("prism_control_send_failures_total").Inc()
	return fmt.Errorf("%s %s → %s: %s undeliverable after %d attempts: %w",
		cs.from, cs.arch.Host(), to, name, attempts, lastErr), false
}

// metric resolves a host-labelled counter from the architecture's
// registry. The lookup is lazy (the registry may be wired after this
// sender was built) and nil-safe; it only runs on the retry/failure slow
// path.
func (cs *controlSender) metric(base string) *obs.Counter {
	return cs.arch.Obs().Counter(obs.Name(base, "host", string(cs.arch.Host())))
}

// backoff returns the delay before retry attempt+1: an exponential ramp
// from BaseDelay capped at MaxDelay, jittered into [delay/2, delay] by a
// splitmix64 hash of the policy seed and a per-sender sleep counter —
// deterministic for a fixed seed, yet different across senders.
func (cs *controlSender) backoff(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := cs.cfg.Retry.BaseDelay << uint(attempt)
	if d <= 0 || d > cs.cfg.Retry.MaxDelay {
		d = cs.cfg.Retry.MaxDelay
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	j := splitmix64(uint64(cs.cfg.Retry.Seed)*0x9e3779b97f4a7c15 + cs.seq.Add(1))
	return half + time.Duration(j%uint64(half)+1)
}

// splitmix64 is the standard 64-bit finalizer used for cheap seeded
// hashing (same construction as the parallel-search seed derivation).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sendRelayed floods a relay envelope to every peer (except the one the
// message came from, when forwarding).
func (cs *controlSender) sendRelayed(dc *DistributionConnector, data []byte, sizeKB float64, name string, except model.HostID, inner Event) error {
	env := RelayPayload{
		ID:   cs.relay.nextID(cs.arch.Host(), cs.from, cs.inc.Load()),
		TTL:  DefaultRelayTTL,
		Data: data,
	}
	cs.relay.markSeen(env.ID) // never re-forward our own envelope
	return cs.floodEnvelope(dc, env, sizeKB, name, except, inner)
}

func (cs *controlSender) floodEnvelope(dc *DistributionConnector, env RelayPayload, sizeKB float64, name string, except model.HostID, inner Event) error {
	peers := dc.Transport().Peers()
	sentAny := false
	var lastErr error
	for _, peer := range peers {
		if peer == except {
			continue
		}
		wrapped := Event{
			Name:    EvRelay,
			Kind:    KindControl,
			Sender:  cs.from,
			Target:  AdminID,
			SrcHost: cs.arch.Host(),
			DstHost: peer,
			SizeKB:  sizeKB,
			Payload: env,
		}
		data, err := EncodeEvent(wrapped)
		if err != nil {
			return err
		}
		if err := cs.sendDirect(dc, peer, data, sizeKB, name+"(relay)", inner); err != nil {
			lastErr = err
			continue
		}
		sentAny = true
	}
	if !sentAny {
		if lastErr != nil {
			return lastErr
		}
		return fmt.Errorf("%s %s: no peers to relay %s through", cs.from, cs.arch.Host(), name)
	}
	return nil
}

// handleRelay processes a received relay envelope: deliver locally when
// the inner event is for this host, otherwise keep flooding while TTL
// lasts. It reports whether the envelope was consumed (new).
func (cs *controlSender) handleRelay(env RelayPayload, from model.HostID) bool {
	if !cs.relay.markSeen(env.ID) {
		return false
	}
	inner, err := DecodeEvent(env.Data)
	if err != nil {
		return false
	}
	if inner.DstHost == cs.arch.Host() {
		if conn := cs.arch.Connector(cs.cfg.Bus); conn != nil {
			conn.Route(inner)
		}
		return true
	}
	if env.TTL <= 0 {
		return true
	}
	dc := cs.arch.DistributionConnector(cs.cfg.Bus)
	if dc == nil {
		return true
	}
	// If the final destination is now a direct peer, deliver straight to
	// it; otherwise keep flooding.
	if cs.isPeer(dc, inner.DstHost) {
		_ = cs.sendDirect(dc, inner.DstHost, env.Data, inner.EffectiveSizeKB(), inner.Name+"(relay-final)", inner)
		return true
	}
	env.TTL--
	_ = cs.floodEnvelope(dc, env, inner.EffectiveSizeKB(), inner.Name, from, inner)
	return true
}
