package prism

import (
	"encoding/gob"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	// Origin, Sender, Inc and Seq identify the envelope for duplicate
	// suppression: Seq counts the floods one control sender (Sender on
	// host Origin, in lifetime Inc) has started.
	Origin model.HostID
	Sender string
	Inc    uint64
	Seq    uint64
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

// relayStream names one control sender's envelope sequence. The origin's
// incarnation is part of it: a restarted host's fresh sender counts from
// 1 again, and without the lifetime number its first envelopes would be
// suppressed as duplicates of what its previous lifetime flooded. (The
// app-delivery layer solves the same problem with SeqInc.)
type relayStream struct {
	origin model.HostID
	sender string
	inc    uint64
}

// relayState numbers this sender's own floods and records, per stream,
// which envelopes it has already seen — a dedupWindow each, so the record
// is a floor plus one span per hole rather than one entry per envelope.
type relayState struct {
	mu   sync.Mutex
	seq  uint64
	seen map[relayStream]*dedupWindow
}

func newRelayState() *relayState {
	return &relayState{seen: make(map[relayStream]*dedupWindow)}
}

// next mints the envelope for this sender's next flood.
func (rs *relayState) next(origin model.HostID, sender string, inc uint64) RelayPayload {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.seq++
	return RelayPayload{Origin: origin, Sender: sender, Inc: inc, Seq: rs.seq, TTL: DefaultRelayTTL}
}

// markSeen records an envelope, reporting whether it was new.
func (rs *relayState) markSeen(env RelayPayload) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	key := relayStream{env.Origin, env.Sender, env.Inc}
	w := rs.seen[key]
	if w == nil {
		w = &dedupWindow{}
		rs.seen[key] = w
	}
	return w.observe(env.Seq)
}

// controlSender is the shared control-plane transmission logic of
// AdminComponent and DeployerComponent: one direct send when the
// destination is a peer, a TTL flood otherwise. It never retries — every
// control exchange is re-driven by an idempotent loop above it (see
// DESIGN.md, "Retransmission").
type controlSender struct {
	arch  *Architecture
	cfg   AdminConfig
	from  string // component ID stamped as sender
	relay *relayState
	// inc is the sender's lifetime number, folded into relay envelope
	// identities; AdminComponent.SetIncarnation updates it on rejoin.
	inc atomic.Uint64
}

func newControlSender(arch *Architecture, cfg AdminConfig, from string) *controlSender {
	registerPayloadsOnce.Do(registerControlPayloads)
	cs := &controlSender{arch: arch, cfg: cfg.withDefaults(), from: from, relay: newRelayState()}
	cs.inc.Store(cfg.Incarnation)
	return cs
}

// setIncarnation updates the lifetime number stamped into relay
// envelopes.
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
	if cs.isPeer(to) {
		return cs.sendDirect(dc, to, data, e.EffectiveSizeKB(), e.Name)
	}
	return cs.sendRelayed(dc, data, e.EffectiveSizeKB(), e.Name)
}

// isPeer reports whether h is reachable without mediation or relaying.
func (cs *controlSender) isPeer(h model.HostID) bool {
	dc := cs.arch.DistributionConnector(cs.cfg.Bus)
	return dc != nil && slices.Contains(dc.Transport().Peers(), h)
}

// sendDirect makes one transport attempt toward a peer.
func (cs *controlSender) sendDirect(dc *DistributionConnector, to model.HostID, data []byte, sizeKB float64, name string) error {
	if err := dc.Transport().Send(to, data, sizeKB); err != nil {
		cs.arch.Obs().Counter(obs.Name("prism_control_send_failures_total", "host", string(cs.arch.Host()))).Inc()
		return fmt.Errorf("%s %s → %s: %s: %w", cs.from, cs.arch.Host(), to, name, err)
	}
	return nil
}

// sendRelayed floods a relay envelope to every peer (except the one the
// message came from, when forwarding).
func (cs *controlSender) sendRelayed(dc *DistributionConnector, data []byte, sizeKB float64, name string) error {
	env := cs.relay.next(cs.arch.Host(), cs.from, cs.inc.Load())
	env.Data = data
	cs.relay.markSeen(env) // never re-forward our own envelope
	return cs.floodEnvelope(dc, env, sizeKB, name, "")
}

func (cs *controlSender) floodEnvelope(dc *DistributionConnector, env RelayPayload, sizeKB float64, name string, except model.HostID) error {
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
		if err := cs.sendDirect(dc, peer, data, sizeKB, name+"(relay)"); err != nil {
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
	if !cs.relay.markSeen(env) {
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
	if cs.isPeer(inner.DstHost) {
		_ = cs.sendDirect(dc, inner.DstHost, env.Data, inner.EffectiveSizeKB(), inner.Name+"(relay-final)")
		return true
	}
	env.TTL--
	_ = cs.floodEnvelope(dc, env, inner.EffectiveSizeKB(), inner.Name, from)
	return true
}
