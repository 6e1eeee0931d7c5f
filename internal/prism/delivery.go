package prism

import (
	"cmp"
	"encoding/gob"
	"slices"
	"sync"

	"dif/internal/model"
	"dif/internal/obs"
)

// Delivery-guarantee protocol frames (KindControl, intercepted by the
// distribution connector before local routing).
const (
	// EvAppAckBatch carries cumulative ack ranges — one frame settles
	// every event the receiver has delivered from this origin since the
	// last flush.
	EvAppAckBatch = "prism.app.ackb"
	// EvAppBounce tells a sender that the target component is no longer
	// here and where the relocation table says it went.
	EvAppBounce = "prism.app.bounce"
)

// SeqSpan is a closed run [Lo, Hi] of delivered sequence numbers.
type SeqSpan struct {
	Lo, Hi uint64
}

// AckRange is one stream's cumulative delivery state, the exported form
// of its dedupWindow: everything at or below Floor was delivered, plus
// the out-of-order residue in Spans (ascending, disjoint). Ranges are
// windows, not deltas, so re-sending one is idempotent — a duplicated or
// reordered batch frame can never un-acknowledge anything.
type AckRange struct {
	Target string
	Inc    uint64
	Floor  uint64
	Spans  []SeqSpan
}

// AppAckBatch is the payload of an EvAppAckBatch frame: every stream
// from one origin that delivered events since the receiver's last flush.
type AppAckBatch struct {
	// Host is the acknowledging host (hint: it evidently holds the
	// targets named in Ranges).
	Host   model.HostID
	Ranges []AckRange
}

// AppBounce is the payload of an EvAppBounce frame: "not here — try
// Location".
type AppBounce struct {
	// Host is the bouncing host.
	Host model.HostID
	// Target and Seq identify the bounced event.
	Target string
	Seq    uint64
	// Location is the authoritative next hop from the bouncer's
	// relocation table.
	Location model.HostID
}

func init() {
	gob.Register(AppAckBatch{})
	gob.Register(AppBounce{})
}

// Delivery-guarantee defaults.
const (
	// DefaultDeliveryAttempts bounds retransmission of an unacked
	// application event before it is abandoned.
	DefaultDeliveryAttempts = 100
	// DefaultMaxHeldPerTarget bounds a connector's held buffer for one
	// migrating component; the oldest event spills first.
	DefaultMaxHeldPerTarget = 256
	// DefaultMaxAppHops bounds host-to-host relays of a buffered event;
	// past it the relay detours via the wave coordinator instead of
	// chasing the component around the network.
	DefaultMaxAppHops = 4
	// DefaultRelocTTL is how many delivery ticks a relocation-table
	// entry answers bounces for before it expires.
	DefaultRelocTTL = 512
	// DefaultAckFlush is how many port deliveries a receiver
	// accumulates before flushing ack ranges inline; the delivery tick
	// flushes whatever is dirty regardless, bounding ack latency.
	DefaultAckFlush = 64
	// deliveryBroadcastEvery makes every Nth retransmission ignore the
	// location hint and broadcast, so a stale hint (e.g. learned before
	// a crash) cannot starve an event forever.
	deliveryBroadcastEvery = 4
	// retransmitGraceTicks delays the first retransmission of a fresh
	// event: acks are batched and flush at the latest on the receiver's
	// next tick, so retransmitting before that tick would duplicate
	// virtually every event on a healthy link.
	retransmitGraceTicks = 2
	// relocSweepEvery paces the amortized expiry sweep of the
	// relocation table (entries are also checked lazily on lookup).
	relocSweepEvery = 64
	// ackSizeKB is the modeled size of ack and bounce frames.
	ackSizeKB = 0.05
)

// DeliveryConfig tunes the application-event delivery-guarantee layer of
// a DistributionConnector. The zero value means "enabled with defaults".
type DeliveryConfig struct {
	// Disabled turns the layer off: no stamping, no dedup, no
	// retransmission — the pre-guarantee fire-and-forget behavior.
	Disabled bool
	// MaxAttempts bounds retransmissions per event (0 = default).
	MaxAttempts int
	// MaxHops bounds buffered-event relays (0 = default).
	MaxHops int
	// RelocTTL is the relocation-table entry lifetime in delivery ticks
	// (0 = default).
	RelocTTL int
	// AckFlush is the inline ack-range flush threshold in delivered
	// events (0 = default; 1 flushes a batch frame per delivery).
	AckFlush int
}

func (c DeliveryConfig) withDefaults() DeliveryConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultDeliveryAttempts
	}
	if c.MaxHops == 0 {
		c.MaxHops = DefaultMaxAppHops
	}
	if c.RelocTTL == 0 {
		c.RelocTTL = DefaultRelocTTL
	}
	if c.AckFlush == 0 {
		c.AckFlush = DefaultAckFlush
	}
	return c
}

type streamKey struct {
	origin model.HostID
	inc    uint64
	target string
}

// dedupWindow tracks which sequence numbers of one stream were already
// delivered: a contiguous floor plus the out-of-order residue above it
// as an interval set — ascending, disjoint, non-adjacent, every span
// starting above floor+1 — so its length is the number of holes in the
// stream, not the number of events that arrived past them.
type dedupWindow struct {
	floor uint64
	spans []SeqSpan
}

// observe records seq and reports whether it is new.
func (w *dedupWindow) observe(seq uint64) bool {
	if seq <= w.floor {
		return false
	}
	n := len(w.spans)
	if seq == w.floor+1 {
		// In-order arrival, the steady state: no residue to touch. When
		// it fills the hole below the first span, the floor jumps over it.
		w.floor = seq
		if n > 0 && w.spans[0].Lo == seq+1 {
			w.floor = w.spans[0].Hi
			w.spans = w.spans[1:]
		}
		return true
	}
	// Past a hole the stream keeps arriving in order: extend the last
	// span, or open a new one behind it. (seq >= 2 here, so seq-1 is safe
	// where Hi+1 could overflow on a hostile sequence.)
	if n == 0 || seq-1 > w.spans[n-1].Hi {
		w.spans = append(w.spans, SeqSpan{seq, seq})
		return true
	}
	if seq-1 == w.spans[n-1].Hi {
		w.spans[n-1].Hi = seq
		return true
	}
	return w.add(SeqSpan{seq, seq})
}

// has reports whether seq was observed.
func (w *dedupWindow) has(seq uint64) bool {
	i, _ := slices.BinarySearchFunc(w.spans, seq, func(sp SeqSpan, seq uint64) int {
		return cmp.Compare(sp.Hi, seq)
	})
	return seq <= w.floor || i < len(w.spans) && w.spans[i].Lo <= seq
}

// add folds one span lying wholly above the floor into the interval set,
// coalescing every span it overlaps or touches, and reports whether it
// covered anything new.
func (w *dedupWindow) add(s SeqSpan) bool {
	i, _ := slices.BinarySearchFunc(w.spans, s.Lo-1, func(sp SeqSpan, lo uint64) int {
		return cmp.Compare(sp.Hi, lo)
	})
	if i < len(w.spans) && w.spans[i].Lo <= s.Lo && s.Hi <= w.spans[i].Hi {
		return false
	}
	j := i
	for ; j < len(w.spans) && w.spans[j].Lo-1 <= s.Hi; j++ {
		s.Lo = min(s.Lo, w.spans[j].Lo)
		s.Hi = max(s.Hi, w.spans[j].Hi)
	}
	w.spans = slices.Replace(w.spans, i, j, s)
	return true
}

// export copies the window into its one serializable form. The spans are
// already ordered, so this is a copy and nothing else.
func (w *dedupWindow) export(target string, inc uint64) AckRange {
	return AckRange{Target: target, Inc: inc, Floor: w.floor, Spans: slices.Clone(w.spans)}
}

// merge folds an exported window into this one, keeping the stricter of
// the two: the higher floor and the union of the residues. Imported
// spans are not trusted to be ordered or to clear the floor.
func (w *dedupWindow) merge(floor uint64, spans []SeqSpan) {
	w.floor = max(w.floor, floor)
	for _, s := range spans {
		if s.Hi > w.floor && s.Lo <= s.Hi {
			s.Lo = max(s.Lo, w.floor+1)
			w.add(s)
		}
	}
	for len(w.spans) > 0 && w.spans[0].Lo-1 <= w.floor {
		w.floor = max(w.floor, w.spans[0].Hi)
		w.spans = w.spans[1:]
	}
}

type pendingKey struct {
	target string
	seq    uint64
}

// pendingSend is one slot of a sendWindow. A settled or abandoned slot
// stays in place (live false) until the window's head passes it.
type pendingSend struct {
	e        Event
	attempts int
	live     bool
}

// sendWindow is one target's outbound stream: the last sequence issued
// and the unacked sends. stamp issues sequences contiguously, so the
// sends sit in a ring indexed by sequence — element i holds base+i —
// which makes lookup by sequence O(1) and lets a cumulative ack settle
// by walking forward from the head, touching only what it settles. The
// ring spans oldest-unsettled..newest, so it is as deep as the stream's
// unacked backlog.
type sendWindow struct {
	nextSeq uint64
	base    uint64 // sequence of the head element; meaningful while n > 0
	ring[pendingSend]
}

// push appends the send carrying the next contiguous sequence.
func (w *sendWindow) push(e Event) {
	if w.n == 0 {
		w.base = e.Seq
	}
	w.ring.push(pendingSend{e: e, live: true}, 0)
}

// lookup returns the live pending send with sequence seq, or nil.
func (w *sendWindow) lookup(seq uint64) *pendingSend {
	if w == nil || seq < w.base || seq-w.base >= uint64(w.n) {
		return nil
	}
	if p := w.at(int(seq - w.base)); p.live {
		return p
	}
	return nil
}

// trim advances the head past sends that are no longer live.
func (w *sendWindow) trim() {
	for w.n > 0 && !w.at(0).live {
		w.pop()
		w.base++
	}
}

type relocEntry struct {
	host    model.HostID
	expires int64 // delivery tick past which the entry stops answering
}

// appDelivery is the sender- and receiver-side state of the
// delivery-guarantee layer: per-target send windows (sequence counter
// plus unacked sends) with their retransmit wheel, per-stream dedup
// windows with their dirty-ack accumulator, learned location hints, and
// the TTL'd relocation table.
type appDelivery struct {
	mu   sync.Mutex
	cfg  DeliveryConfig
	host model.HostID
	inc  uint64

	// tick is the delivery clock; the wheel buckets pending entries by
	// the tick their next retransmission is due, so a tick touches only
	// due entries instead of sorting the whole table.
	tick  int64
	wheel map[int64][]pendingKey

	// sends holds one window per target ever stamped: its sequence
	// counter and its unacked sends. pendingN counts the live sends
	// across all windows.
	sends    map[string]*sendWindow
	pendingN int

	streams map[streamKey]*dedupWindow
	// ackDirty marks streams that delivered events since the last ack
	// flush; ackDirtyN counts the deliveries that marked them.
	ackDirty  map[streamKey]struct{}
	ackDirtyN int

	hints map[string]model.HostID
	reloc map[string]relocEntry

	// Metric handles; nil before instrument wires them (nil-safe).
	acked      *obs.Counter
	deduped    *obs.Counter
	bounced    *obs.Counter
	retrans    *obs.Counter
	abandoned  *obs.Counter
	pendingG   *obs.Gauge
	ackFrames  *obs.Counter
	ackBatched *obs.Counter
}

func newAppDelivery(host model.HostID) *appDelivery {
	return &appDelivery{
		cfg:      DeliveryConfig{}.withDefaults(),
		host:     host,
		wheel:    make(map[int64][]pendingKey),
		sends:    make(map[string]*sendWindow),
		streams:  make(map[streamKey]*dedupWindow),
		ackDirty: make(map[streamKey]struct{}),
		hints:    make(map[string]model.HostID),
		reloc:    make(map[string]relocEntry),
	}
}

// removeLocked retires one live pending send without attributing a
// cause, dropping its event so the payload is not retained. The caller
// holds d.mu and trims the window once it is done retiring; the pending
// gauge is deliberately not updated here — batch handlers and the tick
// set it once per batch.
func (d *appDelivery) removeLocked(p *pendingSend) {
	*p = pendingSend{}
	d.pendingN--
}

// settleLocked retires the pending send (target, seq) as acknowledged,
// if it is still live. Caller holds d.mu.
func (d *appDelivery) settleLocked(target string, seq uint64) bool {
	w := d.sends[target]
	p := w.lookup(seq)
	if p == nil {
		return false
	}
	d.removeLocked(p)
	w.trim()
	d.acked.Inc()
	return true
}

// SetDeliveryConfig replaces the delivery-guarantee tuning. Disabling
// drops all pending retransmissions and unflushed acks.
func (dc *DistributionConnector) SetDeliveryConfig(cfg DeliveryConfig) {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg = cfg.withDefaults()
	if d.cfg.Disabled {
		for _, w := range d.sends {
			// Sequence counters outlive the reset: a re-enabled layer
			// must not reissue sequences receivers already deduplicated.
			*w = sendWindow{nextSeq: w.nextSeq}
		}
		d.pendingN = 0
		d.wheel = make(map[int64][]pendingKey)
		d.ackDirty = make(map[streamKey]struct{})
		d.ackDirtyN = 0
		d.pendingG.Set(0)
	}
}

// SetIncarnation stamps subsequent outbound application events with the
// host's incarnation, so a restarted host's fresh sequence streams are
// not deduplicated against its previous lifetime's.
func (dc *DistributionConnector) SetIncarnation(inc uint64) {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inc = inc
}

// RecordRelocation notes that a component now lives on host, so stale
// routes arriving here are bounced with the authoritative location.
// Wave sources record their outgoing moves; the coordinating deployer
// records every move of a committed wave.
func (dc *DistributionConnector) RecordRelocation(comp string, host model.HostID) {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.Disabled {
		return
	}
	if host == d.host {
		// It moved to us; we deliver rather than bounce.
		delete(d.reloc, comp)
		delete(d.hints, comp)
		return
	}
	d.reloc[comp] = relocEntry{host: host, expires: d.tick + int64(d.cfg.RelocTTL)}
	d.hints[comp] = host
}

// PendingAppEvents reports the number of stamped application events
// awaiting acknowledgement.
func (dc *DistributionConnector) PendingAppEvents() int {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pendingN
}

// stamp assigns a sequence identity to a locally originated targeted
// application event and registers it on the retransmit wheel until
// acked. Installed as the connector's stamp hook; runs on the routing
// path, so it takes one lock, allocates nothing per event (the window
// and wheel bucket grow by doubling), and sets no gauges.
func (dc *DistributionConnector) stamp(e *Event) {
	if e.kind() != KindApplication || e.Target == "" || e.Seq != 0 || e.SrcHost != "" {
		return
	}
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.Disabled {
		return
	}
	w := d.sends[e.Target]
	if w == nil {
		w = &sendWindow{}
		d.sends[e.Target] = w
	}
	w.nextSeq++
	e.Seq = w.nextSeq
	e.SeqOrigin = d.host
	e.SeqInc = d.inc
	w.push(*e)
	d.pendingN++
	due := d.tick + retransmitGraceTicks
	d.wheel[due] = append(d.wheel[due], pendingKey{e.Target, e.Seq})
}

// locationHint returns the learned location for a target component ("" =
// unknown, broadcast).
func (dc *DistributionConnector) locationHint(target string) model.HostID {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hints[target]
}

// onDeliver is the connector's port-delivery gate: duplicate stamped
// events are swallowed (and re-acked, since the origin evidently missed
// the first ack); fresh ones are delivered. Exactly-once at the
// component port. Acks are not sent per event: the delivering stream is
// marked dirty and its cumulative range flushes on the next tick or —
// under load — as soon as AckFlush deliveries accumulate, so a burst of
// N events costs one ack frame instead of N.
func (dc *DistributionConnector) onDeliver(e Event) bool {
	if e.kind() != KindApplication || e.Seq == 0 || e.Target == "" {
		return true
	}
	d := dc.delivery
	d.mu.Lock()
	if d.cfg.Disabled {
		d.mu.Unlock()
		return true
	}
	key := streamKey{e.SeqOrigin, e.SeqInc, e.Target}
	w := d.streams[key]
	if w == nil {
		w = &dedupWindow{}
		d.streams[key] = w
	}
	fresh := w.observe(e.Seq)
	if !fresh {
		d.deduped.Inc()
	}
	if e.SeqOrigin == d.host {
		// We are the origin: settle the pending entry directly.
		d.settleLocked(e.Target, e.Seq)
		d.mu.Unlock()
		return fresh
	}
	d.ackDirty[key] = struct{}{}
	d.ackDirtyN++
	var batches []DedupSnapshot
	if d.ackDirtyN >= d.cfg.AckFlush {
		batches = d.buildAckBatchesLocked()
	}
	d.mu.Unlock()
	dc.sendAckBatches(batches)
	return fresh
}

// DedupSnapshot is receiver-side dedup windows from one origin in their
// exported AckRange form. One flushed ack frame, a migrating component's
// TransferPayload and the deployer's durable checkpoint all carry it.
type DedupSnapshot struct {
	Origin model.HostID
	Ranges []AckRange
}

// exportLocked is the one exporter of dedup windows: the streams named
// by keys, in deterministic order, grouped by origin. Caller holds d.mu.
func (d *appDelivery) exportLocked(keys []streamKey) []DedupSnapshot {
	slices.SortFunc(keys, func(a, b streamKey) int {
		return cmp.Or(cmp.Compare(a.origin, b.origin), cmp.Compare(a.target, b.target), cmp.Compare(a.inc, b.inc))
	})
	var out []DedupSnapshot
	for _, k := range keys {
		w := d.streams[k]
		if w == nil {
			continue // stream migrated away since it was marked
		}
		if len(out) == 0 || out[len(out)-1].Origin != k.origin {
			out = append(out, DedupSnapshot{Origin: k.origin})
		}
		last := &out[len(out)-1]
		last.Ranges = append(last.Ranges, w.export(k.target, k.inc))
	}
	return out
}

// buildAckBatchesLocked drains the dirty-stream set into one cumulative
// ack-range frame per origin. Caller holds d.mu.
func (d *appDelivery) buildAckBatchesLocked() []DedupSnapshot {
	d.ackDirtyN = 0
	if len(d.ackDirty) == 0 {
		return nil
	}
	keys := make([]streamKey, 0, len(d.ackDirty))
	for k := range d.ackDirty {
		keys = append(keys, k)
	}
	d.ackDirty = make(map[streamKey]struct{})
	return d.exportLocked(keys)
}

// sendAckBatches ships flushed ack-range frames to their origins.
func (dc *DistributionConnector) sendAckBatches(batches []DedupSnapshot) {
	d := dc.delivery
	for _, b := range batches {
		e := Event{
			Name:    EvAppAckBatch,
			Kind:    KindControl,
			SrcHost: d.host,
			DstHost: b.Origin,
			SizeKB:  ackSizeKB,
			Payload: AppAckBatch{Host: d.host, Ranges: b.Ranges},
		}
		data, pooled, err := dc.encodeFrame(e)
		if err == nil {
			dc.sendTracked(b.Origin, data, ackSizeKB)
			d.ackFrames.Inc()
			d.ackBatched.Add(float64(len(b.Ranges)))
		}
		if pooled != nil {
			putEncBuf(pooled)
		}
	}
}

// handleAppAckBatch settles every pending entry covered by the batch's
// cumulative ranges: for each range, entries of the same incarnation at
// or below the floor or inside a span. Both settle by walking the send
// ring, so a frame costs at most what the window holds, never what a
// span claims (a hostile {2, 1<<63} walks the window once), and a stale
// or duplicate frame finds the head already past it and costs nothing.
// The pending gauge updates once per batch, not once per settled event.
func (dc *DistributionConnector) handleAppAckBatch(b AppAckBatch) {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	before := d.pendingN
	for _, r := range b.Ranges {
		if w := d.sends[r.Target]; w != nil && w.n > 0 {
			d.settleSpanLocked(w, r.Inc, SeqSpan{0, r.Floor})
			for _, s := range r.Spans {
				d.settleSpanLocked(w, r.Inc, s)
			}
			w.trim()
		}
		if b.Host != "" {
			d.hints[r.Target] = b.Host
		}
	}
	d.acked.Add(float64(before - d.pendingN))
	d.pendingG.Set(float64(d.pendingN))
}

// settleSpanLocked retires the live sends of incarnation inc whose
// sequence lies in s, touching only the part of s the ring covers.
// Caller holds d.mu and trims the window afterwards.
func (d *appDelivery) settleSpanLocked(w *sendWindow, inc uint64, s SeqSpan) {
	if s.Hi < w.base {
		return
	}
	lo := max(s.Lo, w.base) - w.base
	hi := min(s.Hi-w.base, uint64(w.n-1))
	for i := lo; i <= hi; i++ {
		if p := w.at(int(i)); p.live && p.e.SeqInc == inc {
			d.removeLocked(p)
		}
	}
}

// handleAppBounce re-addresses the bounced event to the authoritative
// location and retransmits immediately.
func (dc *DistributionConnector) handleAppBounce(b AppBounce) {
	d := dc.delivery
	d.mu.Lock()
	if d.cfg.Disabled || b.Location == "" {
		d.mu.Unlock()
		return
	}
	if b.Location == d.host {
		// It is (or is about to be) local; local routing will deliver.
		delete(d.hints, b.Target)
		d.mu.Unlock()
		return
	}
	d.hints[b.Target] = b.Location
	p := d.sends[b.Target].lookup(b.Seq)
	var e Event
	if p != nil {
		e = p.e
	}
	d.mu.Unlock()
	if p == nil {
		return
	}
	e.SrcHost = dc.host
	if data, err := EncodeEvent(e); err == nil {
		dc.sendTracked(b.Location, data, e.EffectiveSizeKB())
	}
}

// onUndeliverable is the connector's dead-letter hook: a targeted event
// reached a host that neither hosts nor holds the target. If the
// relocation table knows where the component went, bounce the event back
// to its origin with the authoritative location; otherwise stay silent
// and let the origin's bounded retransmission find it.
func (dc *DistributionConnector) onUndeliverable(e Event) {
	if e.kind() != KindApplication || e.Seq == 0 || e.Target == "" {
		return
	}
	if e.SeqOrigin == "" || e.SeqOrigin == dc.host {
		return
	}
	d := dc.delivery
	d.mu.Lock()
	if d.cfg.Disabled {
		d.mu.Unlock()
		return
	}
	r, ok := d.reloc[e.Target]
	if ok && r.expires <= d.tick {
		delete(d.reloc, e.Target)
		ok = false
	}
	if ok {
		d.bounced.Inc()
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	bounce := Event{
		Name:    EvAppBounce,
		Kind:    KindControl,
		DstHost: e.SeqOrigin,
		SrcHost: dc.host,
		SizeKB:  ackSizeKB,
		Payload: AppBounce{Host: dc.host, Target: e.Target, Seq: e.Seq, Location: r.host},
	}
	if data, err := EncodeEvent(bounce); err == nil {
		dc.sendTracked(e.SeqOrigin, data, ackSizeKB)
	}
}

// DeliveryTick advances the delivery clock one step: due entries on the
// retransmit wheel go out again (bounded by MaxAttempts), dirty ack
// ranges flush, and the relocation table ages. It is the layer's only
// clock: tests drive it directly for determinism, live processes run it
// from the admin's delivery pump. A tick touches only the entries whose
// retransmission is due — not the whole pending table — so its cost
// scales with loss, not load. Returns the number of events
// retransmitted.
func (dc *DistributionConnector) DeliveryTick() int {
	d := dc.delivery
	d.mu.Lock()
	if d.cfg.Disabled {
		d.mu.Unlock()
		return 0
	}
	d.tick++
	if d.tick%relocSweepEvery == 0 {
		for comp, r := range d.reloc {
			if r.expires <= d.tick {
				delete(d.reloc, comp)
			}
		}
	}
	due := d.wheel[d.tick]
	delete(d.wheel, d.tick)
	// Canonical send order for determinism: only the due bucket is
	// sorted, never the full table.
	slices.SortFunc(due, func(a, b pendingKey) int {
		return cmp.Or(cmp.Compare(a.target, b.target), cmp.Compare(a.seq, b.seq))
	})
	type sendItem struct {
		e  Event
		to model.HostID // "" = broadcast
	}
	// Sized by what is actually retransmitted: on a healthy link nearly
	// every due key was acked long ago.
	var items []sendItem
	for _, k := range due {
		w := d.sends[k.target]
		p := w.lookup(k.seq)
		if p == nil {
			continue // acked since it was scheduled
		}
		p.attempts++
		if p.attempts > d.cfg.MaxAttempts {
			d.removeLocked(p)
			w.trim()
			d.abandoned.Inc()
			continue
		}
		d.wheel[d.tick+1] = append(d.wheel[d.tick+1], k)
		to := d.hints[k.target]
		if to != "" && p.attempts%deliveryBroadcastEvery == 0 {
			// Periodically ignore the hint: it may be stale (learned
			// before a crash) and would otherwise starve the event.
			to = ""
		}
		items = append(items, sendItem{e: p.e, to: to})
	}
	batches := d.buildAckBatchesLocked()
	d.pendingG.Set(float64(d.pendingN))
	d.mu.Unlock()
	dc.sendAckBatches(batches)
	for _, it := range items {
		if dc.Connector.attachedTo(it.e.Target) {
			// The target migrated to (or was restored on) this host after
			// the event was stamped; remote retransmission would orbit the
			// network forever. Deliver the copy locally instead — dedup
			// suppresses it if an earlier copy already landed, and the
			// self-ack settles the pending entry.
			e := it.e
			e.SrcHost = dc.host // already crossed its boundary: no re-forward
			e.DstHost = ""
			d.retrans.Inc()
			dc.Connector.Route(e)
			continue
		}
		it.e.SrcHost = dc.host
		data, pooled, err := dc.encodeFrame(it.e)
		if err != nil {
			continue
		}
		d.retrans.Inc()
		if it.to != "" {
			dc.sendTracked(it.to, data, it.e.EffectiveSizeKB())
		} else {
			for _, peer := range dc.transport.Peers() {
				dc.sendTracked(peer, data, it.e.EffectiveSizeKB())
			}
		}
		if pooled != nil {
			putEncBuf(pooled)
		}
	}
	return len(items)
}

// SnapshotDedup exports the receiver-side dedup windows, grouped by
// origin in deterministic order: every window (the deployer's durable
// checkpoint), or with target non-empty only those addressed to that
// component (its TransferPayload, so exactly-once survives the move).
func (dc *DistributionConnector) SnapshotDedup(target string) []DedupSnapshot {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]streamKey, 0, len(d.streams))
	for k := range d.streams {
		if target == "" || k.target == target {
			keys = append(keys, k)
		}
	}
	return d.exportLocked(keys)
}

// RestoreDedup merges exported dedup windows back into the connector,
// keeping the stricter of local and imported knowledge per stream, so
// neither an arriving component's windows nor a replayed checkpoint can
// ever un-deliver an event.
func (dc *DistributionConnector) RestoreDedup(snaps []DedupSnapshot) {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, snap := range snaps {
		for _, r := range snap.Ranges {
			key := streamKey{snap.Origin, r.Inc, r.Target}
			w := d.streams[key]
			if w == nil {
				w = &dedupWindow{}
				d.streams[key] = w
			}
			w.merge(r.Floor, r.Spans)
		}
	}
}

// dropDedup discards the dedup streams — and their unflushed ack
// marks — for a target that left this host (its state migrated with it).
func (dc *DistributionConnector) dropDedup(target string) {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	for k := range d.streams {
		if k.target == target {
			delete(d.streams, k)
			delete(d.ackDirty, k)
		}
	}
}

// RelocationSnapshot returns the unexpired relocation table (component →
// authoritative host) — the coordinator's committed-move memory.
func (dc *DistributionConnector) RelocationSnapshot() map[string]model.HostID {
	d := dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]model.HostID, len(d.reloc))
	for comp, r := range d.reloc {
		if r.expires <= d.tick {
			continue
		}
		out[comp] = r.host
	}
	return out
}

// instrumentDelivery registers the application-plane metric handles.
func (d *appDelivery) instrument(reg *obs.Registry, host string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.acked = reg.Counter(obs.Name("prism_app_acked_total", "host", host))
	d.deduped = reg.Counter(obs.Name("prism_app_deduped_total", "host", host))
	d.bounced = reg.Counter(obs.Name("prism_app_bounced_total", "host", host))
	d.retrans = reg.Counter(obs.Name("prism_app_retransmits_total", "host", host))
	d.abandoned = reg.Counter(obs.Name("prism_app_abandoned_total", "host", host))
	d.pendingG = reg.Gauge(obs.Name("prism_app_pending", "host", host))
	d.ackFrames = reg.Counter(obs.Name("prism_batch_ack_frames_total", "host", host))
	d.ackBatched = reg.Counter(obs.Name("prism_batch_acks_total", "host", host))
}
