package prism

import (
	"math/rand"
	"sync"
	"testing"

	"dif/internal/model"
)

// sentFrame is one frame a captureTransport was asked to send.
type sentFrame struct {
	to   model.HostID
	e    Event
	size int // encoded bytes
}

// captureTransport records (decoded) outbound frames and delivers
// nothing, so sender-side delivery state can be driven frame by frame.
type captureTransport struct {
	host  model.HostID
	peers []model.HostID

	mu   sync.Mutex
	sent []sentFrame
}

func (c *captureTransport) Host() model.HostID                     { return c.host }
func (c *captureTransport) Peers() []model.HostID                  { return c.peers }
func (c *captureTransport) SetReceiver(func(model.HostID, []byte)) {}
func (c *captureTransport) Close() error                           { return nil }
func (c *captureTransport) Send(to model.HostID, data []byte, _ float64) error {
	e, err := DecodeEvent(data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.sent = append(c.sent, sentFrame{to, e, len(data)})
	c.mu.Unlock()
	return nil
}

// take returns and clears the captured frames.
func (c *captureTransport) take() []sentFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// windowRig is a lone sender: a distribution connector on h1 whose
// frames toward h2 are captured instead of delivered.
type windowRig struct {
	dc *DistributionConnector
	tr *captureTransport
}

func newWindowRig() *windowRig {
	tr := &captureTransport{host: "h1", peers: []model.HostID{"h2"}}
	return &windowRig{dc: NewDistributionConnector("bus", "h1", nil, tr), tr: tr}
}

// stampN stamps n events toward target and returns the sequences issued.
func (r *windowRig) stampN(target string, n int) []uint64 {
	seqs := make([]uint64, n)
	for i := range seqs {
		e := Event{Name: "e", Kind: KindApplication, Sender: "a", Target: target}
		r.dc.stamp(&e)
		seqs[i] = e.Seq
	}
	return seqs
}

// ack delivers one ack range: a floor plus single-sequence residue spans.
func (r *windowRig) ack(target string, inc, floor uint64, seen ...uint64) {
	spans := make([]SeqSpan, len(seen))
	for i, s := range seen {
		spans[i] = SeqSpan{s, s}
	}
	r.ackSpans(target, inc, floor, spans...)
}

func (r *windowRig) ackSpans(target string, inc, floor uint64, spans ...SeqSpan) {
	r.dc.handleAppAckBatch(AppAckBatch{Host: "h2", Ranges: []AckRange{{Target: target, Inc: inc, Floor: floor, Spans: spans}}})
}

// liveSeqs lists the target's unacked sequences, ascending.
func (r *windowRig) liveSeqs(target string) []uint64 {
	d := r.dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []uint64
	if w := d.sends[target]; w != nil {
		for i := 0; i < w.n; i++ {
			if p := w.at(i); p.live {
				out = append(out, p.e.Seq)
			}
		}
	}
	return out
}

func wantSeqs(t *testing.T, r *windowRig, target string, want ...uint64) {
	t.Helper()
	got := r.liveSeqs(target)
	if len(got) != len(want) {
		t.Fatalf("unacked %s = %v, want %v", target, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unacked %s = %v, want %v", target, got, want)
		}
	}
	d := r.dc.delivery
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, w := range d.sends {
		for i := 0; i < w.n; i++ {
			if w.at(i).live {
				total++
			}
		}
	}
	if d.pendingN != total {
		t.Fatalf("pendingN = %d, live slots = %d", d.pendingN, total)
	}
}

func TestSendWindowCumulativeFloorSettle(t *testing.T) {
	r := newWindowRig()
	seqs := r.stampN("b", 40) // crosses two ring doublings (16 → 32 → 64)
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want contiguous from 1", i, s)
		}
	}
	r.ack("b", 0, 25)
	if w := r.dc.delivery.sends["b"]; w.base != 26 || w.n != 15 {
		t.Fatalf("window after floor 25: base %d n %d, want base 26 n 15", w.base, w.n)
	}
	// A floor beyond what was ever sent settles everything and no more.
	r.ack("b", 0, 1000)
	wantSeqs(t, r, "b")
	// The emptied window restarts at the next sequence, wrapped or not.
	r.stampN("b", 3)
	wantSeqs(t, r, "b", 41, 42, 43)
	// Acks for a target never stamped are ignored.
	r.ack("nobody", 0, 9)
	wantSeqs(t, r, "b", 41, 42, 43)
}

func TestSendWindowResidueSettle(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 10)
	// The receiver saw 1-3 in order, then 6 and 8 ahead of a gap.
	r.ack("b", 0, 3, 6, 8)
	wantSeqs(t, r, "b", 4, 5, 7, 9, 10)
	w := r.dc.delivery.sends["b"]
	if w.base != 4 {
		t.Fatalf("head sits at %d, want 4 (holes above the head stay in the window)", w.base)
	}
	// Residue naming sequences outside the window is ignored.
	r.ack("b", 0, 3, 2, 11, 99)
	wantSeqs(t, r, "b", 4, 5, 7, 9, 10)
	// Closing the gap lets the head run past the earlier holes.
	r.ack("b", 0, 5)
	if w.base != 7 {
		t.Fatalf("head sits at %d, want 7", w.base)
	}
	r.ack("b", 0, 8)
	wantSeqs(t, r, "b", 9, 10)
}

// TestSendWindowAckFramesIdempotent replays, reorders and rewinds ack
// frames: ranges are windows, so none of that can un-settle or
// over-settle anything.
func TestSendWindowAckFramesIdempotent(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 20)
	r.ack("b", 0, 10, 14)
	wantSeqs(t, r, "b", 11, 12, 13, 15, 16, 17, 18, 19, 20)
	r.ack("b", 0, 10, 14) // duplicate
	r.ack("b", 0, 4)      // stale: an older frame overtaken on the wire
	r.ack("b", 0, 0, 2)   // stale residue below the head
	wantSeqs(t, r, "b", 11, 12, 13, 15, 16, 17, 18, 19, 20)
	r.ack("b", 0, 17)
	r.ack("b", 0, 12, 14) // reordered: the older frame lands second
	wantSeqs(t, r, "b", 18, 19, 20)
}

// TestSendWindowMixedIncarnations: a range settles only sends stamped
// under its own incarnation, even when another incarnation's sends sit
// below its floor in the same window.
func TestSendWindowMixedIncarnations(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 3) // inc 0: 1..3
	r.dc.SetIncarnation(7)
	r.stampN("b", 3) // inc 7: 4..6
	r.ack("b", 7, 5)
	wantSeqs(t, r, "b", 1, 2, 3, 6)
	if w := r.dc.delivery.sends["b"]; w.base != 1 {
		t.Fatalf("head advanced to %d past another incarnation's unacked sends", w.base)
	}
	r.ack("b", 7, 5) // replay steps over the parked inc-0 sends again
	wantSeqs(t, r, "b", 1, 2, 3, 6)
	r.ack("b", 0, 2, 3, 6) // residue 6 belongs to inc 7: not settled by inc 0
	wantSeqs(t, r, "b", 6)
	r.ack("b", 7, 6)
	wantSeqs(t, r, "b")
}

func TestSendWindowBounceLookup(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 5)
	r.ack("b", 0, 2)
	r.tr.take()

	r.dc.handleAppBounce(AppBounce{Host: "h2", Target: "b", Seq: 4, Location: "h3"})
	sent := r.tr.take()
	if len(sent) != 1 || sent[0].to != "h3" || sent[0].e.Seq != 4 || sent[0].e.Target != "b" {
		t.Fatalf("bounce of live seq 4 re-sent %+v, want seq 4 to h3", sent)
	}
	// Settled, never-issued, and foreign-target bounces re-send nothing.
	r.dc.handleAppBounce(AppBounce{Host: "h2", Target: "b", Seq: 1, Location: "h3"})
	r.dc.handleAppBounce(AppBounce{Host: "h2", Target: "b", Seq: 6, Location: "h3"})
	r.dc.handleAppBounce(AppBounce{Host: "h2", Target: "zz", Seq: 3, Location: "h3"})
	if sent := r.tr.take(); len(sent) != 0 {
		t.Fatalf("dead bounces re-sent %+v", sent)
	}
	wantSeqs(t, r, "b", 3, 4, 5)
}

func TestSendWindowRetransmitAfterPartialSettle(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 6)
	r.stampN("c", 2)
	r.ack("b", 0, 2, 5) // 3, 4, 6 stay
	r.tr.take()

	if n := r.dc.DeliveryTick(); n != 0 {
		t.Fatalf("tick 1 retransmitted %d, want 0 (grace)", n)
	}
	if n := r.dc.DeliveryTick(); n != 5 {
		t.Fatalf("tick 2 retransmitted %d, want 5", n)
	}
	var got []pendingKey
	for _, f := range r.tr.take() {
		got = append(got, pendingKey{f.e.Target, f.e.Seq})
	}
	want := []pendingKey{{"b", 3}, {"b", 4}, {"b", 6}, {"c", 1}, {"c", 2}}
	if len(got) != len(want) {
		t.Fatalf("retransmitted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retransmitted %v, want %v (canonical target, seq order)", got, want)
		}
	}
	// Settling between ticks drops the entry from the next round.
	r.ack("b", 0, 4)
	if n := r.dc.DeliveryTick(); n != 3 {
		t.Fatalf("tick 3 retransmitted %d, want 3", n)
	}
}

func TestSendWindowAbandonAdvancesHead(t *testing.T) {
	r := newWindowRig()
	r.dc.SetDeliveryConfig(DeliveryConfig{MaxAttempts: 2})
	r.stampN("b", 3)
	r.ack("b", 0, 0, 2)
	for i := 0; i < 2+retransmitGraceTicks; i++ {
		r.dc.DeliveryTick()
	}
	wantSeqs(t, r, "b")
	if w := r.dc.delivery.sends["b"]; w.n != 0 {
		t.Fatalf("abandoned sends still occupy %d window slots", w.n)
	}
}

func TestSendWindowDisableResets(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 30)
	r.ack("b", 0, 7)
	r.dc.SetDeliveryConfig(DeliveryConfig{Disabled: true})
	if got := r.dc.PendingAppEvents(); got != 0 {
		t.Fatalf("pending after disable = %d, want 0", got)
	}
	e := Event{Name: "e", Kind: KindApplication, Target: "b"}
	r.dc.stamp(&e)
	if e.Seq != 0 {
		t.Fatalf("disabled layer stamped seq %d", e.Seq)
	}
	r.ack("b", 0, 30) // a late ack for dropped sends settles nothing
	if r.dc.DeliveryTick() != 0 {
		t.Fatal("disabled layer retransmitted")
	}
	// Re-enabled, the stream continues its sequence instead of reissuing
	// numbers the receiver already deduplicated, and old wheel entries
	// do not resurrect dropped sends.
	r.dc.SetDeliveryConfig(DeliveryConfig{})
	if seqs := r.stampN("b", 2); seqs[0] != 31 || seqs[1] != 32 {
		t.Fatalf("sequences after re-enable = %v, want [31 32]", seqs)
	}
	wantSeqs(t, r, "b", 31, 32)
}

// TestSendWindowMatchesReference drives one window with random stamps,
// floors, residues and ticks against a plain map and compares the
// unacked set after every step, through many wraps of the ring.
func TestSendWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := newWindowRig()
	ref := map[uint64]bool{}
	var next uint64
	for step := 0; step < 4000; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			for _, s := range r.stampN("b", 1+rng.Intn(12)) {
				next = s
				ref[s] = true
			}
		case 2:
			if next == 0 {
				continue
			}
			floor := uint64(rng.Int63n(int64(next) + 3))
			var seen []uint64
			for i := rng.Intn(4); i > 0; i-- {
				seen = append(seen, floor+1+uint64(rng.Intn(8)))
			}
			r.ack("b", 0, floor, seen...)
			for s := range ref {
				if s <= floor {
					delete(ref, s)
				}
			}
			for _, s := range seen {
				delete(ref, s)
			}
		case 3:
			r.dc.DeliveryTick() // MaxAttempts is far off: nothing abandons
		}
		got := r.liveSeqs("b")
		if len(got) != len(ref) {
			t.Fatalf("step %d: window holds %d unacked, reference %d", step, len(got), len(ref))
		}
		for _, s := range got {
			if !ref[s] {
				t.Fatalf("step %d: window holds seq %d the reference settled", step, s)
			}
		}
	}
}

// TestStampSettleAllocatesNothingPerEvent guards the hot path: stamping
// an event and settling it by cumulative ack must not heap-allocate per
// event (the window ring and the wheel bucket grow by doubling, which
// AllocsPerRun's integer average rounds away).
func TestStampSettleAllocatesNothingPerEvent(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 64) // warm the window, the maps and the hint
	r.ack("b", 0, 64)
	batch := AppAckBatch{Host: "h2", Ranges: []AckRange{{Target: "b"}}}
	allocs := testing.AllocsPerRun(2000, func() {
		e := Event{Name: "e", Kind: KindApplication, Sender: "a", Target: "b"}
		r.dc.stamp(&e)
		batch.Ranges[0].Floor = e.Seq
		r.dc.handleAppAckBatch(batch)
	})
	if allocs != 0 {
		t.Fatalf("stamp + settle allocates %v objects per event, want 0", allocs)
	}
	if got := r.dc.PendingAppEvents(); got != 0 {
		t.Fatalf("pending = %d after settling every event", got)
	}
}

// TestDedupWindowInOrderFastPath pins the receiver-side fast path: an
// in-order stream never grows a residue, and a gap falls back to the
// interval set without losing exactly-once.
func TestDedupWindowInOrderFastPath(t *testing.T) {
	w := &dedupWindow{}
	for seq := uint64(1); seq <= 100; seq++ {
		if !w.observe(seq) {
			t.Fatalf("in-order seq %d reported duplicate", seq)
		}
		if len(w.spans) != 0 {
			t.Fatalf("in-order seq %d left residue %v", seq, w.spans)
		}
	}
	if w.observe(100) || w.observe(1) {
		t.Fatal("replayed sequence reported fresh")
	}
	if !w.observe(103) || w.observe(103) || w.floor != 100 {
		t.Fatalf("gap handling: floor %d residue %v", w.floor, w.spans)
	}
	// 101 arrives while residue exists: the slow path must take it.
	if !w.observe(101) || w.floor != 101 {
		t.Fatalf("after 101: floor %d residue %v", w.floor, w.spans)
	}
	if !w.observe(102) || w.floor != 103 || len(w.spans) != 0 {
		t.Fatalf("after 102: floor %d residue %v, want floor 103 and no residue", w.floor, w.spans)
	}
	if !w.observe(104) || w.floor != 104 {
		t.Fatalf("fast path did not resume: floor %d", w.floor)
	}
}
