package prism

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refWindow is the map-based dedup window the interval set replaced,
// kept here as the reference model: a floor plus one map entry per
// out-of-order sequence.
type refWindow struct {
	floor uint64
	seen  map[uint64]bool
}

func (w *refWindow) observe(seq uint64) bool {
	if seq <= w.floor || w.seen[seq] {
		return false
	}
	w.seen[seq] = true
	w.absorb()
	return true
}

func (w *refWindow) merge(floor uint64, spans []SeqSpan) {
	w.floor = max(w.floor, floor)
	for _, s := range spans {
		for seq := s.Lo; seq <= s.Hi; seq++ {
			w.seen[seq] = true
		}
	}
	for seq := range w.seen {
		if seq <= w.floor {
			delete(w.seen, seq)
		}
	}
	w.absorb()
}

func (w *refWindow) absorb() {
	for w.seen[w.floor+1] {
		delete(w.seen, w.floor+1)
		w.floor++
	}
}

// checkWindow asserts the interval set's invariants and that it covers
// exactly what the reference does.
func checkWindow(t *testing.T, step int, w *dedupWindow, ref *refWindow) {
	t.Helper()
	if w.floor != ref.floor {
		t.Fatalf("step %d: floor %d, reference %d", step, w.floor, ref.floor)
	}
	covered, prevHi := 0, w.floor
	for _, s := range w.spans {
		if s.Lo > s.Hi || s.Lo-1 <= prevHi {
			t.Fatalf("step %d: spans %v not ascending, disjoint and non-adjacent above floor %d", step, w.spans, w.floor)
		}
		for seq := s.Lo; seq <= s.Hi; seq++ {
			if !ref.seen[seq] {
				t.Fatalf("step %d: span %v covers %d the reference never saw", step, s, seq)
			}
		}
		covered += int(s.Hi - s.Lo + 1)
		prevHi = s.Hi
	}
	if covered != len(ref.seen) {
		t.Fatalf("step %d: spans cover %d sequences, reference residue %d", step, covered, len(ref.seen))
	}
}

// driveWindows replays one op stream against both windows. Each op is
// two bytes, a selector and an argument; sequences stay close to the
// floor so holes open, fill and coalesce constantly.
func driveWindows(t *testing.T, ops []byte) {
	w, ref := &dedupWindow{}, &refWindow{seen: map[uint64]bool{}}
	for i := 0; i+1 < len(ops); i += 2 {
		arg := uint64(ops[i+1])
		switch ops[i] % 8 {
		default: // an arrival: in order, ahead of a hole, or replayed
			seq := w.floor + arg%24
			if ops[i]%8 == 7 {
				seq = arg % (w.floor + 1) // long since delivered
			}
			if got, want := w.observe(seq), ref.observe(seq); got != want {
				t.Fatalf("step %d: observe(%d) fresh=%v, reference %v", i/2, seq, got, want)
			}
		case 5: // export → merge into a fresh window must reproduce it
			r := w.export("t", 0)
			var back dedupWindow
			back.merge(r.Floor, r.Spans)
			if back.floor != w.floor || !slices.Equal(back.spans, w.spans) {
				t.Fatalf("step %d: export/merge gave %d %v, want %d %v", i/2, back.floor, back.spans, w.floor, w.spans)
			}
		case 6: // a foreign window: stale or ahead, spans unordered, one inverted
			floor := w.floor + arg%7 - min(w.floor, 3)
			spans := []SeqSpan{
				{floor + 2 + arg%5, floor + 2 + arg%5 + arg%4},
				{floor + arg%3, floor + 1 + arg%9},
				{5, 3},
			}
			w.merge(floor, spans)
			ref.merge(floor, spans)
		}
		checkWindow(t, i/2, w, ref)
	}
}

// TestDedupWindowMatchesReference drives random observe/export/merge
// sequences against the map-based window the interval set replaced:
// same fresh verdicts, same floor, same covered set, spans canonical.
func TestDedupWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 50; round++ {
		ops := make([]byte, 2*400)
		rng.Read(ops)
		driveWindows(t, ops)
	}
}

func FuzzDedupWindow(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 0, 2, 5, 0, 6, 4, 7, 9})
	f.Add([]byte{0, 5, 0, 9, 0, 7, 0, 8, 0, 6, 6, 200, 0, 1})
	f.Fuzz(driveWindows)
}

// TestDedupWindowHostileSequences: sequence numbers come off the socket,
// so the extremes must neither panic nor corrupt the ordering.
func TestDedupWindowHostileSequences(t *testing.T) {
	const top = ^uint64(0)
	w := &dedupWindow{}
	for i, seq := range []uint64{top, top - 2, top - 1, 5, top} {
		if fresh := w.observe(seq); fresh != (i < 4) {
			t.Fatalf("observe(%d) fresh=%v with spans %v", seq, fresh, w.spans)
		}
	}
	if want := []SeqSpan{{5, 5}, {top - 2, top}}; w.floor != 0 || !slices.Equal(w.spans, want) {
		t.Fatalf("window = floor %d spans %v, want floor 0 spans %v", w.floor, w.spans, want)
	}
	w.merge(top, nil)
	if w.floor != top || len(w.spans) != 0 || w.observe(top) || w.observe(1) {
		t.Fatalf("after merge(max): floor %d spans %v, or a sequence below it was fresh", w.floor, w.spans)
	}
}

// TestOnDeliverHoleKeepsAcksSmall is the lost-frame scenario that used
// to wedge a receiver: sequence 1 never arrives while 50 000 later ones
// do. The residue must stay one span — every flushed ack frame carries
// one span and fits in 64 bytes (it was 45 KB enumerated) — and when the
// missing sequence finally lands the floor jumps over the whole span.
func TestOnDeliverHoleKeepsAcksSmall(t *testing.T) {
	r := newWindowRig() // on h1; the stream arrives from origin h2
	deliver := func(seq uint64) bool { return r.dc.onDeliver(stampedFrom("h2", "b", seq)) }
	const later = 50_000
	for seq := uint64(2); seq <= later+1; seq++ {
		if !deliver(seq) {
			t.Fatalf("seq %d past the hole reported duplicate", seq)
		}
	}
	frames := r.tr.take()
	if want := later / DefaultAckFlush; len(frames) != want {
		t.Fatalf("flushed %d ack frames, want %d", len(frames), want)
	}
	for i, f := range frames {
		b, _ := f.e.Payload.(AppAckBatch)
		want := []AckRange{{Target: "b", Spans: []SeqSpan{{2, uint64(i+1)*DefaultAckFlush + 1}}}}
		if !reflect.DeepEqual(b.Ranges, want) || f.size > 64 {
			t.Fatalf("ack frame %d = %+v in %d bytes, want %+v in <= 64", i, b.Ranges, f.size, want)
		}
	}
	if deliver(777) || !deliver(1) {
		t.Fatal("a retransmission inside the span was fresh, or the withheld sequence a duplicate")
	}
	if w := r.dc.delivery.streams[streamKey{"h2", 0, "b"}]; w.floor != later+1 || len(w.spans) != 0 {
		t.Fatalf("after the hole filled: floor %d residue %v, want floor %d and none", w.floor, w.spans, later+1)
	}
}

// TestSendWindowWideSpanSettlesWindowOnly: an ack span is socket input.
// One claiming half the sequence space must cost what the 4-deep window
// holds — settle the live sends of its incarnation and return — not what
// it claims.
func TestSendWindowWideSpanSettlesWindowOnly(t *testing.T) {
	r := newWindowRig()
	r.stampN("b", 2) // inc 0: 1, 2
	r.dc.SetIncarnation(7)
	r.stampN("b", 2) // inc 7: 3, 4
	r.ackSpans("b", 7, 0, SeqSpan{2, 1 << 63})
	wantSeqs(t, r, "b", 1, 2)
	r.ackSpans("b", 0, 0, SeqSpan{2, ^uint64(0)}, SeqSpan{1 << 40, 1 << 41})
	wantSeqs(t, r, "b", 1)
	// A span wholly past the window, and one wholly below its head.
	r.stampN("b", 2) // inc 7: 5, 6
	r.ackSpans("b", 7, 0, SeqSpan{7, 1 << 62})
	r.ackSpans("b", 0, 0, SeqSpan{0, 0})
	wantSeqs(t, r, "b", 1, 5, 6)
}
