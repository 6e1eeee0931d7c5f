package prism

import (
	"bytes"
	"reflect"
	"testing"
)

// codecCases enumerates every Event field combination the binary codec
// claims: empty/zero values, unstamped vs stamped, hops, every
// EventKind, and each binary-encodable payload.
func codecCases() map[string]Event {
	registerPayloadsOnce.Do(registerControlPayloads)
	return map[string]Event{
		"zero":        {},
		"name only":   {Name: "app.tick"},
		"application": {Name: "app.req", Kind: KindApplication, Sender: "c1", Target: "c2"},
		"control":     {Name: "ctl.cmd", Kind: KindControl, SrcHost: "h1", DstHost: "h2"},
		"ping":        {Name: "prism.ping", Kind: KindPing, SizeKB: 0.1, SrcHost: "h1", DstHost: "h2"},
		"sized":       {Name: "app.blob", Target: "sink", SizeKB: 128.5},
		"stamped": {
			Name: "app.req", Sender: "c1", Target: "c2", SrcHost: "h1",
			SizeKB: 0.2, Seq: 42, SeqOrigin: "h1", SeqInc: 3,
		},
		"stamped zero-inc": {Name: "app.req", Target: "c2", Seq: 1, SeqOrigin: "h9"},
		"hops":             {Name: "app.relay", Target: "c3", Seq: 7, SeqOrigin: "h2", Hops: 3},
		"max hops":         {Name: "app.relay", Target: "c3", Hops: 1 << 30},
		"unicode":          {Name: "ev√©nt", Sender: "københavn", Target: "京都"},
		"ack payload": { // the common shape: one stream, one hole
			Name: EvAppAckBatch, Kind: KindControl, SrcHost: "h2", DstHost: "h1", SizeKB: ackSizeKB,
			Payload: AppAckBatch{Host: "h2", Ranges: []AckRange{
				{Target: "c1", Inc: 1, Floor: 9, Spans: []SeqSpan{{11, 50_000}}},
			}},
		},
		"bounce payload": {
			Name: EvAppBounce, Kind: KindControl, DstHost: "h1", SrcHost: "h3", SizeKB: ackSizeKB,
			Payload: AppBounce{Host: "h3", Target: "c1", Seq: 12, Location: "h4"},
		},
		"ack batch empty": {
			Name: EvAppAckBatch, Kind: KindControl, DstHost: "h1", SrcHost: "h2",
			Payload: AppAckBatch{Host: "h2"},
		},
		"ack batch ranges": {
			Name: EvAppAckBatch, Kind: KindControl, DstHost: "h1", SrcHost: "h2", SizeKB: ackSizeKB,
			Payload: AppAckBatch{Host: "h2", Ranges: []AckRange{
				{Target: "c1", Inc: 0, Floor: 100},
				{Target: "c2", Inc: 2, Floor: 7, Spans: []SeqSpan{{9, 9}, {12, 40000}, {40002, 1<<64 - 1}}},
			}},
		},
		"goal announce": {
			Name: EvGoalAnnounce, Kind: KindControl, Target: DeployerID, SizeKB: 0.4,
			Payload: GoalAnnounce{
				Host: "h3", Incarnation: 2, Generation: 9,
				Manifest: []string{"c1", "c7"},
			},
		},
		"goal delta": {
			Name: EvGoalDelta, Kind: KindControl, Target: AdminID, SizeKB: 0.5,
			Payload: GoalDelta{
				Host: "h3", Coordinator: "h1", Term: 4, FromGen: 9, Generation: 12, Full: true,
				Acquire: []GoalComponent{{ID: "c2", Type: "dif.traffic"}},
				Remove:  []string{"c7"},
				Reloc:   []RelocEntry{{Comp: "c7", Host: "h2"}},
			},
		},
		"goal ack": {
			Name: EvGoalAck, Kind: KindControl, Target: DeployerID, SizeKB: 0.3,
			Payload: GoalAck{Host: "h3", Generation: 12, Manifest: []string{"c1", "c2"}},
		},
	}
}

// TestBinaryGobParity round-trips every field combination through both
// codecs and asserts they agree with each other and with the input.
func TestBinaryGobParity(t *testing.T) {
	for name, e := range codecCases() {
		t.Run(name, func(t *testing.T) {
			if !BinaryEncodable(e) {
				t.Fatalf("case must be binary-encodable")
			}
			bin, err := AppendEvent(nil, e)
			if err != nil {
				t.Fatalf("binary encode: %v", err)
			}
			if bin[0] != binTag {
				t.Fatalf("binary frame tag = %#x, want %#x", bin[0], binTag)
			}
			gobBytes, err := encodeEventGob(e)
			if err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			fromBin, err := decodeBinaryEvent(bin)
			if err != nil {
				t.Fatalf("binary decode: %v", err)
			}
			fromGob, err := decodeEventGob(gobBytes)
			if err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			if !reflect.DeepEqual(fromBin, fromGob) {
				t.Errorf("codecs disagree:\n binary %+v\n gob    %+v", fromBin, fromGob)
			}
			if !reflect.DeepEqual(fromBin, e) {
				t.Errorf("binary round-trip:\n got  %+v\n want %+v", fromBin, e)
			}
		})
	}
}

// TestBinaryReencodeRegression pins that decode→re-encode reproduces the
// exact same bytes: the layout has no encoder freedom, so any drift is a
// wire-format break.
func TestBinaryReencodeRegression(t *testing.T) {
	for name, e := range codecCases() {
		t.Run(name, func(t *testing.T) {
			first, err := AppendEvent(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := decodeBinaryEvent(first)
			if err != nil {
				t.Fatal(err)
			}
			second, err := AppendEvent(nil, decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("re-encode drifted:\n first  %x\n second %x", first, second)
			}
		})
	}
}

// TestEncodeEventSelectsCodec verifies codec dispatch: hot-path events
// get the binary tag, arbitrary payloads fall back to gob, and both
// decode through the same DecodeEvent entry point.
func TestEncodeEventSelectsCodec(t *testing.T) {
	hot := Event{Name: "app.req", Target: "c1", Seq: 3, SeqOrigin: "h1"}
	data, err := EncodeEvent(hot)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != binTag {
		t.Fatalf("hot-path frame not binary (first byte %#x)", data[0])
	}
	got, err := DecodeEvent(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hot) {
		t.Errorf("binary dispatch round-trip: got %+v want %+v", got, hot)
	}

	cold := Event{Name: "app.req", Target: "c1", Payload: "needs gob"}
	data, err = EncodeEvent(cold)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] == binTag {
		t.Fatal("gob fallback frame starts with the binary tag")
	}
	got, err = DecodeEvent(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cold) {
		t.Errorf("gob dispatch round-trip: got %+v want %+v", got, cold)
	}
}

// ackSpanFrame hand-builds an EvAppAckBatch frame holding one range
// (target "c", inc 0, the given floor) whose span section is the raw
// uvarints in spans, so malformed span encodings can be written out.
func ackSpanFrame(floor uint64, spans ...uint64) []byte {
	b, _ := AppendEvent(nil, Event{Name: EvAppAckBatch, Kind: KindControl})
	b[1] |= payAckBatch
	b = appendString(b, "h2")
	b = appendUvarint(b, 1)
	b = appendString(b, "c")
	b = appendUvarint(b, 0)
	b = appendUvarint(b, floor)
	for _, v := range spans {
		b = appendUvarint(b, v)
	}
	return b
}

// malformedAckFrames are the ack encodings a hostile peer could send;
// each must be rejected, and none may panic or allocate by a claimed
// count.
func malformedAckFrames() map[string][]byte {
	const top = ^uint64(0)
	return map[string][]byte{
		"span lo overflows":     ackSpanFrame(top-1, 1, 5, 0),
		"span hi overflows":     ackSpanFrame(10, 1, 5, top),
		"second lo overflows":   ackSpanFrame(10, 2, 5, 0, top, 0),
		"span not above floor":  ackSpanFrame(10, 1, 0, 3),
		"spans descend":         ackSpanFrame(10, 2, 5, 3, 0, 1),
		"span count over frame": ackSpanFrame(10, 1<<40, 5, 3),
		// Payload kind 1 was the single-event ack; the code stays reserved.
		"retired single ack": {binTag, 0x01, byte(KindControl), 0, 0, 0, 0, 0, 2, 'h', '2', 1, 'c', 9, 1},
	}
}

// TestBinaryDecodeRejectsCorruption spot-checks the strict-decode
// contract on hand-built malformed frames.
func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	valid, err := AppendEvent(nil, codecCases()["ack batch ranges"])
	if err != nil {
		t.Fatal(err)
	}
	// The hand-builder itself is sound: a well-formed span section decodes.
	if _, err := decodeBinaryEvent(ackSpanFrame(10, 2, 5, 3, 1, 0)); err != nil {
		t.Fatalf("well-formed hand-built span frame rejected: %v", err)
	}
	cases := malformedAckFrames()
	for name, data := range map[string][]byte{
		"empty tag only":  {binTag},
		"truncated half":  valid[:len(valid)/2],
		"truncated tail":  valid[:len(valid)-1],
		"trailing bytes":  append(append([]byte(nil), valid...), 0x00),
		"bad payloadkind": {binTag, 0x07, 0x01, 0, 0, 0, 0, 0},
		"huge hops": append([]byte{binTag, flagHasHops, 0x01, 0, 0, 0, 0, 0},
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	} {
		cases[name] = data
	}
	for name, data := range cases {
		if _, err := decodeBinaryEvent(data); err == nil {
			t.Errorf("%s: decode accepted malformed frame %x", name, data)
		}
	}
}

// TestBinaryDecodeAllocs pins the zero-alloc decode claim for stamped
// payload-free events once the intern cache is warm.
func TestBinaryDecodeAllocs(t *testing.T) {
	e := Event{
		Name: "app.req", Sender: "c1", Target: "c2", SrcHost: "h1",
		SizeKB: 0.2, Seq: 42, SeqOrigin: "h1", SeqInc: 3,
	}
	data, err := AppendEvent(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBinaryEvent(data); err != nil { // warm interning
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeBinaryEvent(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm decode allocates %.1f objects/op, want 0", allocs)
	}
}

// TestInternStringBounds exercises the cache's overflow and length
// gates: oversized and overflow strings still intern correctly (by
// value), just without reuse.
func TestInternStringBounds(t *testing.T) {
	long := bytes.Repeat([]byte("x"), internMaxLen+1)
	if got := internString(long); got != string(long) {
		t.Errorf("oversized intern = %q", got)
	}
	if got := internString(nil); got != "" {
		t.Errorf("empty intern = %q", got)
	}
	if got := internString([]byte("host-7")); got != "host-7" {
		t.Errorf("intern = %q", got)
	}
}

// FuzzBinaryDecodeEvent throws corrupt, truncated, and adversarial
// binary frames at the strict decoder: it must return an error or an
// event, never panic, and every successfully decoded event must
// re-encode cleanly.
func FuzzBinaryDecodeEvent(f *testing.F) {
	// The fuzz body supplies the tag byte, so whole-frame seeds drop it.
	for _, e := range codecCases() {
		data, err := AppendEvent(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[1:])
		f.Add(data[1 : len(data)/2])
	}
	for _, data := range malformedAckFrames() {
		f.Add(data[1:])
	}
	f.Add([]byte{binTag})
	f.Add([]byte{binTag, 0xff})
	f.Add([]byte{binTag, flagHasSeq | flagHasHops, 0x02})
	f.Add(bytes.Repeat([]byte{binTag}, 32))
	// Goal-state frame corpora: the payload is the frame's tail, so the
	// seeds patch it in place — version-skewed (99 and 0), unknown op,
	// unknown-field extension tail, and a truncated delta.
	goalFrame, err := AppendEvent(nil, codecCases()["goal delta"])
	if err != nil {
		f.Fatal(err)
	}
	goalPayload := appendGoalPayload(nil, codecCases()["goal delta"].Payload.(GoalDelta))
	head := goalFrame[:len(goalFrame)-len(goalPayload)]
	patch := func(b []byte, off int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[len(head)+off] = v
		return out
	}
	f.Add(patch(goalFrame, 0, 99)[1:]) // newer major version
	f.Add(patch(goalFrame, 0, 0)[1:])  // invalid version zero
	f.Add(patch(goalFrame, 1, 0x7f)[1:])
	f.Add(append(append([]byte(nil), goalFrame[1:len(goalFrame)-1]...), 3, 0xde, 0xad, 0xbf))
	f.Add(goalFrame[1 : len(head)+len(goalPayload)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeBinaryEvent(append([]byte{binTag}, data...))
		if err != nil {
			return
		}
		if !BinaryEncodable(e) {
			t.Fatalf("decoder produced non-binary-encodable event %+v", e)
		}
		if b, ok := e.Payload.(AppAckBatch); ok {
			for _, r := range b.Ranges {
				prev := r.Floor
				for _, s := range r.Spans {
					if s.Lo <= prev || s.Hi < s.Lo {
						t.Fatalf("decoder accepted spans %v that do not ascend from floor %d", r.Spans, r.Floor)
					}
					prev = s.Hi
				}
			}
		}
		if _, err := AppendEvent(nil, e); err != nil {
			t.Fatalf("decoded event does not re-encode: %v", err)
		}
	})
}
