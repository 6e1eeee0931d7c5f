package prism

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// The control family travels on the binary codec only; the gob side of
// TestBinaryGobParity needs its types registered.
func init() {
	for _, p := range []any{ReconfigCommand{}, FetchRequest{}, TransferPayload{}, DoneReport{}, WaveOutcome{},
		OutcomeAck{}, LeaseRequest{}, LeaseGrant{}, ReplBatch{}, ReplAck{}} {
		gob.Register(p)
	}
}

// transferCase is a 64 KiB component transfer with held frames and
// dedup windows — the largest frame a wave sends.
func transferCase() TransferPayload {
	state := make([]byte, 64<<10)
	for i := range state {
		state[i] = byte(i * 7)
	}
	return TransferPayload{
		Epoch: 7, Coordinator: "m", Comp: "c1", TypeName: "counter", State: state, SizeKB: 64.5,
		FinalDst: "h3", Source: "h1",
		Held: [][]byte{{binTag, 1, 2}, bytes.Repeat([]byte{0xab}, 300)},
		Dedup: []DedupSnapshot{
			{Origin: "h1", Ranges: []AckRange{{Target: "c1", Inc: 2, Floor: 10, Spans: []SeqSpan{{12, 14}, {20, 20}}}}},
			{Origin: "h2", Ranges: []AckRange{{Target: "c1", Floor: 3}}},
		},
	}
}

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
		"reconfig": {
			Name: EvReconfig, Kind: KindControl, Target: AdminID, SizeKB: 1,
			Payload: ReconfigCommand{Epoch: 3, Arrivals: map[string]model.HostID{"c2": "h1", "c1": "h2"},
				Coordinator: "m", Term: 2, Gen: 5},
		},
		"reconfig no arrivals": {
			Name: EvReconfig, Kind: KindControl, Target: AdminID,
			Payload: ReconfigCommand{Epoch: -1, Coordinator: "m"},
		},
		"fetch": {
			Name: EvFetch, Kind: KindControl, Target: AdminID, SizeKB: 0.2,
			Payload: FetchRequest{Epoch: 3, Coordinator: "m", Comp: "c1", Requester: "h2", Source: "h1", Mediated: true},
		},
		"transfer": {
			Name: EvTransfer, Kind: KindControl, Target: AdminID, DstHost: "h2", SizeKB: 64.5,
			Payload: transferCase(),
		},
		"transfer empty": {
			Name: EvTransfer, Kind: KindControl, Target: AdminID,
			Payload: TransferPayload{Epoch: 1, Comp: "c1", TypeName: "counter"},
		},
		"done": {
			Name: EvDone, Kind: KindControl, Target: DeployerID, SizeKB: 0.2,
			Payload: DoneReport{Epoch: 3, Host: "h2", Received: 2},
		},
		"outcome commit": {
			Name: EvOutcome, Kind: KindControl, Target: AdminID, SizeKB: 0.2,
			Payload: WaveOutcome{Epoch: 3, Coordinator: "m", Commit: true, Term: 2, ReplyTo: "m2",
				Gens: map[model.HostID]uint64{"h2": 5, "h1": 1 << 40}},
		},
		"outcome abort": {
			Name: EvOutcome, Kind: KindControl, Target: AdminID, SizeKB: 0.2,
			Payload: WaveOutcome{Epoch: 3, Coordinator: "m"},
		},
		"outcome ack": {
			Name: EvOutcomeAck, Kind: KindControl, Target: DeployerID, SizeKB: 0.2,
			Payload: OutcomeAck{Epoch: 3, Host: "h1"},
		},
		"lease request": {
			Name: EvLeaseRequest, Kind: KindControl, Target: AdminID, SizeKB: 0.2,
			Payload: LeaseRequest{Candidate: "m", Term: 4, TTL: 2 * time.Second, Renewal: true},
		},
		"lease grant": {
			Name: EvLeaseGrant, Kind: KindControl, Target: DeployerID, SizeKB: 0.2,
			Payload: LeaseGrant{Host: "h1", Term: 4, Granted: true},
		},
		"repl batch": {
			Name: EvReplicate, Kind: KindControl, Target: DeployerID, SizeKB: 0.5,
			Payload: ReplBatch{Leader: "m", Term: 4, Seq: 9, Reset: true, Records: []ReplRecord{
				{Kind: RecSnapshot, Data: encodeRecord(snapshotRec{NextEpoch: 3, Term: 4})},
				{Kind: RecEpochClosed, Data: encodeRecord(epochMarkRec{Epoch: 2})},
			}},
		},
		"repl heartbeat": {
			Name: EvReplicate, Kind: KindControl, Target: DeployerID,
			Payload: ReplBatch{Leader: "m", Term: 4, Seq: 11},
		},
		"repl ack": {
			Name: EvReplicateAck, Kind: KindControl, Target: DeployerID, SizeKB: 0.2,
			Payload: ReplAck{Host: "m2", Term: 4, Applied: 10},
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

// TestControlPayloadVersionGate pins the rolling-upgrade contract of the
// control family, as TestGoalPayloadVersionGate does for goal-state: a
// newer version is rejected cleanly, version zero and unknown ops are
// rejected, and a same-version extension tail is skipped.
func TestControlPayloadVersionGate(t *testing.T) {
	want := codecCases()["outcome commit"].Payload.(WaveOutcome)
	valid := appendControlPayload(nil, want)
	decode := func(data []byte) (any, error) {
		r := &binReader{b: data}
		p, err := decodeControlPayload(r)
		if err == nil && r.off != len(data) {
			t.Fatalf("decode left %d trailing bytes", len(data)-r.off)
		}
		return p, err
	}
	if valid[0] != controlVersion {
		t.Fatalf("leading version byte = %d, want %d", valid[0], controlVersion)
	}
	patched := func(off int, v byte) []byte {
		out := append([]byte(nil), valid...)
		out[off] = v
		return out
	}
	if _, err := decode(patched(0, controlVersion+1)); err == nil || !strings.Contains(err.Error(), "unsupported control version") {
		t.Fatalf("newer-version payload: err = %v, want unsupported-version", err)
	}
	if _, err := decode(patched(0, 0)); err == nil {
		t.Fatal("version-0 payload decoded")
	}
	if _, err := decode(patched(1, 0x7f)); err == nil || !strings.Contains(err.Error(), "unknown control op") {
		t.Fatalf("unknown-op payload: err = %v, want unknown-op", err)
	}
	ext := append(append([]byte(nil), valid[:len(valid)-1]...), 3, 0xde, 0xad, 0xbf)
	p, err := decode(ext)
	if err != nil {
		t.Fatalf("extension tail rejected: %v", err)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("extension-tail decode = %+v, want %+v", p, want)
	}
	for i := 0; i < len(valid); i++ {
		if _, err := decode(valid[:i]); err == nil {
			t.Fatalf("truncated payload of %d/%d bytes decoded", i, len(valid))
		}
	}
}

// TestDecodedBytesDoNotAliasFrame overwrites each frame after decoding
// it: the state, held frames and replicated records must be copies, so
// a reader may reuse its buffer.
func TestDecodedBytesDoNotAliasFrame(t *testing.T) {
	for _, name := range []string{"transfer", "repl batch"} {
		e := codecCases()[name]
		frame, err := AppendEvent(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBinaryEvent(frame)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] = 0xff
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("%s: decoded payload changed when the frame was overwritten", name)
		}
	}
}

// TestControlFrameOneAllocation pins binarySizeHint for the largest
// control frame: a 64 KiB transfer encodes in one allocation.
func TestControlFrameOneAllocation(t *testing.T) {
	e := codecCases()["transfer"]
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeEvent(e); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("64 KiB transfer encodes in %.0f allocations, want 1", allocs)
	}
}

// TestWaveFramesAreBinary commits a wave over TCP between a deployer and
// two agents: every frame the wave puts on the sockets — reconfig,
// fetch, transfer, done, outcome, ack — decodes on the binary codec.
func TestWaveFramesAreBinary(t *testing.T) {
	hosts := []model.HostID{"m", "s1", "s2"}
	trs := map[model.HostID]*TCPTransport{}
	for _, h := range hosts {
		tr, err := NewTCPTransport(h, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[h] = tr
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				trs[a].AddPeer(b, trs[b].Addr())
			}
		}
	}
	registry := NewFactoryRegistry()
	registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	cfg := AdminConfig{Deployer: "m", Bus: "bus", Registry: registry}
	reg := obs.NewRegistry()
	archs := map[model.HostID]*Architecture{}
	for _, h := range hosts {
		archs[h] = NewArchitecture(h, nil)
		archs[h].SetObservability(reg, nil)
		if _, err := archs[h].AddDistributionConnector("bus", trs[h]); err != nil {
			t.Fatal(err)
		}
		if _, err := InstallAdmin(archs[h], cfg); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := InstallDeployer(archs["m"], cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter("c1")
	c.Count = 41
	if err := archs["s1"].AddComponent(c); err != nil {
		t.Fatal(err)
	}
	if err := archs["s1"].Weld("c1", "bus"); err != nil {
		t.Fatal(err)
	}
	res, err := dep.Enact(map[string]model.HostID{"c1": "s2"}, map[string]model.HostID{"c1": "s1"}, 5*time.Second)
	if err != nil || !res.Committed {
		t.Fatalf("enact over tcp: %v (%+v)", err, res)
	}
	waitFor(t, func() bool { return archs["s2"].Component("c1") != nil })
	snap := reg.Snapshot()
	for _, h := range hosts {
		bin, _ := snap.Value(obs.Name("prism_codec_decode_total", "codec", "binary", "host", string(h)))
		gobN, _ := snap.Value(obs.Name("prism_codec_decode_total", "codec", "gob", "host", string(h)))
		if gobN != 0 || bin == 0 {
			t.Errorf("%s decoded %v gob and %v binary frames, want 0 gob and some binary", h, gobN, bin)
		}
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
	ctlFrame, err := AppendEvent(nil, codecCases()["outcome commit"])
	if err != nil {
		f.Fatal(err)
	}
	ctlPayload := appendControlPayload(nil, codecCases()["outcome commit"].Payload)
	ctlHead := len(ctlFrame) - len(ctlPayload)
	for _, p := range [][2]int{{0, controlVersion + 1}, {0, 0}, {1, 0x7f}} {
		b := append([]byte(nil), ctlFrame...)
		b[ctlHead+p[0]] = byte(p[1])
		f.Add(b[1:])
	}
	f.Add(append(append([]byte(nil), ctlFrame[1:len(ctlFrame)-1]...), 3, 0xde, 0xad, 0xbf))
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
