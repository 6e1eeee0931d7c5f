package prism

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"dif/internal/model"
)

// Wire format (binary codec v1)
//
// Everything the data plane and the redeployment and failover journeys
// put on the wire — stamped application traffic, acks, bounces,
// goal-state frames and the wave and lease control frames — is encoded
// with a hand-rolled, length-delimited binary layout instead of gob: no
// reflection, no per-frame encoder state, near-zero decode allocations.
// Gob remains the codec for heartbeats, monitoring reports and their
// requests, relay envelopes and application payload values.
//
// Frame selection happens on the first byte. A gob stream's first byte
// is a message-length uint, which gob encodes either as a single byte
// <= 0x7F or as a negated byte count in 0xF8..0xFF; bytes in
// 0x80..0xF7 can never start a gob stream. The binary codec claims
// 0xB1 ("Binary v1") from that dead zone, so binary and gob frames
// coexist on one connection.
//
//	[0]  tag 0xB1
//	[1]  flags:  bits0-2  payload kind (0 none, 1 reserved, 2 AppBounce,
//	                      3 AppAckBatch, 4 goal-state, 5 control)
//	             bit3     has SizeKB (8-byte LE float64 follows strings)
//	             bit4     has delivery stamp (Seq/SeqOrigin/SeqInc)
//	             bit5     has Hops
//	[2]  event kind byte
//	     Name, Sender, Target, SrcHost, DstHost  (uvarint len + bytes)
//	     [SizeKB float64 LE]                     (flag bit3)
//	     [Seq uvarint, SeqOrigin string, SeqInc uvarint]  (bit4)
//	     [Hops uvarint]                          (bit5)
//	     payload per kind (see AppendEvent/decodeBinaryEvent)
//
// An AppAckBatch range is Target, Inc, Floor, nSpans, then per span the
// uvarint pair (Lo - prev, Hi - Lo), prev being the Floor for the first
// span and the previous span's Hi after it — a window with one hole is
// three small varints however many events arrived past the hole.
// Decoding is strict: truncated fields, overlong varints, trailing
// bytes, sequence overflow and spans that do not ascend are errors,
// never panics (FuzzBinaryDecodeEvent enforces it).
//
// The goal-state (4) and control (5) kinds are self-describing
// families: the payload opens with a schema version uvarint and an op
// byte and closes with a length-prefixed extension tail, so same-version
// peers can append fields without breaking old decoders and newer
// versions are rejected cleanly — the wire contract that makes rolling
// upgrades possible (see goalstate.go). The control family carries the
// wave (reconfig, fetch, transfer, done, outcome, outcome ack) and the
// leadership (lease request, grant, replication batch, ack) payloads,
// with these field encodings shared with the deployer's write-ahead
// log (durable.go): ints are zigzag varints, bools one byte 0/1, SizeKB
// 8-byte LE float64 bits, byte fields uvarint-length-prefixed, maps a
// count then entries in strictly ascending key order, and a dedup
// snapshot an origin then AppAckBatch-shaped ranges. Empty maps and
// slices decode as nil, and decoded byte fields never alias the frame.

// binTag is the first byte of every binary-codec frame. Bump the tag —
// not the layout — for incompatible revisions, so every version stays
// self-identifying on a mixed-version connection.
const binTag = 0xB1

// Payload kind codes (flags bits 0-2).
const (
	payNone = iota
	_       // 1 was the single-event ack; reserved, decodes as unknown
	payAppBounce
	payAckBatch
	payGoalState
	payControl
)

// Flag bits.
const (
	flagHasSize = 1 << 3
	flagHasSeq  = 1 << 4
	flagHasHops = 1 << 5
)

var errBinTruncated = errors.New("binary: truncated")

// binaryPayloadKind classifies a payload for the binary codec; ok is
// false for payloads only gob can carry.
func binaryPayloadKind(p any) (kind byte, ok bool) {
	switch p.(type) {
	case nil:
		return payNone, true
	case AppBounce:
		return payAppBounce, true
	case AppAckBatch:
		return payAckBatch, true
	case GoalAnnounce, GoalDelta, GoalAck:
		return payGoalState, true
	case ReconfigCommand, FetchRequest, TransferPayload, DoneReport, WaveOutcome, OutcomeAck,
		LeaseRequest, LeaseGrant, ReplBatch, ReplAck:
		return payControl, true
	default:
		return 0, false
	}
}

// BinaryEncodable reports whether the event travels on the binary
// codec (EncodeEvent falls back to gob otherwise).
func BinaryEncodable(e Event) bool {
	_, ok := binaryPayloadKind(e.Payload)
	return ok
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendStrings[S ~string](b []byte, ss []S) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, string(s))
	}
	return b
}

// sortedKeys returns a string-keyed map's keys in ascending order: the
// one encoding order every binary map field uses.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendHostMap encodes a component → host map in ascending key order.
func appendHostMap(b []byte, m map[string]model.HostID) []byte {
	b = appendUvarint(b, uint64(len(m)))
	for _, k := range sortedKeys(m) {
		b = appendString(b, k)
		b = appendString(b, string(m[k]))
	}
	return b
}

// appendHostCounts encodes a host → counter map (generations,
// incarnations) in ascending key order.
func appendHostCounts(b []byte, m map[model.HostID]uint64) []byte {
	b = appendUvarint(b, uint64(len(m)))
	for _, k := range sortedKeys(m) {
		b = appendString(b, string(k))
		b = appendUvarint(b, m[k])
	}
	return b
}

func appendAckRange(b []byte, r AckRange) []byte {
	b = appendString(b, r.Target)
	b = appendUvarint(b, r.Inc)
	b = appendUvarint(b, r.Floor)
	b = appendUvarint(b, uint64(len(r.Spans)))
	prev := r.Floor
	for _, s := range r.Spans {
		b = appendUvarint(b, s.Lo-prev) // ascending: gaps only
		b = appendUvarint(b, s.Hi-s.Lo)
		prev = s.Hi
	}
	return b
}

func appendAckRanges(b []byte, rs []AckRange) []byte {
	b = appendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendAckRange(b, r)
	}
	return b
}

func appendDedup(b []byte, ds []DedupSnapshot) []byte {
	b = appendUvarint(b, uint64(len(ds)))
	for _, d := range ds {
		b = appendAckRanges(appendString(b, string(d.Origin)), d.Ranges)
	}
	return b
}

// AppendEvent appends the binary encoding of e to dst and returns the
// extended slice. The event's payload must be binary-encodable.
func AppendEvent(dst []byte, e Event) ([]byte, error) {
	kind, ok := binaryPayloadKind(e.Payload)
	if !ok {
		return dst, fmt.Errorf("binary event %s: payload %T needs gob", e.Name, e.Payload)
	}
	flags := kind
	if e.SizeKB != 0 {
		flags |= flagHasSize
	}
	if e.Seq != 0 || e.SeqOrigin != "" || e.SeqInc != 0 {
		flags |= flagHasSeq
	}
	if e.Hops != 0 {
		flags |= flagHasHops
	}
	dst = append(dst, binTag, flags, byte(e.Kind))
	dst = appendString(dst, e.Name)
	dst = appendString(dst, e.Sender)
	dst = appendString(dst, e.Target)
	dst = appendString(dst, string(e.SrcHost))
	dst = appendString(dst, string(e.DstHost))
	if flags&flagHasSize != 0 {
		dst = appendFloat(dst, e.SizeKB)
	}
	if flags&flagHasSeq != 0 {
		dst = appendUvarint(dst, e.Seq)
		dst = appendString(dst, string(e.SeqOrigin))
		dst = appendUvarint(dst, e.SeqInc)
	}
	if flags&flagHasHops != 0 {
		dst = appendUvarint(dst, uint64(e.Hops))
	}
	switch p := e.Payload.(type) {
	case AppBounce:
		dst = appendString(dst, string(p.Host))
		dst = appendString(dst, p.Target)
		dst = appendUvarint(dst, p.Seq)
		dst = appendString(dst, string(p.Location))
	case AppAckBatch:
		dst = appendAckRanges(appendString(dst, string(p.Host)), p.Ranges)
	case GoalAnnounce, GoalDelta, GoalAck:
		dst = appendGoalPayload(dst, p)
	default:
		if kind == payControl {
			dst = appendControlPayload(dst, p)
		}
	}
	return dst, nil
}

// binReader walks a binary frame with strict bounds checking. Errors
// are sticky: after the first, every read returns a zero value and err
// keeps the first cause, so decoders check once per record.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *binReader) failf(format string, args ...any) {
	r.fail(fmt.Errorf(format, args...))
}

func (r *binReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail(errBinTruncated)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errBinTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || v != int64(int(v)) {
		r.fail(errBinTruncated)
		return 0
	}
	r.off += n
	return int(v)
}

func (r *binReader) bool() bool {
	switch c := r.byte(); c {
	case 0, 1:
		return c == 1
	default:
		r.failf("binary: bool byte %d", c)
		return false
	}
}

// bytes returns the next n bytes, aliasing the frame.
func (r *binReader) bytes(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.fail(errBinTruncated)
		return nil
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out
}

// blob returns a length-prefixed byte field as a copy (nil when empty),
// so a decoded value never aliases a frame its reader may reuse.
func (r *binReader) blob() []byte {
	raw := r.bytes(r.uvarint())
	if len(raw) == 0 {
		return nil
	}
	return slices.Clone(raw)
}

func (r *binReader) str() string {
	return internString(r.bytes(r.uvarint()))
}

func (r *binReader) host() model.HostID { return model.HostID(r.str()) }

func (r *binReader) float64() float64 {
	raw := r.bytes(8)
	if raw == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw))
}

// count reads a list length, bounded by the bytes left: every entry
// takes at least one, so a larger claim is corruption and must not
// size an allocation.
func (r *binReader) count(what string) int {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.failf("binary: %d %s exceed frame", n, what)
		return 0
	}
	return int(n)
}

// skipTail skips a family payload's length-prefixed extension tail.
func (r *binReader) skipTail() { r.bytes(r.uvarint()) }

func readStrings[S ~string](r *binReader) []S {
	n := r.count("list entries")
	var out []S
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, S(r.str()))
	}
	return out
}

// ascending enforces the canonical map order: strictly ascending keys,
// so a decoded map re-encodes to the bytes it came from.
func (r *binReader) ascending(i int, prev, key string) {
	if i > 0 && key <= prev {
		r.failf("binary: map key %q not above %q", key, prev)
	}
}

func (r *binReader) hostMap() map[string]model.HostID {
	n := r.count("map entries")
	if n == 0 {
		return nil
	}
	m := make(map[string]model.HostID, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		r.ascending(i, prev, k)
		m[k], prev = r.host(), k
	}
	return m
}

func (r *binReader) hostCounts() map[model.HostID]uint64 {
	n := r.count("map entries")
	if n == 0 {
		return nil
	}
	m := make(map[model.HostID]uint64, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		r.ascending(i, prev, k)
		m[model.HostID(k)], prev = r.uvarint(), k
	}
	return m
}

func (r *binReader) ackRange() AckRange {
	ar := AckRange{Target: r.str(), Inc: r.uvarint(), Floor: r.uvarint()}
	n := r.count("spans")
	if n > 0 {
		ar.Spans = make([]SeqSpan, 0, n)
	}
	prev := ar.Floor
	for j := 0; j < n && r.err == nil; j++ {
		gap, width := r.uvarint(), r.uvarint()
		lo := prev + gap
		hi := lo + width
		if gap == 0 || lo < prev || hi < lo {
			r.failf("binary: span %d does not ascend from %d", j, prev)
		}
		ar.Spans = append(ar.Spans, SeqSpan{lo, hi})
		prev = hi
	}
	return ar
}

func (r *binReader) ackRanges() []AckRange {
	n := r.count("ack ranges")
	var out []AckRange
	if n > 0 {
		out = make([]AckRange, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.ackRange())
	}
	return out
}

func (r *binReader) dedup() []DedupSnapshot {
	n := r.count("dedup origins")
	var out []DedupSnapshot
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, DedupSnapshot{Origin: r.host(), Ranges: r.ackRanges()})
	}
	return out
}

// decodeBinaryEvent decodes a frame produced by AppendEvent. It never
// panics on corrupt input; trailing bytes are an error.
func decodeBinaryEvent(data []byte) (Event, error) {
	r := &binReader{b: data, off: 1} // tag already checked
	flags := r.byte()
	e := Event{Kind: EventKind(r.byte()), Name: r.str(), Sender: r.str(), Target: r.str(), SrcHost: r.host(), DstHost: r.host()}
	if flags&flagHasSize != 0 {
		e.SizeKB = r.float64()
	}
	if flags&flagHasSeq != 0 {
		e.Seq, e.SeqOrigin, e.SeqInc = r.uvarint(), r.host(), r.uvarint()
	}
	if flags&flagHasHops != 0 {
		hops := r.uvarint()
		if hops > math.MaxInt32 {
			r.failf("binary event: hop count %d out of range", hops)
		}
		e.Hops = int(hops)
	}
	switch flags & 0x07 {
	case payNone:
	case payAppBounce:
		e.Payload = AppBounce{Host: r.host(), Target: r.str(), Seq: r.uvarint(), Location: r.host()}
	case payAckBatch:
		e.Payload = AppAckBatch{Host: r.host(), Ranges: r.ackRanges()}
	case payGoalState:
		e.Payload, _ = decodeGoalPayload(r) // the error is r.err
	case payControl:
		e.Payload, _ = decodeControlPayload(r)
	default:
		r.failf("binary event: unknown payload kind %d", flags&0x07)
	}
	if r.err != nil {
		return Event{}, r.err
	}
	if r.off != len(data) {
		return Event{}, fmt.Errorf("binary event: %d trailing bytes", len(data)-r.off)
	}
	return e, nil
}

// controlVersion is the schema version stamped on every control-family
// payload (kind 5); the version gate and extension tail work as for the
// goal-state family.
const controlVersion = 1

// Control-family op codes (after the version field).
const (
	ctlReconfig byte = iota + 1
	ctlFetch
	ctlTransfer
	ctlDone
	ctlOutcome
	ctlOutcomeAck
	ctlLeaseRequest
	ctlLeaseGrant
	ctlReplBatch
	ctlReplAck
)

// appendControlPayload encodes a wave or leadership payload: version,
// op, the op's fields in declaration order, then an empty extension
// tail.
func appendControlPayload(dst []byte, p any) []byte {
	dst = appendUvarint(dst, controlVersion)
	switch c := p.(type) {
	case ReconfigCommand:
		dst = append(dst, ctlReconfig)
		dst = appendInt(dst, c.Epoch)
		dst = appendHostMap(dst, c.Arrivals)
		dst = appendString(dst, string(c.Coordinator))
		dst = appendUvarint(dst, c.Term)
		dst = appendUvarint(dst, c.Gen)
	case FetchRequest:
		dst = append(dst, ctlFetch)
		dst = appendInt(dst, c.Epoch)
		dst = appendString(dst, string(c.Coordinator))
		dst = appendString(dst, c.Comp)
		dst = appendString(dst, string(c.Requester))
		dst = appendString(dst, string(c.Source))
		dst = appendBool(dst, c.Mediated)
	case TransferPayload:
		dst = append(dst, ctlTransfer)
		dst = appendInt(dst, c.Epoch)
		dst = appendString(dst, string(c.Coordinator))
		dst = appendString(dst, c.Comp)
		dst = appendString(dst, c.TypeName)
		dst = appendBytes(dst, c.State)
		dst = appendFloat(dst, c.SizeKB)
		dst = appendString(dst, string(c.FinalDst))
		dst = appendString(dst, string(c.Source))
		dst = appendUvarint(dst, uint64(len(c.Held)))
		for _, h := range c.Held {
			dst = appendBytes(dst, h)
		}
		dst = appendDedup(dst, c.Dedup)
	case DoneReport:
		dst = append(dst, ctlDone)
		dst = appendInt(dst, c.Epoch)
		dst = appendString(dst, string(c.Host))
		dst = appendInt(dst, c.Received)
	case WaveOutcome:
		dst = append(dst, ctlOutcome)
		dst = appendInt(dst, c.Epoch)
		dst = appendString(dst, string(c.Coordinator))
		dst = appendBool(dst, c.Commit)
		dst = appendUvarint(dst, c.Term)
		dst = appendString(dst, string(c.ReplyTo))
		dst = appendHostCounts(dst, c.Gens)
	case OutcomeAck:
		dst = append(dst, ctlOutcomeAck)
		dst = appendInt(dst, c.Epoch)
		dst = appendString(dst, string(c.Host))
	case LeaseRequest:
		dst = append(dst, ctlLeaseRequest)
		dst = appendString(dst, string(c.Candidate))
		dst = appendUvarint(dst, c.Term)
		dst = binary.AppendVarint(dst, int64(c.TTL))
		dst = appendBool(dst, c.Renewal)
	case LeaseGrant:
		dst = append(dst, ctlLeaseGrant)
		dst = appendString(dst, string(c.Host))
		dst = appendUvarint(dst, c.Term)
		dst = appendBool(dst, c.Granted)
	case ReplBatch:
		dst = append(dst, ctlReplBatch)
		dst = appendString(dst, string(c.Leader))
		dst = appendUvarint(dst, c.Term)
		dst = appendUvarint(dst, c.Seq)
		dst = appendBool(dst, c.Reset)
		dst = appendUvarint(dst, uint64(len(c.Records)))
		for _, rec := range c.Records {
			dst = append(dst, rec.Kind)
			dst = appendBytes(dst, rec.Data)
		}
	case ReplAck:
		dst = append(dst, ctlReplAck)
		dst = appendString(dst, string(c.Host))
		dst = appendUvarint(dst, c.Term)
		dst = appendUvarint(dst, c.Applied)
	}
	return appendUvarint(dst, 0) // extension tail: empty at v1
}

// controlSizeHint bounds a control payload's encoded size beyond the
// event header: its byte fields and dedup spans, plus an allowance for
// the short fields, so a component transfer — state, held frames,
// dedup windows — or a replication batch encodes in one allocation.
func controlSizeHint(p any) int {
	const field = binary.MaxVarintLen64
	n := 256
	switch c := p.(type) {
	case TransferPayload:
		n += len(c.State)
		for _, h := range c.Held {
			n += field + len(h)
		}
		for _, d := range c.Dedup {
			for _, r := range d.Ranges {
				n += 64 + 2*field*len(r.Spans)
			}
		}
	case ReplBatch:
		for _, rec := range c.Records {
			n += 1 + field + len(rec.Data)
		}
	}
	return n
}

// decodeControlPayload decodes a control-family payload from r; the
// error is also left in r.err. A newer version or an unknown op is
// rejected; a same-version extension tail is skipped.
func decodeControlPayload(r *binReader) (any, error) {
	switch version := r.uvarint(); {
	case r.err != nil:
	case version > controlVersion:
		r.failf("binary event: unsupported control version %d (this peer speaks v%d)", version, controlVersion)
	case version == 0:
		r.failf("binary event: control version 0 is invalid")
	}
	var payload any
	switch op := r.byte(); {
	case r.err != nil:
	case op == ctlReconfig:
		payload = ReconfigCommand{Epoch: r.int(), Arrivals: r.hostMap(), Coordinator: r.host(), Term: r.uvarint(), Gen: r.uvarint()}
	case op == ctlFetch:
		payload = FetchRequest{Epoch: r.int(), Coordinator: r.host(), Comp: r.str(), Requester: r.host(),
			Source: r.host(), Mediated: r.bool()}
	case op == ctlTransfer:
		c := TransferPayload{Epoch: r.int(), Coordinator: r.host(), Comp: r.str(), TypeName: r.str(),
			State: r.blob(), SizeKB: r.float64(), FinalDst: r.host(), Source: r.host()}
		n := r.count("held frames")
		for i := 0; i < n && r.err == nil; i++ {
			c.Held = append(c.Held, r.blob())
		}
		c.Dedup = r.dedup()
		payload = c
	case op == ctlDone:
		payload = DoneReport{Epoch: r.int(), Host: r.host(), Received: r.int()}
	case op == ctlOutcome:
		payload = WaveOutcome{Epoch: r.int(), Coordinator: r.host(), Commit: r.bool(), Term: r.uvarint(),
			ReplyTo: r.host(), Gens: r.hostCounts()}
	case op == ctlOutcomeAck:
		payload = OutcomeAck{Epoch: r.int(), Host: r.host()}
	case op == ctlLeaseRequest:
		payload = LeaseRequest{Candidate: r.host(), Term: r.uvarint(), TTL: time.Duration(r.int()), Renewal: r.bool()}
	case op == ctlLeaseGrant:
		payload = LeaseGrant{Host: r.host(), Term: r.uvarint(), Granted: r.bool()}
	case op == ctlReplBatch:
		b := ReplBatch{Leader: r.host(), Term: r.uvarint(), Seq: r.uvarint(), Reset: r.bool()}
		n := r.count("replicated records")
		for i := 0; i < n && r.err == nil; i++ {
			b.Records = append(b.Records, ReplRecord{Kind: r.byte(), Data: r.blob()})
		}
		payload = b
	case op == ctlReplAck:
		payload = ReplAck{Host: r.host(), Term: r.uvarint(), Applied: r.uvarint()}
	default:
		r.failf("binary event: unknown control op %d", op)
	}
	r.skipTail()
	if r.err != nil {
		return nil, r.err
	}
	return payload, nil
}

// internShards is the decode-side string intern cache. Event names,
// component IDs, and host IDs recur on virtually every frame of a run;
// interning makes decoding them allocation-free after first sight. The
// read path relies on the compiler's zero-copy map[string(bytes)]
// lookup. Bounded per shard so adversarial traffic cannot grow it
// without bound — on overflow we simply allocate, losing nothing but
// the reuse.
const (
	internShardCount = 16
	internShardCap   = 4096
	internMaxLen     = 64
)

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

var internShards = func() [internShardCount]*internShard {
	var s [internShardCount]*internShard
	for i := range s {
		s[i] = &internShard{m: make(map[string]string)}
	}
	return s
}()

func internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	sh := internShards[h%internShardCount]
	sh.mu.RLock()
	s, ok := sh.m[string(b)] // zero-alloc lookup
	sh.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	sh.mu.Lock()
	if len(sh.m) < internShardCap {
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}

// encBufPool recycles encode scratch buffers for transports that do not
// retain Send data (real sockets copy synchronously; the simulated
// fabric and the fault decorator retain frames for delayed delivery, so
// they never see pooled buffers).
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

func getEncBuf() *[]byte  { return encBufPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) { *b = (*b)[:0]; encBufPool.Put(b) }

// BufferRetainer lets a Transport declare whether Send retains the data
// slice after returning. Transports that answer false allow callers to
// recycle encode buffers; absent the interface, retention is assumed.
type BufferRetainer interface {
	RetainsSendBuffers() bool
}
