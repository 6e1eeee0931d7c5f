package prism

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"dif/internal/model"
)

// Wire format (binary codec v1)
//
// The event hot path — stamped application traffic, acks, bounces —
// is encoded with a hand-rolled, length-delimited binary layout instead
// of gob: no reflection, no per-frame encoder state, near-zero decode
// allocations. Gob remains the codec for arbitrary payloads (control
// plane TransferPayload, MonitoringReport, application payload values)
// so nothing loses generality.
//
// Frame selection happens on the first byte. A gob stream's first byte
// is a message-length uint, which gob encodes either as a single byte
// <= 0x7F or as a negated byte count in 0xF8..0xFF; bytes in
// 0x80..0xF7 can never start a gob stream. The binary codec claims
// 0xB1 ("Binary v1") from that dead zone, so binary and gob frames
// coexist on one connection and an old peer's frames still decode.
//
//	[0]  tag 0xB1
//	[1]  flags:  bits0-2  payload kind (0 none, 1 reserved, 2 AppBounce,
//	                      3 AppAckBatch, 4 goal-state)
//	             bit3     has SizeKB (8-byte LE float64 follows strings)
//	             bit4     has delivery stamp (Seq/SeqOrigin/SeqInc)
//	             bit5     has Hops
//	[2]  event kind byte
//	     Name, Sender, Target, SrcHost, DstHost  (uvarint len + bytes)
//	     [SizeKB float64 LE]                     (flag bit3)
//	     [Seq uvarint, SeqOrigin string, SeqInc uvarint]  (bit4)
//	     [Hops uvarint]                          (bit5)
//	     payload per kind (see appendPayload/decodePayload)
//
// An AppAckBatch range is Target, Inc, Floor, nSpans, then per span the
// uvarint pair (Lo - prev, Hi - Lo), prev being the Floor for the first
// span and the previous span's Hi after it — a window with one hole is
// three small varints however many events arrived past the hole.
// Decoding is strict: truncated fields, overlong varints, trailing
// bytes, sequence overflow and spans that do not ascend are errors,
// never panics (FuzzBinaryDecodeEvent enforces it).
//
// The goal-state kind (4) is the self-describing control family:
// its payload opens with a schema version uvarint and an op byte
// (announce/delta/ack) and closes with a length-prefixed extension
// tail, so same-version peers can append fields without breaking old
// decoders and newer major versions are rejected cleanly — the wire
// contract that makes rolling upgrades possible (see goalstate.go).

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
)

// Flag bits.
const (
	flagHasSize = 1 << 3
	flagHasSeq  = 1 << 4
	flagHasHops = 1 << 5
)

var errBinTruncated = errors.New("binary event: truncated")

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
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.SizeKB))
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
		dst = appendString(dst, string(p.Host))
		dst = appendUvarint(dst, uint64(len(p.Ranges)))
		for _, r := range p.Ranges {
			dst = appendString(dst, r.Target)
			dst = appendUvarint(dst, r.Inc)
			dst = appendUvarint(dst, r.Floor)
			dst = appendUvarint(dst, uint64(len(r.Spans)))
			prev := r.Floor
			for _, s := range r.Spans {
				dst = appendUvarint(dst, s.Lo-prev) // ascending: gaps only
				dst = appendUvarint(dst, s.Hi-s.Lo)
				prev = s.Hi
			}
		}
	case GoalAnnounce, GoalDelta, GoalAck:
		dst = appendGoalPayload(dst, p)
	}
	return dst, nil
}

// binReader walks a binary frame with strict bounds checking.
type binReader struct {
	b   []byte
	off int
}

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errBinTruncated
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.off += n
	return v, nil
}

func (r *binReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, errBinTruncated
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	raw, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return internString(raw), nil
}

func (r *binReader) float64() (float64, error) {
	raw, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw)), nil
}

// decodeBinaryEvent decodes a frame produced by AppendEvent. It never
// panics on corrupt input; trailing bytes are an error.
func decodeBinaryEvent(data []byte) (Event, error) {
	r := &binReader{b: data, off: 1} // tag already checked
	var e Event
	flags, err := r.byte()
	if err != nil {
		return Event{}, err
	}
	kind, err := r.byte()
	if err != nil {
		return Event{}, err
	}
	e.Kind = EventKind(kind)
	if e.Name, err = r.str(); err != nil {
		return Event{}, err
	}
	if e.Sender, err = r.str(); err != nil {
		return Event{}, err
	}
	if e.Target, err = r.str(); err != nil {
		return Event{}, err
	}
	var s string
	if s, err = r.str(); err != nil {
		return Event{}, err
	}
	e.SrcHost = model.HostID(s)
	if s, err = r.str(); err != nil {
		return Event{}, err
	}
	e.DstHost = model.HostID(s)
	if flags&flagHasSize != 0 {
		if e.SizeKB, err = r.float64(); err != nil {
			return Event{}, err
		}
	}
	if flags&flagHasSeq != 0 {
		if e.Seq, err = r.uvarint(); err != nil {
			return Event{}, err
		}
		if s, err = r.str(); err != nil {
			return Event{}, err
		}
		e.SeqOrigin = model.HostID(s)
		if e.SeqInc, err = r.uvarint(); err != nil {
			return Event{}, err
		}
	}
	if flags&flagHasHops != 0 {
		hops, err := r.uvarint()
		if err != nil {
			return Event{}, err
		}
		if hops > math.MaxInt32 {
			return Event{}, fmt.Errorf("binary event: hop count %d out of range", hops)
		}
		e.Hops = int(hops)
	}
	switch flags & 0x07 {
	case payNone:
	case payAppBounce:
		var p AppBounce
		if s, err = r.str(); err != nil {
			return Event{}, err
		}
		p.Host = model.HostID(s)
		if p.Target, err = r.str(); err != nil {
			return Event{}, err
		}
		if p.Seq, err = r.uvarint(); err != nil {
			return Event{}, err
		}
		if s, err = r.str(); err != nil {
			return Event{}, err
		}
		p.Location = model.HostID(s)
		e.Payload = p
	case payAckBatch:
		var p AppAckBatch
		if s, err = r.str(); err != nil {
			return Event{}, err
		}
		p.Host = model.HostID(s)
		nRanges, err := r.uvarint()
		if err != nil {
			return Event{}, err
		}
		if nRanges > uint64(len(data)) {
			return Event{}, fmt.Errorf("binary event: %d ack ranges exceed frame", nRanges)
		}
		if nRanges > 0 {
			p.Ranges = make([]AckRange, 0, nRanges)
		}
		for i := uint64(0); i < nRanges; i++ {
			var ar AckRange
			if ar.Target, err = r.str(); err != nil {
				return Event{}, err
			}
			if ar.Inc, err = r.uvarint(); err != nil {
				return Event{}, err
			}
			if ar.Floor, err = r.uvarint(); err != nil {
				return Event{}, err
			}
			nSpans, err := r.uvarint()
			if err != nil {
				return Event{}, err
			}
			if nSpans > uint64(len(data)) {
				return Event{}, fmt.Errorf("binary event: %d spans exceed frame", nSpans)
			}
			if nSpans > 0 {
				ar.Spans = make([]SeqSpan, 0, nSpans)
			}
			prev := ar.Floor
			for j := uint64(0); j < nSpans; j++ {
				gap, err := r.uvarint()
				if err != nil {
					return Event{}, err
				}
				width, err := r.uvarint()
				if err != nil {
					return Event{}, err
				}
				lo := prev + gap
				hi := lo + width
				if gap == 0 || lo < prev || hi < lo {
					return Event{}, fmt.Errorf("binary event: span %d does not ascend from %d", j, prev)
				}
				ar.Spans = append(ar.Spans, SeqSpan{lo, hi})
				prev = hi
			}
			p.Ranges = append(p.Ranges, ar)
		}
		e.Payload = p
	case payGoalState:
		if e.Payload, err = decodeGoalPayload(r); err != nil {
			return Event{}, err
		}
	default:
		return Event{}, fmt.Errorf("binary event: unknown payload kind %d", flags&0x07)
	}
	if r.off != len(data) {
		return Event{}, fmt.Errorf("binary event: %d trailing bytes", len(data)-r.off)
	}
	return e, nil
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
