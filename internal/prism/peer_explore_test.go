package prism

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"testing"
	"time"
)

// The peer explorer: a breadth-first walk of every input sequence, up to
// a depth, through the real peerCore.step. One peer, one record: each
// move is a heartbeat (at the record's incarnation or the next), a clock
// advance (below suspectAfter, between the thresholds, beyond deadAfter),
// a silence tick, a landed or failed send, or a grade. Every step is
// checked against the rules in peer.go; states are deduplicated on the
// record, with time taken relative to the explorer's clock.
//
// Reading a failure: the trace lists the moves from a fresh record,
// shortest first (BFS), each with the verdict it left.

const (
	pxSuspect = 2 * time.Second
	pxDead    = 5 * time.Second
	// pxDepth reaches degrade → lapse → re-grade (seven moves) with room
	// to spare: about 1.7·10⁵ states.
	pxDepth = 10
)

var pxT0 = time.Unix(1_000_000, 0)

type pxMove struct {
	in      peerInput // kind, ok; inc and at are filled in from the world
	nextInc bool      // heartbeat: the next incarnation
	advance time.Duration
}

func (m pxMove) String() string {
	switch {
	case m.advance > 0:
		return fmt.Sprintf("advance %v", m.advance)
	case m.in.kind == peerBeat && m.nextInc:
		return "heartbeat, next incarnation"
	case m.in.kind == peerBeat:
		return "heartbeat"
	case m.in.kind == peerSent:
		return map[bool]string{true: "send ok", false: "send fails"}[m.in.ok]
	case m.in.kind == peerTick:
		return "tick"
	}
	return "grade"
}

var pxMoves = []pxMove{
	{in: peerInput{kind: peerBeat}},
	{in: peerInput{kind: peerBeat}, nextInc: true},
	{advance: time.Second},
	{advance: 3 * time.Second},
	{advance: 6 * time.Second},
	{in: peerInput{kind: peerTick}},
	{in: peerInput{kind: peerSent, ok: true}},
	{in: peerInput{kind: peerSent}},
	{in: peerInput{kind: peerGrade}},
}

type pxWorld struct {
	core peerCore
	now  time.Time
}

var pxSeed = maphash.MakeSeed()

// key hashes the record with its times relative to the clock: everything
// that decides the peer's future. A change to peerCore's fields must be
// mirrored here.
func (w pxWorld) key(buf []byte) (uint64, []byte) {
	p := &w.core
	silent := time.Duration(-1) // before the first heartbeat
	if !p.heard.IsZero() {
		silent = w.now.Sub(p.heard)
	}
	buf = binary.AppendUvarint(buf[:0], p.inc)
	buf = append(buf, byte(p.verdict), byte(b2i(p.sent)), byte(b2i(p.degraded)), byte(p.ngaps))
	buf = binary.AppendVarint(buf, int64(silent))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.ewma))
	for _, g := range p.gaps[:p.ngaps] {
		buf = binary.AppendVarint(buf, int64(g))
	}
	return maphash.Bytes(pxSeed, buf), buf
}

// pxCheck judges one step from b to a under in, with its transitions.
func pxCheck(b, a peerCore, in peerInput, trs []Transition) string {
	silent := in.at.Sub(b.heard)
	fresh := newPeerCore(b.host, b.suspectAfter, b.deadAfter)
	fresh.inc, fresh.verdict, fresh.heard = in.inc, HostUp, in.at
	switch {
	case b.verdict == HostDead && a.verdict != HostDead && (in.kind != peerBeat || in.inc <= b.inc):
		return fmt.Sprintf("dead at incarnation %d revived by a %s of incarnation %d", b.inc, pxKindName(in.kind), in.inc)
	case b.verdict == HostDead && a.verdict != HostDead && a != fresh:
		return fmt.Sprintf("resurrected without a clean record: %+v", a)
	case a.verdict != b.verdict && a.verdict == HostSuspect && (in.kind != peerTick || silent < b.suspectAfter),
		a.verdict != b.verdict && a.verdict == HostDead && (in.kind != peerTick || silent < b.deadAfter):
		return fmt.Sprintf("%v after %v of silence on a %s input", a.verdict, silent, pxKindName(in.kind))
	case a.verdict == HostDegraded && b.verdict != HostDegraded && (in.kind != peerGrade || b.verdict != HostUp):
		return fmt.Sprintf("degraded entered from %v on a %s input", b.verdict, pxKindName(in.kind))
	case in.kind == peerGrade && a.verdict == HostUp && a.score() < degradeBelow:
		return fmt.Sprintf("graded up with score %.2f, below the band", a.score())
	}
	published := len(trs) == 1 && trs[0].From == b.verdict && trs[0].To == a.verdict
	if a.verdict != b.verdict && b.verdict != HostUnknown && !published || a.verdict == b.verdict && len(trs) > 0 {
		return fmt.Sprintf("%v → %v published as %v", b.verdict, a.verdict, trs)
	}
	return ""
}

func pxKindName(k peerInputKind) string {
	return [...]string{"heartbeat", "send", "tick", "grade"}[k]
}

type pxNode struct {
	parent  int32
	move    uint8 // index into pxMoves
	verdict HostState
}

// pxExplore walks every move sequence up to depth through step. It stops
// at the first broken rule and returns the shortest trace to it, or nil
// after every reachable state within the depth was visited.
func pxExplore(step func(*peerCore, peerInput) []Transition, depth int) (states int, trace []string) {
	type item struct {
		w  pxWorld
		id int32
	}
	start := pxWorld{core: newPeerCore("b", pxSuspect, pxDead), now: pxT0}
	k, buf := start.key(nil)
	seen := map[uint64]struct{}{k: {}}
	nodes := []pxNode{{parent: -1}}
	frontier := []item{{start, 0}}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []item
		for _, it := range frontier {
			for i, m := range pxMoves {
				w, bad := it.w, ""
				if m.advance > 0 {
					w.now = w.now.Add(m.advance)
				} else {
					in := m.in
					in.at, in.inc = w.now, w.core.inc
					if m.nextInc {
						in.inc++
					}
					b := w.core
					trs := step(&w.core, in)
					bad = pxCheck(b, w.core, in, trs)
				}
				k, buf = w.key(buf)
				if _, dup := seen[k]; dup && bad == "" {
					continue
				}
				seen[k] = struct{}{}
				nodes = append(nodes, pxNode{parent: it.id, move: uint8(i), verdict: w.core.verdict})
				id := int32(len(nodes) - 1)
				if bad != "" {
					return len(seen), pxTrace(nodes, id, bad)
				}
				next = append(next, item{w, id})
			}
		}
		frontier = next
	}
	return len(seen), nil
}

func pxTrace(nodes []pxNode, id int32, bad string) []string {
	var rev []string
	for ; nodes[id].parent >= 0; id = nodes[id].parent {
		rev = append(rev, fmt.Sprintf("%v [%v]", pxMoves[nodes[id].move], nodes[id].verdict))
	}
	out := []string{"fresh record"}
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return append(out, "BROKEN: "+bad)
}

// TestPeerExplore walks every sequence of pxDepth moves through the real
// peerCore.step and checks, at every step, that dead is absorbing per
// incarnation; that only a strictly greater incarnation resurrects, with
// a clean record; that only a tick after the threshold's silence makes a
// peer suspect or dead, so a peer heard within suspectAfter is neither
// whatever its send outcomes; that degraded is entered only from up, on a
// grade; that after every grade an up peer scores inside the band; and
// that every verdict change but unknown → up is published.
func TestPeerExplore(t *testing.T) {
	start := time.Now()
	states, trace := pxExplore((*peerCore).step, pxDepth)
	if trace != nil {
		t.Fatalf("rule broken after %d moves:\n  %s", len(trace)-2, strings.Join(trace, "\n  "))
	}
	if states < 10_000 {
		t.Errorf("explored %d states, want at least 10000", states)
	}
	t.Logf("%d states, depth %d, in %v", states, pxDepth, time.Since(start))
}

// The mutants wrap the real step; each must break a rule, and BFS
// reports the shortest way there.

// resurrectOnEqualInc lets a replayed heartbeat of the dead lifetime back.
func resurrectOnEqualInc(p *peerCore, in peerInput) []Transition {
	if in.kind == peerBeat && p.verdict == HostDead && in.inc == p.inc {
		p.verdict = HostSuspect
	}
	return p.step(in)
}

// failedSendSuspects takes a failed send for silence.
func failedSendSuspects(p *peerCore, in peerInput) []Transition {
	if in.kind == peerSent && !in.ok && (p.verdict == HostUp || p.verdict == HostDegraded) {
		return p.to(HostSuspect, in.at)
	}
	return p.step(in)
}

// lapseKeepsFlag returns a suspect peer heard again to up but keeps its
// degraded flag, so the band never flips it again.
func lapseKeepsFlag(p *peerCore, in peerInput) []Transition {
	flag := p.degraded
	out := p.step(in)
	if in.kind == peerBeat && len(out) == 1 && out[0].From == HostSuspect {
		p.degraded = flag
	}
	return out
}

func TestPeerExploreMutants(t *testing.T) {
	for _, m := range []struct {
		name string
		step func(*peerCore, peerInput) []Transition
		want string
	}{
		{"resurrect on an equal incarnation", resurrectOnEqualInc, "revived by a heartbeat of incarnation 0"},
		{"a failed send escalates to suspect", failedSendSuspects, "suspect after"},
		{"a lapse keeps the degraded flag", lapseKeepsFlag, "below the band"},
	} {
		t.Run(m.name, func(t *testing.T) {
			states, trace := pxExplore(m.step, pxDepth)
			if trace == nil {
				t.Fatalf("mutant survived %d states", states)
			}
			if got := trace[len(trace)-1]; !strings.Contains(got, m.want) {
				t.Fatalf("mutant broke the wrong rule:\n  %s", strings.Join(trace, "\n  "))
			}
			t.Logf("caught after %d moves (%d states):\n  %s", len(trace)-2, states, strings.Join(trace, "\n  "))
		})
	}
}
