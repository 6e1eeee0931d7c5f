package prism

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"dif/internal/model"
)

// The wave explorer: a breadth-first walk of every interleaving of one
// small wave, driving the real waveCore.step. One coordinator (and, after
// a crash, a standby resuming from the same durable records) runs against
// participant admins modelled on admin.go's rules: epochs deduplicated by
// (coordinator, epoch), done re-sent on a duplicate reconfig, outcomes
// applied idempotently and always acknowledged, stale terms fenced. Each
// pending frame may be delivered, dropped or duplicated in any order;
// ticks, the deadlines and a participant's death interleave with them;
// and every append may land and crash the coordinator, or fail, after
// which the standby resumes. Budgets bound the drops, duplicates, ticks,
// deaths and crashes; within them the walk is exhaustive.
//
// Reading a failure: the trace lists the actions from the initial state,
// shortest first (BFS). Hosts are m (the coordinator), sb (the standby)
// and p1..p3; "append decided(commit): crash" means the record landed and
// the coordinator died right after it, "fail" that the append errored.

// exHosts are the explorer's hosts, by index.
var exHosts = []model.HostID{"m", "sb", "p1", "p2", "p3"}

const (
	exM  int8 = 0 // the coordinator
	exSB int8 = 1 // the standby that resumes after a crash
	exP0 int8 = 2 // first participant

	// exCopies bounds how many copies of one frame can be in flight; a
	// further send of it is absorbed (it would only be a duplicate).
	exCopies = 2
)

// exScope is one explored wave and the budgets that bound the walk.
type exScope struct {
	name    string
	parts   int                     // participants p1..pN
	moves   map[string]model.HostID // component → destination
	current map[string]model.HostID // component → source
	// unlinked pairs of participants reach each other only through the
	// coordinator's mediation.
	unlinked                            [][2]model.HostID
	drops, dups, ticks, deaths, crashes int
}

type exKind uint8

const (
	exReconfig exKind = iota
	exFetch
	exTransfer
	exDone
	exOutcome
	exAck
)

var exKindNames = [...]string{"reconfig", "fetch", "transfer", "done", "outcome", "ack"}

// exFrame is one control frame in flight.
type exFrame struct {
	kind     exKind
	from, to int8
	toDep    bool // to the deployer (done, ack, a leg to mediate), else to the admin
	comp     int8 // fetch, transfer
	term     uint8
	commit   bool // outcome
	gens     bool // outcome carries generations
	replyTo  int8 // outcome
	recv     int8 // done
}

func (f exFrame) less(g exFrame) bool {
	a := [...]int{int(f.kind), int(f.from), int(f.to), b2i(f.toDep), int(f.comp), int(f.term), b2i(f.commit), b2i(f.gens), int(f.replyTo), int(f.recv)}
	b := [...]int{int(g.kind), int(g.from), int(g.to), b2i(g.toDep), int(g.comp), int(g.term), b2i(g.commit), b2i(g.gens), int(g.replyTo), int(g.recv)}
	return slices.Compare(a[:], b[:]) < 0
}

func (f exFrame) String() string {
	s := fmt.Sprintf("%s %s→%s", exKindNames[f.kind], exHosts[f.from], exHosts[f.to])
	switch f.kind {
	case exFetch, exTransfer:
		s += fmt.Sprintf(" c%d", f.comp)
		if f.toDep {
			s += " (to mediate)"
		}
	case exReconfig:
		s += fmt.Sprintf(" term %d", f.term)
	case exOutcome:
		s += fmt.Sprintf(" commit=%v term %d", f.commit, f.term)
	}
	return s
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

type exSlot struct {
	f exFrame
	n uint8
}

// exAgent is one participant admin's state for the explored epoch.
type exAgent struct {
	alive    bool
	fence    uint8
	seen     bool // reconfig seen (or the epoch aborted)
	done     bool
	outcome  uint8 // 0 pending, 1 committed, 2 aborted (destinations)
	settled  bool  // an outcome was applied: later fetches and transfers are stale
	arrived  uint8 // components reconstituted here
	owns     uint8 // components live here
	prepared uint8 // components detached, awaiting the outcome
	applied  uint8 // outcomes applied: 1 commit, 2 abort
}

// exLog is the durable record of the explored epoch.
type exLog struct{ open, prepared, decided, commit, closed bool }

type exWorld struct {
	core     *waveCore
	coord    int8 // host running core
	term     uint8
	clock    time.Time
	log      exLog
	agents   []exAgent
	net      []exSlot // sorted
	drops    int8
	dups     int8
	ticks    int8
	deaths   int8
	crashes  int8
	doneIn   uint8 // participants whose done report reached the live coordinator
	outcomes uint8 // outcome values announced: 1 commit, 2 abort
	expired  bool  // the live coordinator's ack budget ran out
	spans    int8  // the live coordinator's open trace spans
	// note and bad describe the transition that made this world: the
	// branches it took, and the property it broke.
	note string
	bad  string
}

func (w *exWorld) clone() *exWorld {
	n := *w
	if w.core != nil {
		n.core = w.core.clone()
	}
	n.agents = slices.Clone(w.agents)
	n.net = slices.Clone(w.net)
	return &n
}

// clone copies the wave's mutable state; what is fixed at construction is
// shared.
func (c *waveCore) clone() *waveCore {
	n := *c
	flags := append(slices.Clone(c.dead), c.waiting...)
	n.dead, n.waiting = flags[:len(c.dead):len(c.dead)], flags[len(c.dead):]
	n.mediated = slices.Clone(c.mediated)
	n.res.Incomplete = slices.Clone(c.res.Incomplete)
	return &n
}

func (w *exWorld) send(f exFrame) {
	i, found := slices.BinarySearchFunc(w.net, f, func(s exSlot, f exFrame) int {
		switch {
		case s.f == f:
			return 0
		case s.f.less(f):
			return -1
		}
		return 1
	})
	if found {
		if w.net[i].n < exCopies {
			w.net[i].n++
		}
		return
	}
	w.net = slices.Insert(w.net, i, exSlot{f: f, n: 1})
}

func (w *exWorld) take(i int) exFrame {
	f := w.net[i].f
	if w.net[i].n--; w.net[i].n == 0 {
		w.net = slices.Delete(w.net, i, i+1)
	}
	return f
}

func (w *exWorld) fail(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

func (w *exWorld) addNote(s string) {
	if w.note != "" {
		w.note += "; "
	}
	w.note += s
}

// explorer walks one scope with one step function: the real waveCore.step
// or a mutant wrapped around it.
type explorer struct {
	scope  exScope
	step   func(*waveCore, waveInput) []waveOutput
	comps  []string
	src    []int8 // per component: source host
	dst    []int8 // per component: destination host
	linked [8][8]bool
	gens   map[model.HostID]uint64
	// fetches and transfers are the legs the coordinator mediates, per
	// component.
	fetches, transfers []waveOutput
	dstMask            uint8 // hosts that are destinations, as participant bits

	states    int
	quiescent int
	depth     int
	trace     []string
}

func newExplorer(s exScope, step func(*waveCore, waveInput) []waveOutput) *explorer {
	x := &explorer{scope: s, step: step, gens: make(map[model.HostID]uint64)}
	for comp := range s.moves {
		x.comps = append(x.comps, comp)
	}
	slices.Sort(x.comps)
	for i := range exHosts {
		for j := range exHosts {
			x.linked[i][j] = true
		}
	}
	for _, u := range s.unlinked {
		a, b := exIndex(u[0]), exIndex(u[1])
		x.linked[a][b], x.linked[b][a] = false, false
	}
	for _, comp := range x.comps {
		src, dst := exIndex(s.current[comp]), exIndex(s.moves[comp])
		x.src, x.dst = append(x.src, src), append(x.dst, dst)
		x.dstMask |= 1 << (dst - exP0)
		x.gens[s.moves[comp]] = 1
		x.gens[s.current[comp]] = 1
		x.fetches = append(x.fetches, waveOutput{to: s.current[comp], ev: Event{
			Name: EvFetch, Target: AdminID, SizeKB: 0.5, Payload: FetchRequest{
				Epoch: 1, Coordinator: "m", Comp: comp, Requester: s.moves[comp], Source: s.current[comp], Mediated: true,
			}}})
		x.transfers = append(x.transfers, waveOutput{to: s.moves[comp], ev: Event{
			Name: EvTransfer, Target: AdminID, Payload: TransferPayload{
				Epoch: 1, Coordinator: "m", Comp: comp, FinalDst: s.moves[comp], Source: s.current[comp],
			}}})
	}
	return x
}

func exIndex(h model.HostID) int8 {
	return int8(slices.Index(exHosts, h))
}

func (x *explorer) compIndex(comp string) int8 {
	return int8(slices.Index(x.comps, comp))
}

var exT0 = time.Unix(0, 0)

// initial builds the coordinator's wave and starts it; the open append
// already branches.
func (x *explorer) initial() []*exWorld {
	s := x.scope
	c, err := enactWave(1, "m", 1, s.moves, s.current, x.gens, time.Hour, time.Hour)
	if err != nil {
		panic(err)
	}
	w := &exWorld{
		core: c, coord: exM, term: 1, clock: exT0,
		agents: make([]exAgent, s.parts),
		drops:  int8(s.drops), dups: int8(s.dups), ticks: int8(s.ticks),
		deaths: int8(s.deaths), crashes: int8(s.crashes),
	}
	for i := range w.agents {
		w.agents[i].alive = true
	}
	for i, src := range x.src {
		w.agents[src-exP0].owns |= 1 << i
	}
	return x.feed(w, waveInput{kind: inStart, now: w.clock})
}

// feed steps the live coordinator and performs its outputs.
func (x *explorer) feed(w *exWorld, in waveInput) []*exWorld {
	return x.perform(w, x.step(w.core, in))
}

// perform runs outputs in order. An append branches the world: the
// record lands and the wave goes on; or, while the crash budget lasts,
// it lands and the coordinator dies, or it fails — each crash followed by
// the standby's Resume.
func (x *explorer) perform(w *exWorld, outs []waveOutput) []*exWorld {
	for _, o := range outs {
		switch o.kind {
		case outSend:
			x.coordSend(w, o)
		case outAppend:
			return x.appendBranches(w, o)
		case outBegin:
			w.spans++
		case outEnd:
			if w.spans--; w.spans < 0 {
				w.fail("a span ended that never began")
			}
		case outFinish:
			if w.spans != 0 {
				w.fail("wave finished with %d spans open", w.spans)
			}
		}
	}
	return []*exWorld{w}
}

func (x *explorer) appendBranches(w *exWorld, o waveOutput) []*exWorld {
	rec := recName(o)
	var out []*exWorld
	land := w.clone()
	x.write(land, o)
	land.addNote("append " + rec)
	out = append(out, x.feed(land, waveInput{kind: inCheckpoint, now: land.clock, gens: x.gens, dead: x.dead(land)})...)
	if w.crashes == 0 {
		return out
	}
	crash := w.clone()
	x.write(crash, o)
	crash.addNote("append " + rec + ": crash")
	out = append(out, x.resume(crash)...)
	if o.rec != RecGoalState {
		// A failed append is a crash too: the wave reacts to the error,
		// then the process restarts.
		failed := w.clone()
		failed.addNote("append " + rec + ": fail")
		for _, f := range x.feed(failed, waveInput{kind: inCheckpoint, now: failed.clock, err: errExplore, dead: x.dead(failed)}) {
			out = append(out, x.resume(f)...)
		}
	}
	return out
}

var errExplore = errors.New("injected append failure")

func recName(o waveOutput) string {
	switch o.rec {
	case RecEpochOpen:
		return "open"
	case RecEpochPrepared:
		return "prepared"
	case RecEpochDecided:
		return fmt.Sprintf("decided(commit=%v)", o.commit)
	case RecGoalState:
		return "goal"
	}
	return "closed"
}

// write makes a record durable, checking the decision properties.
func (x *explorer) write(w *exWorld, o waveOutput) {
	switch o.rec {
	case RecEpochOpen:
		w.log.open = true
	case RecEpochPrepared:
		w.log.prepared = true
	case RecEpochDecided:
		if w.log.decided && w.log.commit != o.commit {
			w.fail("decision changed: durable commit=%v, appended commit=%v", w.log.commit, o.commit)
		}
		if o.commit && w.doneIn&x.dstMask != x.dstMask {
			w.fail("commit decided with done reports from %08b of destinations %08b", w.doneIn, x.dstMask)
		}
		w.log.decided, w.log.commit = true, o.commit
	case RecEpochClosed:
		w.log.closed = true
	}
}

// resume kills the live coordinator and starts the standby from the
// durable records, the way Failover and a restart both do.
func (x *explorer) resume(w *exWorld) []*exWorld {
	w.crashes--
	w.core, w.coord, w.term = nil, exSB, w.term+1
	w.doneIn, w.expired, w.spans = 0, false, 0
	if !w.log.open || w.log.closed {
		return []*exWorld{w}
	}
	parts := make([]model.HostID, x.scope.parts)
	for i := range parts {
		parts[i] = exHosts[exP0+int8(i)]
	}
	w.core = resumeWave(DurableWave{
		Epoch: 1, Moves: x.scope.moves, Participants: parts, Coordinator: "m",
		Prepared: w.log.prepared, Decided: w.log.decided, Commit: w.log.commit,
	}, "sb", uint64(w.term), time.Hour)
	return x.feed(w, waveInput{kind: inStart, now: w.clock, dead: x.dead(w)})
}

// dead is the detector's verdict: a participant that died is held dead.
func (x *explorer) dead(w *exWorld) []model.HostID {
	var dead []model.HostID
	for i, a := range w.agents {
		if !a.alive {
			dead = append(dead, exHosts[exP0+int8(i)])
		}
	}
	return dead
}

// coordSend puts one of the coordinator's frames on the network,
// checking the outcome properties.
func (x *explorer) coordSend(w *exWorld, o waveOutput) {
	f := exFrame{from: w.coord, to: exIndex(o.to)}
	switch p := o.ev.Payload.(type) {
	case ReconfigCommand:
		f.kind, f.term = exReconfig, uint8(p.Term)
	case FetchRequest:
		f.kind, f.comp = exFetch, x.compIndex(p.Comp)
	case TransferPayload:
		f.kind, f.comp = exTransfer, x.compIndex(p.Comp)
	case WaveOutcome:
		f.kind, f.term, f.commit, f.gens, f.replyTo = exOutcome, uint8(p.Term), p.Commit, p.Gens != nil, exIndex(p.ReplyTo)
		if !w.log.decided || w.log.commit != p.Commit {
			w.fail("outcome commit=%v sent before its decided record is durable", p.Commit)
		}
		if !p.Commit && p.Gens != nil {
			w.fail("abort outcome carries generations %v", p.Gens)
		}
		if w.outcomes |= 1 << b2i(!p.Commit); w.outcomes == 3 {
			w.fail("epoch announced both commit and abort")
		}
	default:
		panic(fmt.Sprintf("explorer: unexpected send %s", o.ev.Name))
	}
	w.send(f)
}

// deliver hands a frame to its host: the live coordinator's wave, or a
// participant admin. Frames to a dead host, or to a deployer with no
// wave in flight, vanish.
func (x *explorer) deliver(w *exWorld, f exFrame) []*exWorld {
	if f.toDep {
		if f.to != w.coord || w.core == nil || w.core.finished() {
			return []*exWorld{w}
		}
		host := exHosts[f.from]
		switch f.kind {
		case exDone:
			w.doneIn |= 1 << (f.from - exP0)
			return x.feed(w, waveInput{kind: inDone, host: host, done: DoneReport{Epoch: 1, Host: host, Received: int(f.recv)}, now: w.clock})
		case exAck:
			return x.feed(w, waveInput{kind: inAck, host: host, now: w.clock})
		case exFetch:
			return x.feed(w, waveInput{kind: inMediated, comp: x.comps[f.comp], leg: x.fetches[f.comp], now: w.clock})
		case exTransfer:
			return x.feed(w, waveInput{kind: inMediated, comp: x.comps[f.comp], leg: x.transfers[f.comp], now: w.clock})
		}
		return []*exWorld{w}
	}
	if a := &w.agents[f.to-exP0]; a.alive {
		x.admin(w, f.to, f)
	}
	return []*exWorld{w}
}

// admin applies admin.go's rules for one frame at participant p.
func (x *explorer) admin(w *exWorld, p int8, f exFrame) {
	a := &w.agents[p-exP0]
	switch f.kind {
	case exReconfig:
		if !a.fenceOK(f.term) {
			return
		}
		if a.seen {
			// A duplicate: re-report done, or re-fetch what is missing.
			if a.outcome != 0 {
				return
			}
			if a.done {
				x.sendDone(w, p)
			} else {
				x.sendFetches(w, p, a.arrived)
			}
			return
		}
		a.seen = true
		x.sendFetches(w, p, 0)
	case exFetch:
		bit := uint8(1) << f.comp
		switch {
		case a.settled:
		case a.prepared&bit != 0:
			x.ship(w, p, f.comp) // the cached payload, again
		case a.owns&bit != 0:
			a.owns &^= bit
			a.prepared |= bit
			x.ship(w, p, f.comp)
		}
	case exTransfer:
		bit := uint8(1) << f.comp
		if a.settled || a.arrived&bit != 0 {
			return
		}
		a.arrived |= bit
		if !a.done && a.seen && a.arrived&x.arrivals(p) == x.arrivals(p) {
			a.done = true
			x.sendDone(w, p)
		}
	case exOutcome:
		if !a.fenceOK(f.term) {
			return // a stale leader's outcome: dropped, no ack
		}
		if f.commit {
			a.settled = true
			a.prepared = 0
			if a.seen && a.outcome == 0 && x.arrivals(p) != 0 {
				a.outcome = 1
			}
			a.applied |= 1
		} else {
			if !a.settled {
				a.settled, a.seen = true, true
				a.owns |= a.prepared // sources re-attach
				a.prepared = 0
				if x.arrivals(p) != 0 && a.outcome == 0 {
					a.outcome = 2 // destinations evict
				}
			}
			a.applied |= 2
		}
		if a.applied == 3 {
			w.fail("%s applied both commit and abort", exHosts[p])
		}
		w.send(exFrame{kind: exAck, from: p, to: f.replyTo, toDep: true})
	}
}

func (a *exAgent) fenceOK(term uint8) bool {
	if term < a.fence {
		return false
	}
	a.fence = term
	return true
}

// arrivals is the component mask that lands at participant p.
func (x *explorer) arrivals(p int8) uint8 {
	var m uint8
	for i, d := range x.dst {
		if d == p {
			m |= 1 << i
		}
	}
	return m
}

func (x *explorer) sendFetches(w *exWorld, p int8, skip uint8) {
	for i, d := range x.dst {
		if d != p || skip&(1<<i) != 0 {
			continue
		}
		if src := x.src[i]; x.linked[p][src] {
			w.send(exFrame{kind: exFetch, from: p, to: src, comp: int8(i)})
		} else {
			w.send(exFrame{kind: exFetch, from: p, to: exM, toDep: true, comp: int8(i)})
		}
	}
}

func (x *explorer) ship(w *exWorld, p, comp int8) {
	if dst := x.dst[comp]; x.linked[p][dst] {
		w.send(exFrame{kind: exTransfer, from: p, to: dst, comp: comp})
	} else {
		w.send(exFrame{kind: exTransfer, from: p, to: exM, toDep: true, comp: comp})
	}
}

func (x *explorer) sendDone(w *exWorld, p int8) {
	n := bits.OnesCount8(x.arrivals(p))
	w.send(exFrame{kind: exDone, from: p, to: exM, toDep: true, recv: int8(n)})
}

// exAction is one explorer move.
type exAction struct {
	kind  uint8
	frame exFrame
	host  int8
}

const (
	actStart uint8 = iota
	actDeliver
	actDrop
	actDup
	actTick
	actDeadline
	actDeath
)

func (a exAction) String() string {
	switch a.kind {
	case actStart:
		return "start"
	case actDeliver:
		return "deliver " + a.frame.String()
	case actDrop:
		return "drop " + a.frame.String()
	case actDup:
		return "duplicate " + a.frame.String()
	case actTick:
		return "tick"
	case actDeadline:
		return "deadline"
	}
	return "death of " + string(exHosts[a.host])
}

// moves lists every action enabled in w.
func (x *explorer) moves(w *exWorld) []exAction {
	var acts []exAction
	for _, s := range w.net {
		acts = append(acts, exAction{kind: actDeliver, frame: s.f})
		if w.drops > 0 {
			acts = append(acts, exAction{kind: actDrop, frame: s.f})
		}
		if w.dups > 0 {
			acts = append(acts, exAction{kind: actDup, frame: s.f})
		}
	}
	if w.core == nil || w.core.finished() {
		return acts
	}
	if w.ticks > 0 {
		acts = append(acts, exAction{kind: actTick})
	}
	acts = append(acts, exAction{kind: actDeadline})
	if w.deaths > 0 {
		for i, a := range w.agents {
			if a.alive {
				acts = append(acts, exAction{kind: actDeath, host: exP0 + int8(i)})
			}
		}
	}
	return acts
}

func (x *explorer) apply(w *exWorld, a exAction) []*exWorld {
	n := w.clone()
	n.note = ""
	switch a.kind {
	case actDeliver:
		i := slices.IndexFunc(n.net, func(s exSlot) bool { return s.f == a.frame })
		return x.deliver(n, n.take(i))
	case actDrop:
		n.drops--
		n.take(slices.IndexFunc(n.net, func(s exSlot) bool { return s.f == a.frame }))
		return []*exWorld{n}
	case actDup:
		n.dups--
		return x.deliver(n, a.frame)
	case actTick:
		n.ticks--
		return x.feed(n, waveInput{kind: inTick, now: n.clock})
	case actDeadline:
		n.clock = n.core.deadline
		n.expired = n.core.stage == stageAnnouncing
		return x.feed(n, waveInput{kind: inTick, now: n.clock})
	}
	n.deaths--
	n.agents[a.host-exP0].alive = false
	return x.feed(n, waveInput{kind: inDead, host: exHosts[a.host], now: n.clock})
}

// checkQuiescent asserts convergence once nothing is in flight and the
// coordinator is done: every live participant applied the decided
// outcome, unless the ack budget ran out.
func (x *explorer) checkQuiescent(w *exWorld) {
	if len(w.net) != 0 || (w.core != nil && !w.core.finished()) {
		return
	}
	x.quiescent++
	if !w.log.decided || w.expired {
		return
	}
	want := uint8(1)
	if !w.log.commit {
		want = 2
	}
	for i, a := range w.agents {
		if a.alive && a.applied&want == 0 {
			w.fail("quiescent, but live %s never applied the decided outcome (commit=%v)", exHosts[exP0+int8(i)], w.log.commit)
		}
	}
}

// exSeed keys the visited-state set; 64-bit hashes of a few million
// states collide with odds below one in 10⁶.
var exSeed = maphash.MakeSeed()

// key hashes the canonical encoding of everything that decides w's
// future.
func (w *exWorld) key(buf []byte) (uint64, []byte) {
	buf = buf[:0]
	buf = append(buf, byte(w.coord), w.term, byte(w.drops), byte(w.dups), byte(w.ticks), byte(w.deaths), byte(w.crashes),
		w.doneIn, w.outcomes, byte(b2i(w.expired)), byte(w.spans),
		byte(b2i(w.log.open)), byte(b2i(w.log.prepared)), byte(b2i(w.log.decided)), byte(b2i(w.log.commit)), byte(b2i(w.log.closed)))
	buf = binary.AppendVarint(buf, w.clock.UnixNano())
	for _, a := range w.agents {
		buf = append(buf, byte(b2i(a.alive)), a.fence, byte(b2i(a.seen)), byte(b2i(a.done)), a.outcome,
			byte(b2i(a.settled)), a.arrived, a.owns, a.prepared, a.applied)
	}
	buf = append(buf, 0xff)
	for _, s := range w.net {
		f := s.f
		buf = append(buf, byte(f.kind), byte(f.from), byte(f.to), byte(b2i(f.toDep)), byte(f.comp), f.term,
			byte(b2i(f.commit)), byte(b2i(f.gens)), byte(f.replyTo), byte(f.recv), s.n)
	}
	buf = append(buf, 0xfe)
	if c := w.core; c != nil {
		buf = append(buf, byte(c.stage), c.appending, byte(b2i(c.decided)), byte(b2i(c.commit)), byte(b2i(c.gens != nil)),
			byte(c.term), byte(b2i(c.resume)), byte(b2i(c.inherited)))
		buf = append(buf, byte(exIndex(c.deadHost)))
		for _, v := range [][]bool{c.dead, c.waiting} {
			for _, b := range v {
				buf = append(buf, byte(b2i(b)))
			}
			buf = append(buf, 0xfd)
		}
		for _, m := range c.mediated {
			buf = append(buf, byte(exIndex(m.to)), byte(b2i(m.ev.Name == EvTransfer)))
		}
		buf = binary.AppendVarint(buf, int64(c.res.Received))
		buf = binary.AppendVarint(buf, c.deadline.UnixNano())
	}
	return maphash.Bytes(exSeed, buf), buf
}

type exNode struct {
	parent int32
	act    exAction
	note   string
}

// explore walks the scope breadth first. It stops at the first broken
// property, leaving the shortest trace to it in x.trace, or after every
// reachable state (or maxStates of them) was visited.
func (x *explorer) explore(maxStates int) bool {
	seen := make(map[uint64]struct{})
	var nodes []exNode
	var buf []byte
	type item struct {
		w  *exWorld
		id int32
	}
	var frontier []item
	visit := func(w *exWorld, parent int32, act exAction) bool {
		k, b := w.key(buf)
		buf = b
		if _, dup := seen[k]; dup {
			// A violation on the way in belongs to the transition, not to
			// the (already checked) state.
			if w.bad == "" {
				return true
			}
		} else {
			seen[k] = struct{}{}
			x.checkQuiescent(w)
		}
		nodes = append(nodes, exNode{parent: parent, act: act, note: w.note})
		id := int32(len(nodes) - 1)
		if w.bad != "" {
			x.trace = x.traceTo(nodes, id, w.bad)
			return false
		}
		frontier = append(frontier, item{w, id})
		return true
	}
	for _, w := range x.initial() {
		if !visit(w, -1, exAction{kind: actStart}) {
			return false
		}
	}
	for len(frontier) > 0 && len(nodes) < maxStates {
		x.depth++
		level := frontier
		frontier = nil
		for _, it := range level {
			for _, a := range x.moves(it.w) {
				for _, n := range x.apply(it.w, a) {
					if !visit(n, it.id, a) {
						x.states = len(nodes)
						return false
					}
				}
			}
		}
	}
	x.states = len(nodes)
	return true
}

func (x *explorer) traceTo(nodes []exNode, id int32, bad string) []string {
	var rev []string
	for ; id >= 0; id = nodes[id].parent {
		line := nodes[id].act.String()
		if nodes[id].note != "" {
			line += " [" + nodes[id].note + "]"
		}
		rev = append(rev, line)
	}
	slices.Reverse(rev)
	return append(rev, "BROKEN: "+bad)
}

// swapScope has two participants swap a component each, so both are
// source and destination.
func swapScope(name string) exScope {
	return exScope{
		name:    name,
		parts:   2,
		moves:   map[string]model.HostID{"c0": "p2", "c1": "p1"},
		current: map[string]model.HostID{"c0": "p1", "c1": "p2"},
	}
}

// exScopes are tier-1's walks; the budgets keep each exhaustive and the
// three under a few seconds together.
func exScopes() []exScope {
	lossy := swapScope("swap: one drop, one tick, two crashes")
	lossy.drops, lossy.ticks, lossy.crashes = 1, 1, 2
	faulty := swapScope("swap: one duplicate, one death, one crash")
	faulty.dups, faulty.deaths, faulty.crashes = 1, 1, 1
	// p1 and p3 have no link: c0's fetch and transfer go through the
	// coordinator.
	mediated := exScope{
		name:     "mediated: three participants, one crash",
		parts:    3,
		moves:    map[string]model.HostID{"c0": "p3", "c1": "p1"},
		current:  map[string]model.HostID{"c0": "p1", "c1": "p2"},
		unlinked: [][2]model.HostID{{"p1", "p3"}},
		crashes:  1,
	}
	return []exScope{lossy, faulty, mediated}
}

// exploreFloor is the number of distinct states tier-1 must cover;
// exploreLimit caps one walk.
const (
	exploreFloor = 100_000
	exploreLimit = 3_000_000
)

func (x *explorer) report(t *testing.T) {
	t.Helper()
	t.Logf("%s: %d states, %d quiescent, depth %d", x.scope.name, x.states, x.quiescent, x.depth)
	if x.trace != nil {
		t.Errorf("property broken after %d steps:\n  %s", len(x.trace)-1, strings.Join(x.trace, "\n  "))
	}
}

// TestWaveExplore walks every interleaving of each scope within its
// budgets and checks, at every state, that no outcome precedes its
// durable decision, that the decision never changes, that an abort
// carries no generations, that a commit had every done report, and, at
// every quiescent state, that each live participant applied the decided
// outcome unless the ack budget ran out.
func TestWaveExplore(t *testing.T) {
	start := time.Now()
	total := 0
	for _, s := range exScopes() {
		x := newExplorer(s, (*waveCore).step)
		if !x.explore(exploreLimit) {
			x.report(t)
			return
		}
		x.report(t)
		if x.quiescent == 0 {
			t.Errorf("%s: no quiescent state reached, convergence never checked", s.name)
		}
		total += x.states
	}
	if total < exploreFloor {
		t.Errorf("explored %d states, want at least %d", total, exploreFloor)
	}
	t.Logf("%d states in %v", total, time.Since(start))
}

// The mutants wrap the real step; each must break a property, and BFS
// reports the shortest way there.

// outcomeBeforeDecision sends the outcome ahead of its decided record.
func outcomeBeforeDecision(c *waveCore, in waveInput) []waveOutput {
	out := c.step(in)
	for i, o := range out {
		if o.kind == outAppend && o.rec == RecEpochDecided {
			early := make([]waveOutput, 0, len(c.parts))
			for _, p := range c.parts {
				early = append(early, waveOutput{kind: outSend, to: p, ev: Event{Name: EvOutcome, Payload: WaveOutcome{
					Epoch: c.epoch, Coordinator: c.coordinator, Commit: o.commit, Term: c.term, ReplyTo: c.self,
				}}})
			}
			return slices.Insert(out, i, early...)
		}
	}
	return out
}

// commitWithDoneMissing forges the last destination's done report once
// all others are in.
func commitWithDoneMissing(c *waveCore, in waveInput) []waveOutput {
	out := c.step(in)
	if in.kind != inDone || c.stage != stagePreparing {
		return out
	}
	missing := -1
	for i, w := range c.waiting {
		if w {
			if missing >= 0 {
				return out
			}
			missing = i
		}
	}
	if missing < 0 {
		return out
	}
	host := c.parts[missing]
	forged := waveInput{kind: inDone, host: host, done: DoneReport{Epoch: c.epoch, Host: host, Received: 1}, now: in.now}
	return append(out, c.step(forged)...)
}

// decideResumedAgain forgets the log's decision when a resumed wave
// starts, so Resume decides the epoch a second time.
func decideResumedAgain(c *waveCore, in waveInput) []waveOutput {
	if in.kind == inStart && c.resume {
		c.decided, c.commit = false, false
	}
	return c.step(in)
}

func TestWaveExploreMutants(t *testing.T) {
	for _, m := range []struct {
		name string
		step func(*waveCore, waveInput) []waveOutput
		want string
	}{
		{"outcome before the decided record", outcomeBeforeDecision, "before its decided record is durable"},
		{"commit with a done report missing", commitWithDoneMissing, "commit decided with done reports"},
		{"resumed epoch decided again", decideResumedAgain, "decision changed"},
	} {
		t.Run(m.name, func(t *testing.T) {
			x := newExplorer(exScopes()[0], m.step)
			if x.explore(exploreLimit) {
				t.Fatalf("mutant survived %d states", x.states)
			}
			got := x.trace[len(x.trace)-1]
			if !strings.Contains(got, m.want) {
				t.Fatalf("mutant broke the wrong property:\n  %s", strings.Join(x.trace, "\n  "))
			}
			t.Logf("caught after %d steps (%d states):\n  %s", len(x.trace)-1, x.states, strings.Join(x.trace, "\n  "))
		})
	}
}
