package prism

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"dif/internal/model"
)

// The wave explorer: a breadth-first walk of every interleaving of one
// small wave through the real cores of both sides. The coordinator is
// waveCore.step (and, after a crash, a standby resuming from the same
// durable records); every participant is its own partCore and voterCore,
// fed through participate, the entry point the admin uses. The explorer
// models only the network, each participant's architecture — which
// components are attached, held, or detached awaiting the outcome there,
// as the participant's outputs leave it — the durable log and the clock.
// Each pending frame may be delivered, dropped or duplicated in any order;
// ticks, the deadlines, and a participant's death or restart interleave
// with them; and every write may land whole, crash the coordinator
// after any whole-record prefix of it (none included) has landed, or
// fail with nothing landed, after which the standby resumes. Budgets
// bound the drops, duplicates, ticks, deaths, restarts and crashes;
// within them the walk is exhaustive.
//
// Reading a failure: the trace lists the actions from the initial state,
// shortest first (BFS). Hosts are m (the coordinator), sb (the standby)
// and p1..p3; "append decided(commit=true)+goal" is one write of two
// records, "append decided(commit=true)+goal: crash" means it landed and
// the coordinator died right after it, "append decided(commit=true) of
// decided(commit=true)+goal: crash" that only that prefix landed before
// the crash, and "fail" that the write errored with nothing landed;
// "restart of p2" gives p2 fresh cores and none of its components.

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
	unlinked                                      [][2]model.HostID
	drops, dups, ticks, deaths, restarts, crashes int
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

// exAgent is one participant: its real cores, and its architecture as
// their outputs left it, one bit per explored component.
type exAgent struct {
	alive    bool
	voter    voterCore
	part     partCore
	attached uint8 // components attached here
	held     uint8 // components whose traffic is held here
	prepared uint8 // components detached here, awaiting the outcome
	applied  uint8 // outcomes acknowledged: 1 commit, 2 abort
}

// exLog is the durable record of the explored epoch.
type exLog struct{ open, decided, commit, closed bool }

type exWorld struct {
	core     *waveCore
	coord    int8 // host running core
	term     uint8
	clock    time.Time
	log      exLog
	agents   []*exAgent // shared between clones until owned
	net      []exSlot   // sorted
	drops    int8
	dups     int8
	ticks    int8
	deaths   int8
	restarts int8
	crashes  int8
	doneIn   uint8 // participants whose done report reached the live coordinator
	outcomes uint8 // outcome values announced: 1 commit, 2 abort
	expired  bool  // the live coordinator's ack budget ran out
	spans    int8  // the live coordinator's open trace spans
	// gone marks the participants that died or restarted: they, and the
	// components they sent or received, are exempt from convergence.
	gone uint8
	// owned marks the participants this world copied; clones share an
	// agent until one of them changes it.
	owned uint8
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
	n.owned = 0
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

// clone copies the participant's records and windows; a record's
// arrivals and its prepared departures are never mutated, so they are
// shared.
func (p partCore) clone() partCore {
	n := p
	n.open = make(map[waveKey]*partWave, len(p.open))
	for k, w := range p.open {
		c := *w
		c.arrived, c.departs = slices.Clone(w.arrived), slices.Clone(w.departs)
		n.open[k] = &c
	}
	n.settled = make(map[model.HostID]*dedupWindow, len(p.settled))
	for c, win := range p.settled {
		n.settled[c] = &dedupWindow{floor: win.floor, spans: slices.Clone(win.spans)}
	}
	return n
}

// own returns participant p, copied first if w still shares it. The
// voter's copy is shallow: fencing and generations write only its
// scalar fields.
func (w *exWorld) own(p int8) *exAgent {
	if bit := uint8(1) << (p - exP0); w.owned&bit == 0 {
		w.owned |= bit
		a := *w.agents[p-exP0]
		a.part = a.part.clone()
		w.agents[p-exP0] = &a
	}
	return w.agents[p-exP0]
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

// explorer walks one scope with one step function per side: the real
// waveCore.step and partCore.step, or a mutant wrapped around either.
type explorer struct {
	scope  exScope
	step   func(*waveCore, waveInput) []waveOutput
	pstep  func(*partCore, partInput) []partOutput
	comps  []string
	src    []int8 // per component: source host
	dst    []int8 // per component: destination host
	linked [8][8]bool
	gens   map[model.HostID]uint64
	// arrivals is each participant's reconfig; fetches and transfers are
	// the legs per component, as the coordinator mediates them.
	arrivals           []map[string]model.HostID
	fetches, transfers []waveOutput
	dstMask            uint8 // hosts that are destinations, as participant bits

	states    int
	quiescent int
	depth     int
	trace     []string
}

func newExplorer(s exScope, step func(*waveCore, waveInput) []waveOutput, pstep func(*partCore, partInput) []partOutput) *explorer {
	x := &explorer{scope: s, step: step, pstep: pstep, gens: make(map[model.HostID]uint64),
		arrivals: make([]map[string]model.HostID, s.parts)}
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
		if x.arrivals[dst-exP0] == nil {
			x.arrivals[dst-exP0] = make(map[string]model.HostID)
		}
		x.arrivals[dst-exP0][comp] = s.current[comp]
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

func (x *explorer) bit(comp string) uint8 {
	return 1 << x.compIndex(comp)
}

func (x *explorer) mask(comps []string) uint8 {
	var m uint8
	for _, c := range comps {
		m |= x.bit(c)
	}
	return m
}

var exT0 = time.Unix(0, 0)

// fresh is a participant's new lifetime: fresh cores, no components.
func fresh(p int8) *exAgent {
	return &exAgent{alive: true, voter: newVoterCore(exHosts[p], "m"), part: newPartCore(exHosts[p], "m")}
}

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
		agents: make([]*exAgent, s.parts),
		drops:  int8(s.drops), dups: int8(s.dups), ticks: int8(s.ticks),
		deaths: int8(s.deaths), restarts: int8(s.restarts), crashes: int8(s.crashes),
	}
	for i := range w.agents {
		w.agents[i] = fresh(exP0 + int8(i))
	}
	for i, src := range x.src {
		w.agents[src-exP0].attached |= 1 << i
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
	batch := recName(o, len(o.recs))
	var out []*exWorld
	land := w.clone()
	x.write(land, o, len(o.recs))
	land.addNote("append " + batch)
	out = append(out, x.feed(land, waveInput{kind: inCheckpoint, now: land.clock, gens: x.gens, dead: x.dead(land)})...)
	if w.crashes == 0 {
		return out
	}
	for k := 0; k <= len(o.recs); k++ {
		crash := w.clone()
		x.write(crash, o, k)
		switch k {
		case 0:
			crash.addNote("append " + batch + ": crash, nothing landed")
		case len(o.recs):
			crash.addNote("append " + batch + ": crash")
		default:
			crash.addNote("append " + recName(o, k) + " of " + batch + ": crash")
		}
		out = append(out, x.resume(crash)...)
	}
	if o.recs[0] != RecGoalState {
		// A failed write is a crash too: the wave reacts to the error,
		// then the process restarts.
		failed := w.clone()
		failed.addNote("append " + batch + ": fail")
		for _, f := range x.feed(failed, waveInput{kind: inCheckpoint, now: failed.clock, err: errExplore, dead: x.dead(failed)}) {
			out = append(out, x.resume(f)...)
		}
	}
	return out
}

var errExplore = errors.New("injected append failure")

// recName names the first k records of a write.
func recName(o waveOutput, k int) string {
	names := make([]string, k)
	for i, rec := range o.recs[:k] {
		switch rec {
		case RecEpochOpen:
			names[i] = "open"
		case RecEpochDecided:
			names[i] = fmt.Sprintf("decided(commit=%v)", o.commit)
		case RecGoalState:
			names[i] = "goal"
		case RecEpochClosed:
			names[i] = "closed"
		default:
			names[i] = "snapshot"
		}
	}
	return strings.Join(names, "+")
}

// write makes the first k records of a write durable, in order,
// checking the decision properties.
func (x *explorer) write(w *exWorld, o waveOutput, k int) {
	for _, rec := range o.recs[:k] {
		switch rec {
		case RecEpochOpen:
			w.log.open = true
		case RecEpochDecided:
			if w.log.decided && w.log.commit != o.commit {
				w.fail("decision changed: durable commit=%v, appended commit=%v", w.log.commit, o.commit)
			}
			if o.commit && w.doneIn&x.dstMask != x.dstMask {
				w.fail("commit decided with done reports from %08b of destinations %08b", w.doneIn, x.dstMask)
			}
			w.log.decided, w.log.commit = true, o.commit
		case RecGoalState:
			if !w.log.decided || !w.log.commit {
				w.fail("goal generations durable before the commit decision")
			}
		case RecEpochClosed:
			w.log.closed = true
		}
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
		Decided: w.log.decided, Commit: w.log.commit,
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
// participant. Frames to a dead host, or to a deployer with no wave in
// flight, vanish.
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
	if w.agents[f.to-exP0].alive {
		x.participant(w, f.to, x.input(f))
	}
	return []*exWorld{w}
}

// input rebuilds the payload a frame carries to a participant.
func (x *explorer) input(f exFrame) partInput {
	switch f.kind {
	case exReconfig:
		return partInput{kind: pReconfig, cmd: ReconfigCommand{
			Epoch: 1, Arrivals: x.arrivals[f.to-exP0], Coordinator: "m", Term: uint64(f.term), Gen: 1}}
	case exFetch:
		return partInput{kind: pFetch, req: x.fetches[f.comp].ev.Payload.(FetchRequest)}
	case exTransfer:
		return partInput{kind: pTransfer, tp: x.transfers[f.comp].ev.Payload.(TransferPayload)}
	}
	wo := WaveOutcome{Epoch: 1, Coordinator: "m", Commit: f.commit, Term: uint64(f.term), ReplyTo: exHosts[f.replyTo]}
	if f.gens {
		wo.Gens = x.gens
	}
	return partInput{kind: pOutcome, out: wo}
}

// participant feeds one input to participant p through participate, as
// the admin does, and performs the outputs on the modelled architecture
// the way the admin's shell performs them on the real one: a detach or a
// reconstitution succeeds unless the component is absent or already
// there, and its result is the next input. The fence's reply to a stale
// leader is not modelled: nothing here deposes a coordinator.
func (x *explorer) participant(w *exWorld, p int8, in partInput) {
	a := w.own(p)
	_, outs := participate(&a.voter, &a.part, in, x.pstep)
	for _, o := range outs {
		switch o.kind {
		case pSend, pLeg:
			x.partSend(w, p, o, in)
		case pHold:
			a.held |= x.bit(o.comp)
		case pDetach:
			b := x.bit(o.req.Comp)
			if a.attached&b == 0 {
				continue
			}
			a.attached &^= b
			a.held |= b
			a.prepared |= b
			x.participant(w, p, partInput{kind: pPrepared, req: o.req, ok: true, prep: &preparedComp{
				id: o.req.Comp, requester: o.req.Requester, shipped: TransferPayload{Epoch: o.req.Epoch,
					Coordinator: o.req.Coordinator, Comp: o.req.Comp, FinalDst: o.req.Requester, Source: exHosts[p]}}})
		case pRestore:
			b := x.bit(o.tp.Comp)
			ok := a.attached&b == 0
			a.attached |= b
			x.participant(w, p, partInput{kind: pRestored, tp: o.tp, ok: ok})
		case pCommit:
			for _, d := range o.wave.departs {
				a.prepared &^= x.bit(d.id)
				a.held &^= x.bit(d.id)
			}
			for comp := range o.wave.arrivals {
				a.held &^= x.bit(comp)
			}
		case pAbort:
			for _, d := range o.wave.departs {
				a.prepared &^= x.bit(d.id)
				a.held &^= x.bit(d.id)
				a.attached |= x.bit(d.id)
			}
			a.attached &^= x.mask(o.wave.arrived)
			for comp := range o.wave.arrivals {
				a.held &^= x.bit(comp)
			}
		}
	}
}

// partSend puts one of participant p's frames on the network: a leg to a
// host p has no link to goes to the coordinator to mediate, as the
// admin's sendLeg routes it. An ack records the outcome p applied.
func (x *explorer) partSend(w *exWorld, p int8, o partOutput, in partInput) {
	f := exFrame{from: p, to: exIndex(o.to)}
	switch pl := o.ev.Payload.(type) {
	case DoneReport:
		f.kind, f.toDep, f.recv = exDone, true, int8(pl.Received)
	case OutcomeAck:
		f.kind, f.toDep = exAck, true
		a := w.agents[p-exP0]
		if a.applied |= 1 << b2i(!in.out.Commit); a.applied == 3 {
			w.fail("%s applied both commit and abort", exHosts[p])
		}
	case FetchRequest:
		f.kind, f.comp = exFetch, x.compIndex(pl.Comp)
	case TransferPayload:
		f.kind, f.comp = exTransfer, x.compIndex(pl.Comp)
	default:
		panic(fmt.Sprintf("explorer: unexpected participant send %s", o.ev.Name))
	}
	if o.kind == pLeg && !x.linked[p][f.to] {
		f.to, f.toDep = exIndex(o.coord), true
	}
	w.send(f)
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
	actRestart
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
	case actRestart:
		return "restart of " + string(exHosts[a.host])
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
	for i, a := range w.agents {
		p := exP0 + int8(i)
		if a.alive && w.deaths > 0 {
			acts = append(acts, exAction{kind: actDeath, host: p})
		}
		if a.alive && w.restarts > 0 {
			acts = append(acts, exAction{kind: actRestart, host: p})
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
	case actRestart:
		// A new lifetime the detector never noticed: frames in flight
		// still reach it.
		n.restarts--
		n.agents[a.host-exP0] = fresh(a.host)
		n.gone |= 1 << (a.host - exP0)
		return []*exWorld{n}
	}
	n.deaths--
	n.own(a.host).alive = false
	n.gone |= 1 << (a.host - exP0)
	return x.feed(n, waveInput{kind: inDead, host: exHosts[a.host], now: n.clock})
}

// checkLive asserts that no component is live — attached and not held —
// on two live hosts.
func (x *explorer) checkLive(w *exWorld) {
	for i, comp := range x.comps {
		first := -1
		for j, a := range w.agents {
			switch {
			case !a.alive || (a.attached&^a.held)&(1<<i) == 0:
			case first < 0:
				first = j
			default:
				w.fail("%s live on two hosts: %s and %s", comp, exHosts[exP0+int8(first)], exHosts[exP0+int8(j)])
			}
		}
	}
}

// checkQuiescent asserts convergence once nothing is in flight and the
// coordinator is done, unless the ack budget ran out: every participant
// applied the decided outcome, and each moved component is live only at
// its destination after a commit, only at its source after an abort. A
// participant that died or restarted is exempt, and so are the
// components it sent or received.
func (x *explorer) checkQuiescent(w *exWorld) {
	if len(w.net) != 0 || (w.core != nil && !w.core.finished()) {
		return
	}
	x.quiescent++
	if !w.log.decided || w.expired {
		return
	}
	want, decision := uint8(1), "commit"
	if !w.log.commit {
		want, decision = 2, "abort"
	}
	for i, a := range w.agents {
		if w.gone&(1<<i) == 0 && a.applied&want == 0 {
			w.fail("quiescent, but live %s never applied the decided outcome (commit=%v)", exHosts[exP0+int8(i)], w.log.commit)
		}
	}
	for i, comp := range x.comps {
		if w.gone&(1<<(x.src[i]-exP0)|1<<(x.dst[i]-exP0)) != 0 {
			continue
		}
		home := x.dst[i]
		if !w.log.commit {
			home = x.src[i]
		}
		for j, a := range w.agents {
			p := exP0 + int8(j)
			if live := (a.attached&^a.held)&(1<<i) != 0; live != (p == home) {
				w.fail("quiescent after %s, but %s live at %s is %v (want it live at %s only)", decision, comp, exHosts[p], live, exHosts[home])
			}
		}
	}
}

// exSeed keys the visited-state set; 64-bit hashes of a few million
// states collide with odds below one in 10⁶.
var exSeed = maphash.MakeSeed()

// key hashes the canonical encoding of everything that decides w's
// future.
func (x *explorer) key(w *exWorld, buf []byte) (uint64, []byte) {
	buf = buf[:0]
	buf = append(buf, byte(w.coord), w.term, byte(w.drops), byte(w.dups), byte(w.ticks), byte(w.deaths), byte(w.restarts), byte(w.crashes),
		w.doneIn, w.outcomes, byte(b2i(w.expired)), byte(w.spans), w.gone,
		byte(b2i(w.log.open)), byte(b2i(w.log.decided)), byte(b2i(w.log.commit)), byte(b2i(w.log.closed)))
	buf = binary.AppendVarint(buf, w.clock.UnixNano())
	for _, a := range w.agents {
		buf = x.keyAgent(buf, a)
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

// keyAgent encodes a participant: its architecture, its voter's fence,
// holder and generation, and its partCore's records and windows. A
// change to partCore's, partWave's or voterCore's fields must be
// mirrored here and in clone, or the walk merges distinct states.
func (x *explorer) keyAgent(buf []byte, a *exAgent) []byte {
	v := &a.voter
	buf = append(buf, byte(b2i(a.alive)), a.attached, a.held, a.prepared, a.applied,
		byte(v.fence), byte(exIndex(v.holder)), byte(v.gen))
	if len(a.part.open) > 1 || len(a.part.settled) > 1 {
		panic("explorer: a participant holds more than the explored wave")
	}
	for k, pw := range a.part.open {
		buf = append(buf, 0xfc, byte(exIndex(k.coord)), byte(k.epoch), byte(b2i(pw.arrivals != nil)), byte(b2i(pw.done)), x.mask(pw.arrived))
		for _, d := range pw.departs {
			buf = append(buf, byte(x.compIndex(d.id)), byte(exIndex(d.requester)))
		}
	}
	for c, win := range a.part.settled {
		buf = append(buf, 0xfb, byte(exIndex(c)), byte(win.floor), byte(len(win.spans)))
	}
	return append(buf, 0xfa)
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
		k, b := x.key(w, buf)
		buf = b
		if _, dup := seen[k]; dup {
			// A violation on the way in belongs to the transition, not to
			// the (already checked) state.
			if w.bad == "" {
				return true
			}
		} else {
			seen[k] = struct{}{}
			x.checkLive(w)
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
// four under a few seconds together.
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
	restart := swapScope("swap: one restart, one tick")
	restart.restarts, restart.ticks = 1, 1
	return []exScope{lossy, faulty, mediated, restart}
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
// carries no generations, that a commit had every done report, and that
// no component is live on two hosts; and, at every quiescent state, that
// each participant applied the decided outcome and each moved component
// is live only where that outcome leaves it, unless the ack budget ran
// out.
func TestWaveExplore(t *testing.T) {
	// The walk keeps every frontier world live: collect less often.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	start := time.Now()
	total := 0
	for _, s := range exScopes() {
		x := newExplorer(s, (*waveCore).step, (*partCore).step)
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

// The mutants wrap the real steps; each must break a property, and BFS
// reports the shortest way there.

// outcomeBeforeDecision sends the outcome ahead of its decided record.
func outcomeBeforeDecision(c *waveCore, in waveInput) []waveOutput {
	out := c.step(in)
	for i, o := range out {
		if o.kind == outAppend && o.recs[0] == RecEpochDecided {
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

// goalsBeforeDecision writes a commit's goal records ahead of its
// decided record: a crash between them leaves generations advanced for a
// wave whose decision never landed.
func goalsBeforeDecision(c *waveCore, in waveInput) []waveOutput {
	out := c.step(in)
	for i, o := range out {
		if o.kind == outAppend && slices.Equal(o.recs, []byte{RecEpochDecided, RecGoalState}) {
			out[i].recs = []byte{RecGoalState, RecEpochDecided}
		}
	}
	return out
}

// decideResumedAgain forgets the log's decision when a resumed wave
// starts, so Resume decides the epoch a second time.
func decideResumedAgain(c *waveCore, in waveInput) []waveOutput {
	if in.kind == inStart && c.resume {
		c.decided, c.commit = false, false
	}
	return c.step(in)
}

// detachAfterSettle forgets which waves settled while a fetch is served,
// so a late fetch detaches the component again: the defect a delayed
// duplicate fetch once caused under load.
func detachAfterSettle(p *partCore, in partInput) []partOutput {
	if in.kind == pFetch || in.kind == pPrepared {
		settled := p.settled
		p.settled = nil
		defer func() { p.settled = settled }()
	}
	return p.step(in)
}

// doneOneShort reports done while one arrival is still missing.
func doneOneShort(p *partCore, in partInput) []partOutput {
	out := p.step(in)
	for k, w := range p.open {
		if w.arrivals != nil && !w.done && len(w.arrived)+1 == len(w.arrivals) {
			w.done = true
			out = append(out, p.doneReport(k, w))
		}
	}
	return out
}

// abortKeepsDetached rolls a wave back without re-attaching what it
// detached.
func abortKeepsDetached(p *partCore, in partInput) []partOutput {
	out := p.step(in)
	for i, o := range out {
		if o.kind == pAbort && in.kind == pOutcome {
			w := *o.wave
			w.departs = nil
			out[i].wave = &w
		}
	}
	return out
}

// restoreOrphan reconstitutes a transfer that no reconfig of this
// lifetime asked for, and forgets it: the rule before such transfers
// were dropped.
func restoreOrphan(p *partCore, in partInput) []partOutput {
	k := p.key(in.tp.Coordinator, in.tp.Epoch)
	if w := p.open[k]; (in.kind == pTransfer || in.kind == pRestored) && (w == nil || w.arrivals == nil) && !p.isSettled(k) {
		if in.kind == pTransfer {
			return []partOutput{{kind: pRestore, tp: in.tp}}
		}
		return nil
	}
	return p.step(in)
}

func TestWaveExploreMutants(t *testing.T) {
	scopes := exScopes()
	wave, part := (*waveCore).step, (*partCore).step
	for _, m := range []struct {
		name  string
		scope exScope
		step  func(*waveCore, waveInput) []waveOutput
		pstep func(*partCore, partInput) []partOutput
		want  string
	}{
		{"outcome before the decided record", scopes[0], outcomeBeforeDecision, part, "before its decided record is durable"},
		{"commit with a done report missing", scopes[0], commitWithDoneMissing, part, "commit decided with done reports"},
		{"resumed epoch decided again", scopes[0], decideResumedAgain, part, "decision changed"},
		{"goal records ahead of the decided record", scopes[0], goalsBeforeDecision, part, "goal generations durable before the commit decision"},
		{"a fetch of a settled wave detaches again", scopes[0], wave, detachAfterSettle, "quiescent after abort"},
		{"done reported with an arrival missing", scopes[0], wave, doneOneShort, "quiescent after commit"},
		{"an abort leaves a prepared instance detached", scopes[0], wave, abortKeepsDetached, "quiescent after abort"},
		{"an orphan transfer is reconstituted", scopes[3], wave, restoreOrphan, "live on two hosts"},
	} {
		t.Run(m.name, func(t *testing.T) {
			x := newExplorer(m.scope, m.step, m.pstep)
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
