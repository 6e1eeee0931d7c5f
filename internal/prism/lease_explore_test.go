package prism

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"dif/internal/model"
)

// The lease explorer: a breadth-first walk of every interleaving of a
// small election, failover or replication stream, driving the real cores
// of both sides — two deployers' leaseCore.step and three agents'
// voterCore.step — plus the deployer's real goalDelta, goalEntry.noteAck
// and the store's offer rule, offerAfter. What the explorer models is
// only their environment: the network (each pending frame may be
// delivered, dropped, duplicated, in any order), the durable store (the
// persisted term, a log of goal records with the replication stream's
// base and tail, compaction, and DeployerStore.Ingest's rules), the goal
// table's storage, an agent's component manifest, and a committed wave
// (its goal bump and its outcome frame; the wave's own protocol is
// wave_explore_test.go's). Ticks, campaign deadlines, lease clock steps
// of one TTL, compactions, crashes and restarts interleave with the
// frames.
// Every term append may land, fail (the term is best-effort), or land and
// crash the deployer, which restarts from its persisted term. Budgets
// bound the walk; within them it is exhaustive, up to three reductions
// that merge only states with one future: key's canonical encoding, the
// election's A/B mirror, and retire's grants that can no longer act.
//
// Reading a failure: the trace lists the actions from the initial state,
// shortest first (BFS). Hosts are A and B (deployers) and x, y, z
// (agents); after "restart of x", x is a fresh lifetime with empty state.
// "[append term 2: crash]" means the term landed and the deployer died
// right after it; "fail" that the append errored and the deployer went
// on. A grant its deployer can no longer act on leaves the network
// without a line (retire).

var lxHosts = []model.HostID{"A", "B", "x", "y", "z"}

// lxComps are the components of the goal-state scope: each agent's own,
// and the wave's.
var lxComps = []string{"cx", "cy", "cz", "w"}

const (
	lxA, lxB  int8 = 0, 1
	lxX       int8 = 2 // first agent
	lxWaveTo  int8 = 3 // y: the agent a committed wave moves w onto
	lxW            = 1 << 3
	lxTTL          = time.Second
	lxTimeout      = 4 * time.Second
	lxCopies       = 2 // copies of one frame in flight; more are absorbed
)

var lxT0 = time.Unix(0, 0)

type lxKind uint8

const (
	lxRequest lxKind = iota
	lxGrant
	lxReplicate
	lxReplAck
	lxAnnounce
	lxDelta
	lxGoalAck
	lxOutcome
)

var lxKindNames = [...]string{"request", "grant", "replicate", "replAck", "announce", "delta", "goalAck", "outcome"}

// lxFrame is one frame in flight, reduced to what its receiver reads.
type lxFrame struct {
	kind     lxKind
	from, to int8
	term     uint8
	flag     bool   // request: renewal; grant: granted; replicate: reset
	seq      uint8  // replicate: first record; replAck: applied
	gen      uint8  // announce, delta, goal ack, outcome
	fromGen  uint8  // delta
	mask     uint8  // announce, goal ack: manifest; delta: acquire
	remove   uint8  // delta
	recs     string // replicate: the records, lxRec bytes each
}

func (f lxFrame) pack() uint64 {
	return uint64(f.kind)<<56 | uint64(f.from)<<52 | uint64(f.to)<<48 | uint64(f.term)<<40 | uint64(b2i(f.flag))<<39 |
		uint64(f.seq)<<32 | uint64(f.gen)<<24 | uint64(f.fromGen)<<16 | uint64(f.mask)<<8 | uint64(f.remove)
}

func (f lxFrame) compare(g lxFrame) int {
	return cmp.Or(cmp.Compare(f.pack(), g.pack()), strings.Compare(f.recs, g.recs))
}

func (f lxFrame) String() string {
	s := fmt.Sprintf("%s %s→%s", lxKindNames[f.kind], lxHosts[f.from], lxHosts[f.to])
	switch f.kind {
	case lxRequest:
		s += fmt.Sprintf(" term %d", f.term)
		if f.flag {
			s += " (renewal)"
		}
	case lxGrant:
		s += fmt.Sprintf(" term %d granted=%v", f.term, f.flag)
	case lxReplicate:
		s += fmt.Sprintf(" term %d seq %d+%d", f.term, f.seq, len(f.recs)/lxRec)
	case lxReplAck:
		s += fmt.Sprintf(" term %d applied %d", f.term, f.seq)
	case lxAnnounce, lxGoalAck:
		s += fmt.Sprintf(" gen %d %s", f.gen, lxManifest(f.mask))
	case lxDelta:
		s += fmt.Sprintf(" term %d gen %d→%d +%s -%s", f.term, f.fromGen, f.gen, lxManifest(f.mask), lxManifest(f.remove))
	case lxOutcome:
		s += fmt.Sprintf(" term %d gen %d", f.term, f.gen)
	}
	return s
}

func lxManifest(mask uint8) []string {
	var out []string
	for i, c := range lxComps {
		if mask&(1<<i) != 0 {
			out = append(out, c)
		}
	}
	return out
}

func lxMask(ids []string) uint8 {
	var m uint8
	for _, id := range ids {
		m |= 1 << slices.Index(lxComps, id)
	}
	return m
}

type lxSlot struct {
	f lxFrame
	n uint8
}

// lxRec is the size of one replicated goal record: host, generation,
// manifest.
const lxRec = 3

// lxGoal is one goal-table entry's storage.
type lxGoal struct{ gen, acked, mask uint8 }

func (g lxGoal) entry() goalEntry {
	e := goalEntry{Gen: uint64(g.gen), Acked: uint64(g.acked), Manifest: make(map[string]string)}
	for _, id := range lxManifest(g.mask) {
		e.Manifest[id] = "t"
	}
	return e
}

type lxDep struct {
	alive bool
	core  leaseCore
	// The durable store: the persisted term, a log of goal records, the
	// stream's base and the tail appended since (DeployerStore.base and
	// tail, reset by a restart), and the ingest high-water mark.
	stored  uint8
	log     string
	base    uint8
	tail    string
	replSeq uint8
	table   [3]lxGoal
	// lastTerm is the highest term seen, across restarts.
	lastTerm uint64
}

type lxAgent struct {
	voter    voterCore
	manifest uint8
}

// lxBudget bounds the actions that could otherwise repeat forever.
type lxBudget struct {
	drops, dups, ticks, campaigns, renews, flushes, clocks, crashes, restarts, beats, waves, compacts int8
}

type lxWorld struct {
	deps   [2]lxDep
	agents [3]lxAgent
	net    []lxSlot  // sorted
	clock  time.Time // the lease clock: agents' expiry and the leader watch
	cnow   time.Time // the campaign clock: deadlines
	left   lxBudget
	// granted records, per agent and term, the candidate the agent granted
	// it to, merged over its lifetimes; leaders the deployer that led at
	// each term, over every lifetime (index+1).
	granted   [3][16]int8
	leaders   [16]int8
	note, bad string
}

// clone copies w. The cores' slices and maps stay shared until a step:
// lcall and vote copy them first, and share them again if the step left
// them as they were.
func (w *lxWorld) clone() *lxWorld {
	n := *w
	n.net = slices.Clone(w.net)
	return &n
}

// lcall steps deployer i's core, at its store's position, on its own
// copy of the core's slices and map.
func (x *lxExplorer) lcall(w *lxWorld, i int8, in leaseInput) []leaseOutput {
	d := &w.deps[i]
	c := &d.core
	granted, acked, sent := c.granted, c.acked, c.sent
	c.granted, c.acked, c.sent = maps.Clone(c.granted), slices.Clone(c.acked), slices.Clone(c.sent)
	in.pos = uint64(d.pos())
	out := x.lstep(c, in)
	// What the step left unchanged stays shared with the parent world.
	if maps.Equal(c.granted, granted) {
		c.granted = granted
	}
	if slices.Equal(c.acked, acked) {
		c.acked = acked
	}
	if slices.Equal(c.sent, sent) {
		c.sent = sent
	}
	return out
}

// pos is the store's replication position (DeployerStore.position).
func (d *lxDep) pos() uint8 { return d.base + uint8(len(d.tail)/lxRec) }

func (w *lxWorld) fail(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

func (w *lxWorld) addNote(s string) {
	if w.note != "" {
		w.note += "; "
	}
	w.note += s
}

func (w *lxWorld) send(f lxFrame) {
	if f.to < lxX && !w.deps[f.to].alive {
		return // a dead host's frames vanish
	}
	i, found := slices.BinarySearchFunc(w.net, f, func(s lxSlot, f lxFrame) int { return s.f.compare(f) })
	if found {
		w.net[i].n = min(w.net[i].n+1, lxCopies)
		return
	}
	w.net = slices.Insert(w.net, i, lxSlot{f: f, n: 1})
}

func (w *lxWorld) take(f lxFrame) {
	i := slices.IndexFunc(w.net, func(s lxSlot) bool { return s.f == f })
	if w.net[i].n--; w.net[i].n == 0 {
		w.net = slices.Delete(w.net, i, i+1)
	}
}

// lxScope is one explored situation and its budgets.
type lxScope struct {
	name     string
	failover bool // A leads a replicated goal table; else A and B campaign from term 0
	stream   bool // with failover: waves land while B stands by
	left     lxBudget
}

type lxExplorer struct {
	scope lxScope
	lstep func(*leaseCore, leaseInput) []leaseOutput
	vstep func(*voterCore, voterInput) []voterOutput
	offer func(after, base uint64, tail []ReplRecord, live func() []ReplRecord) (uint64, bool, []ReplRecord)

	states, quiescent, depth int
	trace                    []string

	enc [2][]byte // key's scratch encodings
	net []lxSlot  // and its scratch frames
}

func newLeaseExplorer(s lxScope, lstep func(*leaseCore, leaseInput) []leaseOutput, vstep func(*voterCore, voterInput) []voterOutput) *lxExplorer {
	return &lxExplorer{scope: s, lstep: lstep, vstep: vstep, offer: offerAfter}
}

func lxIndex(h model.HostID) int8 { return int8(slices.Index(lxHosts, h)) }

// newDep starts a deployer lifetime from its persisted term, as
// AttachLeadership does, over its store reopened.
func (x *lxExplorer) newDep(w *lxWorld, i int8) {
	d := &w.deps[i]
	d.alive, d.base, d.tail, d.replSeq = true, 1, "", 0
	d.core = newLeaseCore(lxHosts[i], lxHosts[lxX:], []model.HostID{lxHosts[1-i]}, lxTTL, lxTimeout, uint64(d.stored), w.clock)
}

func (x *lxExplorer) initial() []*lxWorld {
	w := &lxWorld{clock: lxT0, cnow: lxT0, left: x.scope.left}
	for i := range w.agents {
		w.agents[i].voter = newVoterCore(lxHosts[lxX+int8(i)], "A")
	}
	x.newDep(w, lxA)
	x.newDep(w, lxB)
	if !x.scope.failover {
		var out []*lxWorld
		for _, a := range x.feed(w, lxA, leaseInput{kind: lCampaign}) {
			out = append(out, x.feed(a, lxB, leaseInput{kind: lCampaign})...)
		}
		return out
	}
	// A leads term 1 over a seeded goal table that B has replicated, and
	// every agent runs its goal manifest at generation 1.
	for i := range w.agents {
		w.deps[lxA].table[i] = lxGoal{gen: 1, mask: 1 << i}
		w.deps[lxA].log += string([]byte{byte(i), 1, 1 << i})
		w.agents[i].manifest, w.agents[i].voter.gen = 1<<i, 1
	}
	w = x.feed(w, lxA, leaseInput{kind: lCampaign})[0]
	for len(w.net) > 0 {
		f := w.net[0].f
		w.take(f)
		w = x.deliver(w, f)[0]
	}
	w.note = ""
	if !w.deps[lxA].core.leading || !w.deps[lxA].core.synced("B", uint64(w.deps[lxA].pos())) {
		panic("explorer: the failover scope's initial election did not converge")
	}
	return []*lxWorld{w}
}

// feed steps deployer i's lease core and performs its outputs.
func (x *lxExplorer) feed(w *lxWorld, i int8, in leaseInput) []*lxWorld {
	in.now = w.cnow
	if in.at.IsZero() {
		in.at = w.clock
	}
	return x.perform(w, i, x.lcall(w, i, in))
}

// perform runs deployer i's outputs in order. A term append branches the
// world: it lands; it fails and the deployer goes on; or, while the crash
// budget lasts, it lands and the deployer dies and restarts from it.
func (x *lxExplorer) perform(w *lxWorld, i int8, outs []leaseOutput) []*lxWorld {
	d := &w.deps[i]
	for k, o := range outs {
		switch o.kind {
		case lSend:
			x.depSend(w, i, o.to, o.ev)
		case lAppend:
			d.replSeq = 0
			rest := outs[k+1:]
			land := w.clone()
			land.deps[i].stored = uint8(o.term)
			land.addNote(fmt.Sprintf("append term %d", o.term))
			out := x.perform(land, i, rest)
			if w.left.crashes == 0 || x.scope.failover {
				return out
			}
			failed := w.clone()
			failed.addNote(fmt.Sprintf("append term %d: fail", o.term))
			out = append(out, x.perform(failed, i, rest)...)
			crash := w.clone()
			crash.deps[i].stored = uint8(o.term)
			crash.addNote(fmt.Sprintf("append term %d: crash", o.term))
			return append(out, x.crash(crash, i)...)
		case lIngest:
			x.ingest(w, i, o.batch)
		case lOffer:
			x.offerTo(w, i, o.to, o.batch)
		case lWon:
			x.won(w, i)
		}
	}
	x.check(w)
	return []*lxWorld{w}
}

// crash kills deployer i; in an election it restarts from its persisted
// term at once and campaigns again.
func (x *lxExplorer) crash(w *lxWorld, i int8) []*lxWorld {
	w.left.crashes--
	d := &w.deps[i]
	d.alive = false
	w.net = slices.DeleteFunc(w.net, func(s lxSlot) bool { return s.f.to == i })
	if x.scope.failover {
		x.check(w)
		return []*lxWorld{w}
	}
	x.newDep(w, i)
	return x.feed(w, i, leaseInput{kind: lCampaign})
}

// won is what the shell does when a campaign wins: merge the store's
// goal records into the table (Resume).
func (x *lxExplorer) won(w *lxWorld, i int8) {
	d := &w.deps[i]
	live := lxLive(d.log)
	for k := 0; k < len(live); k += lxRec {
		if r, g := live[k:k+lxRec], &d.table[live[k]]; r[1] >= g.gen {
			g.gen, g.mask = r[1], r[2]
		}
	}
}

// offerTo fills deployer i's offer to a peer from its store, as the shell
// does with DeployerStore.offer, and sends it.
func (x *lxExplorer) offerTo(w *lxWorld, i int8, to model.HostID, b ReplBatch) {
	d := &w.deps[i]
	b.Seq, b.Reset, b.Records = x.offer(b.Seq-1, uint64(d.base), lxRecords(d.tail), func() []ReplRecord { return lxRecords(lxLive(d.log)) })
	x.depSend(w, i, to, Event{Name: EvReplicate, Payload: b})
}

// lxRecords splits goal records into replicated ones.
func lxRecords(recs string) []ReplRecord {
	var out []ReplRecord
	for k := 0; k < len(recs); k += lxRec {
		out = append(out, ReplRecord{Kind: RecGoalState, Data: []byte(recs[k : k+lxRec])})
	}
	return out
}

// lxGoals names goal records: host, generation and manifest.
func lxGoals(recs string) string {
	var out []string
	for k := 0; k < len(recs); k += lxRec {
		out = append(out, fmt.Sprintf("%s gen %d %v", lxHosts[lxX+int8(recs[k])], recs[k+1], lxManifest(recs[k+2])))
	}
	return "[" + strings.Join(out, ", ") + "]"
}

// lxLive folds a goal log to its live records: the last per host, in host
// order.
func lxLive(log string) string {
	var last [3]string
	for k := 0; k < len(log); k += lxRec {
		last[log[k]] = log[k : k+lxRec]
	}
	return strings.Join(last[:], "")
}

// ingest applies a replicated batch with DeployerStore.Ingest's rules and
// acks it.
func (x *lxExplorer) ingest(w *lxWorld, i int8, b ReplBatch) {
	d := &w.deps[i]
	var recs string
	for _, r := range b.Records {
		recs += string(r.Data)
	}
	seq, n := uint8(b.Seq), uint8(len(b.Records))
	switch {
	case b.Reset:
		if seq > d.replSeq {
			d.log, d.base, d.tail, d.replSeq = recs, d.pos(), "", seq
		}
	case n > 0 && seq+n-1 > d.replSeq && seq <= d.replSeq+1:
		d.log += recs[(d.replSeq+1-seq)*lxRec:]
		d.replSeq = seq + n - 1
	}
	w.send(lxFrame{kind: lxReplAck, from: i, to: lxIndex(b.Leader), term: uint8(b.Term), seq: d.replSeq})
}

func (x *lxExplorer) depSend(w *lxWorld, i int8, to model.HostID, ev Event) {
	f := lxFrame{from: i, to: lxIndex(to)}
	switch p := ev.Payload.(type) {
	case LeaseRequest:
		f.kind, f.term, f.flag = lxRequest, uint8(p.Term), p.Renewal
	case ReplBatch:
		f.kind, f.term, f.seq, f.flag = lxReplicate, uint8(p.Term), uint8(p.Seq), p.Reset
		for _, r := range p.Records {
			f.recs += string(r.Data)
		}
	case ReplAck:
		f.kind, f.term, f.seq = lxReplAck, uint8(p.Term), uint8(p.Applied)
	default:
		panic(fmt.Sprintf("explorer: unexpected deployer send %s", ev.Name))
	}
	w.send(f)
}

// vote steps agent a's voter and performs its outputs; it reports whether
// a fenced frame was accepted.
func (x *lxExplorer) vote(w *lxWorld, a int8, in voterInput) bool {
	ag := &w.agents[a-lxX]
	fence := ag.voter.fence
	grants := ag.voter.grants
	ag.voter.grants = maps.Clone(grants)
	defer func() {
		if maps.Equal(ag.voter.grants, grants) {
			ag.voter.grants = grants
		}
	}()
	in.now = w.clock
	accepted := false
	for _, o := range x.vstep(&ag.voter, in) {
		switch o.kind {
		case vSend:
			g := o.ev.Payload.(LeaseGrant)
			if g.Granted {
				c := lxIndex(o.to) + 1
				if prev := w.granted[a-lxX][g.Term]; prev != 0 && prev != c {
					w.fail("%s granted term %d to two candidates: %s and %s", lxHosts[a], g.Term, lxHosts[prev-1], lxHosts[c-1])
				}
				w.granted[a-lxX][g.Term] = c
			}
			w.send(lxFrame{kind: lxGrant, from: a, to: lxIndex(o.to), term: uint8(g.Term), flag: g.Granted})
		case vAccept:
			accepted = true
			if in.term != 0 && in.term < fence {
				w.fail("%s applied a frame at term %d below its fence %d", lxHosts[a], in.term, fence)
			}
		case vApply:
			d := o.delta
			if d.Term != 0 && d.Term < fence {
				w.fail("%s applied a delta at term %d below its fence %d", lxHosts[a], d.Term, fence)
			}
			acq, rem := uint8(0), lxMask(d.Remove)
			for _, gc := range d.Acquire {
				acq |= lxMask([]string{gc.ID})
			}
			ag.manifest = (ag.manifest | acq) &^ rem
			x.vote(w, a, voterInput{kind: vApplied, delta: d})
		case vAnnounceTo:
			w.send(lxFrame{kind: lxAnnounce, from: a, to: lxIndex(o.to), gen: uint8(o.gen), mask: ag.manifest})
		case vAckTo:
			w.send(lxFrame{kind: lxGoalAck, from: a, to: lxIndex(o.to), gen: uint8(o.gen), mask: ag.manifest})
		}
	}
	if ag.voter.fence < fence {
		w.fail("%s's fence fell from %d to %d", lxHosts[a], fence, ag.voter.fence)
	}
	return accepted
}

// deliver hands a frame to its host's core.
func (x *lxExplorer) deliver(w *lxWorld, f lxFrame) []*lxWorld {
	if f.to >= lxX {
		a := f.to
		switch f.kind {
		case lxRequest:
			x.vote(w, a, voterInput{kind: vLease, req: LeaseRequest{Candidate: lxHosts[f.from], Term: uint64(f.term), TTL: lxTTL, Renewal: f.flag}})
		case lxDelta:
			d := GoalDelta{Host: lxHosts[a], Coordinator: lxHosts[f.from], Term: uint64(f.term), FromGen: uint64(f.fromGen),
				Generation: uint64(f.gen), Full: true, Remove: lxManifest(f.remove)}
			for _, id := range lxManifest(f.mask) {
				d.Acquire = append(d.Acquire, GoalComponent{ID: id, Type: "t"})
			}
			x.vote(w, a, voterInput{kind: vDelta, delta: d})
		case lxOutcome:
			// The wave's commit: its arrival is released, and the outcome's
			// generations are adopted.
			if x.vote(w, a, voterInput{kind: vFrame, term: uint64(f.term), origin: lxHosts[f.from]}) {
				w.agents[a-lxX].manifest |= lxW
				x.vote(w, a, voterInput{kind: vGens, gens: map[model.HostID]uint64{lxHosts[a]: uint64(f.gen)}})
			}
		}
		x.check(w)
		return []*lxWorld{w}
	}
	i := f.to
	d := &w.deps[i]
	switch f.kind {
	case lxGrant:
		return x.feed(w, i, leaseInput{kind: lGrant, grant: LeaseGrant{Host: lxHosts[f.from], Term: uint64(f.term), Granted: f.flag}})
	case lxReplicate:
		b := ReplBatch{Leader: lxHosts[f.from], Term: uint64(f.term), Seq: uint64(f.seq), Reset: f.flag, Records: lxRecords(f.recs)}
		return x.feed(w, i, leaseInput{kind: lReplicate, batch: b})
	case lxReplAck:
		return x.feed(w, i, leaseInput{kind: lReplAck, ack: ReplAck{Host: lxHosts[f.from], Term: uint64(f.term), Applied: uint64(f.seq)}})
	case lxAnnounce:
		if d.core.leading {
			a := f.from - lxX
			ga := GoalAnnounce{Host: lxHosts[f.from], Generation: uint64(f.gen), Manifest: lxManifest(f.mask)}
			delta, _ := goalDelta(d.table[a].entry(), ga, nil, lxHosts[i], d.core.term)
			var acq []string
			for _, gc := range delta.Acquire {
				acq = append(acq, gc.ID)
			}
			w.send(lxFrame{kind: lxDelta, from: i, to: f.from, term: uint8(delta.Term), gen: uint8(delta.Generation),
				fromGen: uint8(delta.FromGen), mask: lxMask(acq), remove: lxMask(delta.Remove)})
		}
	case lxGoalAck:
		a := f.from - lxX
		e := d.table[a].entry()
		if e.noteAck(GoalAck{Host: lxHosts[f.from], Generation: uint64(f.gen), Manifest: lxManifest(f.mask)}) {
			w.fail("%s acked generation %d with %v, but the goal there is %v", lxHosts[f.from], f.gen, lxManifest(f.mask), lxManifest(d.table[a].mask))
		}
		d.table[a].acked = uint8(e.Acked)
	}
	x.check(w)
	return []*lxWorld{w}
}

// check asserts the safety properties that hold at every state.
func (x *lxExplorer) check(w *lxWorld) {
	x.checkSynced(w, false)
	for i := range w.deps {
		d := &w.deps[i]
		if !d.alive {
			continue
		}
		c := &d.core
		if c.term != 0 && !w.grantedAt(c.term) {
			w.fail("%s is at term %d, which no agent granted", lxHosts[i], c.term)
		}
		if c.term < d.lastTerm {
			w.fail("%s's term fell from %d to %d", lxHosts[i], d.lastTerm, c.term)
		}
		d.lastTerm = c.term
		if c.leading {
			if prev := w.leaders[c.term]; prev != 0 && prev != int8(i)+1 {
				w.fail("two deployers lead term %d: %s and %s", c.term, lxHosts[prev-1], lxHosts[i])
			}
			w.leaders[c.term] = int8(i) + 1
		}
	}
}

// grantedAt reports whether some agent, in some lifetime, granted term.
func (w *lxWorld) grantedAt(term uint64) bool {
	return slices.ContainsFunc(w.granted[:], func(g [16]int8) bool { return g[term] != 0 })
}

// checkSynced asserts that Synced tells the truth: a peer the live leader
// reports synced holds the leader's live records, and once the world is
// settled every live peer is synced.
func (x *lxExplorer) checkSynced(w *lxWorld, settled bool) {
	l := x.leader(w)
	if l < 0 {
		return
	}
	d := &w.deps[l]
	for _, p := range d.core.peers {
		pd := &w.deps[lxIndex(p)]
		if !pd.alive {
			continue
		}
		synced := d.core.synced(p, uint64(d.pos()))
		if want, got := lxLive(d.log), lxLive(pd.log); synced && want != got || settled && !synced {
			w.fail("%s%s reports %s synced=%v at position %d, %s holds %s, %s's live records are %s",
				map[bool]string{true: "settled, but "}[settled], lxHosts[l], p, synced, d.pos(), p, lxGoals(got), lxHosts[l], lxGoals(want))
		}
	}
}

// lxAction is one explorer move.
type lxAction struct {
	kind  uint8
	frame lxFrame
	host  int8
}

const (
	laStart uint8 = iota
	laDeliver
	laDrop
	laDup
	laTick     // a campaign's re-broadcast
	laDeadline // a campaign's deadline
	laCampaign // campaign again (an election) or fail over (the watch fired)
	laRenew
	laFlush // ReplicationTick
	laClock // the lease clock moves one TTL
	laCrash
	laRestart // an agent restarts with empty state and announces
	laBeat    // an agent's heartbeat
	laWave    // the leader commits a wave that moves w onto y
	laCompact // the leader's store compacts
)

var laNames = [...]string{"start", "deliver", "drop", "duplicate", "tick", "deadline", "campaign", "renew", "flush", "clock +TTL",
	"crash", "restart", "heartbeat", "wave onto y", "compact"}

func (a lxAction) String() string {
	switch a.kind {
	case laStart, laClock:
		return laNames[a.kind]
	case laDeliver, laDrop, laDup:
		return laNames[a.kind] + " " + a.frame.String()
	case laCampaign:
		return "campaign of " + string(lxHosts[a.host])
	}
	return laNames[a.kind] + " of " + string(lxHosts[a.host])
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func (x *lxExplorer) leader(w *lxWorld) int8 {
	for i := range w.deps {
		if w.deps[i].alive && w.deps[i].core.leading {
			return int8(i)
		}
	}
	return -1
}

// moves lists every action enabled in w.
func (x *lxExplorer) moves(w *lxWorld) []lxAction {
	var acts []lxAction
	for _, s := range w.net {
		acts = append(acts, lxAction{kind: laDeliver, frame: s.f})
		if w.left.drops > 0 && s.f.kind != lxOutcome { // the wave re-broadcasts its outcome until acked
			acts = append(acts, lxAction{kind: laDrop, frame: s.f})
		}
		if w.left.dups > 0 {
			acts = append(acts, lxAction{kind: laDup, frame: s.f})
		}
	}
	for i := range w.deps {
		d, h := &w.deps[i], int8(i)
		switch {
		case !d.alive:
		case d.core.camp != 0:
			if w.left.ticks > 0 {
				acts = append(acts, lxAction{kind: laTick, host: h})
			}
			acts = append(acts, lxAction{kind: laDeadline, host: h})
		case d.core.leading:
			if w.left.renews > 0 {
				acts = append(acts, lxAction{kind: laRenew, host: h})
			}
			if w.left.flushes > 0 {
				acts = append(acts, lxAction{kind: laFlush, host: h})
			}
			if x.scope.failover && w.left.crashes > 0 && h == lxA {
				acts = append(acts, lxAction{kind: laCrash, host: h})
			}
			if w.left.waves > 0 && (x.scope.stream || !w.deps[1-i].alive) {
				acts = append(acts, lxAction{kind: laWave, host: h})
			}
			if w.left.compacts > 0 && d.tail != "" {
				acts = append(acts, lxAction{kind: laCompact, host: h})
			}
		case w.left.campaigns > 0 && (!x.scope.failover || x.suspects(w, h)):
			acts = append(acts, lxAction{kind: laCampaign, host: h})
		}
	}
	if w.left.clocks > 0 {
		acts = append(acts, lxAction{kind: laClock})
	}
	for a := lxX; a < lxX+3; a++ {
		if w.left.restarts > 0 {
			acts = append(acts, lxAction{kind: laRestart, host: a})
		}
		if w.left.beats > 0 && w.agents[a-lxX].voter.pending {
			acts = append(acts, lxAction{kind: laBeat, host: a})
		}
	}
	return acts
}

// suspects is LeaderSuspect at the lease clock.
func (x *lxExplorer) suspects(w *lxWorld, i int8) bool { return w.deps[i].core.suspect(w.clock) }

func (x *lxExplorer) apply(w *lxWorld, a lxAction) []*lxWorld {
	n := w.clone()
	n.note = ""
	switch a.kind {
	case laDeliver:
		n.take(a.frame)
		return x.deliver(n, a.frame)
	case laDrop:
		n.left.drops--
		n.take(a.frame)
		return []*lxWorld{n}
	case laDup:
		n.left.dups--
		return x.deliver(n, a.frame)
	case laTick:
		n.left.ticks--
		return x.feed(n, a.host, leaseInput{kind: lTick})
	case laDeadline:
		n.cnow = maxTime(n.cnow, n.deps[a.host].core.due)
		return x.feed(n, a.host, leaseInput{kind: lTick})
	case laCampaign:
		n.left.campaigns--
		return x.feed(n, a.host, leaseInput{kind: lCampaign})
	case laRenew:
		n.left.renews--
		return x.feed(n, a.host, leaseInput{kind: lRenew})
	case laFlush:
		n.left.flushes--
		return x.feed(n, a.host, leaseInput{kind: lFlush})
	case laClock:
		n.left.clocks--
		n.clock = n.clock.Add(lxTTL)
	case laCrash:
		return x.crash(n, a.host)
	case laRestart:
		n.left.restarts--
		ag := &n.agents[a.host-lxX]
		*ag = lxAgent{voter: newVoterCore(lxHosts[a.host], "A")}
		if x.scope.failover {
			x.vote(n, a.host, voterInput{kind: vAnnounce})
		}
	case laBeat:
		n.left.beats--
		x.vote(n, a.host, voterInput{kind: vBeat})
	case laWave:
		n.left.waves--
		d := &n.deps[a.host]
		g := &d.table[lxWaveTo-lxX]
		g.gen++
		g.mask |= lxW
		rec := string([]byte{byte(lxWaveTo - lxX), g.gen, g.mask})
		d.log += rec
		d.tail += rec
		n.send(lxFrame{kind: lxOutcome, from: a.host, to: lxWaveTo, term: uint8(d.core.term), gen: g.gen})
	case laCompact:
		n.left.compacts--
		d := &n.deps[a.host]
		d.log, d.base, d.tail = lxLive(d.log), d.pos(), ""
	}
	x.check(n)
	return []*lxWorld{n}
}

// settle runs the re-drivers over a lossless network on a copy of a
// quiescent world — lease clock steps, the leader's renewals and
// replication ticks, heartbeats of agents with an announce pending — and
// returns it once nothing is in flight.
func (x *lxExplorer) settle(w *lxWorld) *lxWorld {
	w = w.clone()
	for round := 0; round < 3; round++ {
		w.clock = w.clock.Add(lxTTL)
		for i := range w.deps {
			if w.deps[i].alive && w.deps[i].core.leading {
				w = x.feed(w, int8(i), leaseInput{kind: lRenew})[0]
				w = x.feed(w, int8(i), leaseInput{kind: lFlush})[0]
			}
		}
		for a := lxX; a < lxX+3; a++ {
			if w.agents[a-lxX].voter.pending {
				x.vote(w, a, voterInput{kind: vBeat})
			}
		}
		for len(w.net) > 0 {
			f := w.net[0].f
			w.take(f)
			w = x.deliver(w, f)[0]
		}
	}
	return w
}

// checkQuiescent asserts convergence once nothing is in flight: after the
// re-drivers ran, every agent's fence is the live leader's term, its
// generation and manifest are the leader's goal for it, and every live
// standby is synced.
func (x *lxExplorer) checkQuiescent(w *lxWorld) {
	if len(w.net) != 0 {
		return
	}
	x.quiescent++
	s := x.settle(w)
	if s.bad != "" {
		w.fail("%s (while settling)", s.bad)
		return
	}
	l := x.leader(s)
	if l < 0 {
		return
	}
	x.checkSynced(s, true)
	if s.bad != "" {
		w.fail("%s", s.bad)
		return
	}
	d := &s.deps[l]
	for i, ag := range s.agents {
		h, g := lxHosts[lxX+int8(i)], d.table[i]
		switch {
		case ag.voter.fence != d.core.term:
			w.fail("settled, but %s's fence is %d under %s's term %d", h, ag.voter.fence, lxHosts[l], d.core.term)
		case ag.voter.pending:
			w.fail("settled, but %s's announce is still pending", h)
		case x.scope.failover && (ag.voter.gen != uint64(g.gen) || ag.manifest != g.mask):
			w.fail("settled, but %s is at generation %d %v, the goal is %d %v", h, ag.voter.gen, lxManifest(ag.manifest), g.gen, lxManifest(g.mask))
		}
	}
}

var lxSeed = maphash.MakeSeed()

// key hashes the canonical encoding of everything that decides w's
// future. An election is symmetric in A and B, so there w and w with the
// two swapped are one state: the smaller encoding is hashed.
func (x *lxExplorer) key(w *lxWorld) uint64 {
	x.enc[0] = x.encode(w, x.enc[0][:0], false)
	k := x.enc[0]
	if !x.scope.failover {
		if x.enc[1] = x.encode(w, x.enc[1][:0], true); bytes.Compare(x.enc[1], k) < 0 {
			k = x.enc[1]
		}
	}
	return maphash.Bytes(lxSeed, k)
}

// encode appends w's canonical encoding to buf, with A and B swapped if
// swap. What no step or property ahead reads is left out: the known
// leader, restart counts, the highest term seen (a live deployer's term),
// a dead deployer (it never restarts), the persisted term once no
// deployer can restart, a finished campaign's grants and deadline, and
// the replication positions of a deployer that does not lead. Times are
// kept relative to their clocks, and clamped where their rules stop
// telling them apart: an expired lease, a leader silent for 4×TTL.
// A change to leaseCore's or voterCore's fields must be mirrored here
// and in lcall or vote.
func (x *lxExplorer) encode(w *lxWorld, buf []byte, swap bool) []byte {
	host := func(i int8) byte {
		if swap && (i == lxA || i == lxB) {
			i = 1 - i
		}
		return byte(i)
	}
	b := w.left
	buf = append(buf, byte(b.drops), byte(b.dups), byte(b.ticks), byte(b.campaigns), byte(b.renews), byte(b.flushes),
		byte(b.clocks), byte(b.crashes), byte(b.restarts), byte(b.beats), byte(b.waves), byte(b.compacts))
	rel := func(t time.Time, floor time.Duration) int64 { return int64(max(t.Sub(w.clock), floor)) }
	cand := func(v int8) byte { // a deployer index+1, 0 for none
		if v == 0 {
			return 0
		}
		return host(v-1) + 1
	}
	for _, g := range w.granted {
		for _, v := range g {
			buf = append(buf, cand(v))
		}
	}
	for _, v := range w.leaders {
		buf = append(buf, cand(v))
	}
	for k := range w.deps {
		d := &w.deps[host(int8(k))]
		c := &d.core
		if !d.alive {
			buf = append(buf, 0xfe)
			continue
		}
		if !x.scope.failover && b.crashes > 0 {
			buf = append(buf, d.stored)
		}
		buf = append(buf, d.replSeq, byte(c.term), byte(b2i(c.leading)), byte(c.camp), byte(c.heardTerm), d.base)
		if c.camp != 0 {
			for _, h := range c.agents {
				buf = append(buf, byte(b2i(c.granted[h])))
			}
			buf = binary.AppendVarint(buf, int64(c.due.Sub(w.cnow)))
		}
		if c.leading {
			for k := range c.acked {
				buf = append(buf, byte(c.acked[k]), byte(c.sent[k]))
			}
		}
		for _, g := range d.table {
			buf = append(buf, g.gen, g.acked, g.mask)
		}
		buf = binary.AppendVarint(buf, rel(c.lastHeard, -4*lxTTL))
		buf = append(buf, byte(len(d.log)))
		buf = append(buf, d.log...)
		buf = append(buf, byte(len(d.tail)))
		buf = append(buf, d.tail...)
	}
	for a, ag := range w.agents {
		v := &ag.voter
		buf = append(buf, ag.manifest, byte(v.fence), host(lxIndex(v.holder)), byte(v.gen), byte(b2i(v.pending)))
		buf = binary.AppendVarint(buf, rel(v.expiry, 0))
		// Which terms this lifetime granted (to whom is w.granted's).
		var terms uint16
		for t, c := range w.granted[a] {
			if _, ok := v.grants[uint64(t)]; c != 0 && ok {
				terms |= 1 << t
			}
		}
		buf = binary.LittleEndian.AppendUint16(buf, terms)
	}
	net := append(x.net[:0], w.net...)
	if swap {
		for i := range net {
			net[i].f.from, net[i].f.to = int8(host(net[i].f.from)), int8(host(net[i].f.to))
		}
		slices.SortFunc(net, func(a, b lxSlot) int { return a.f.compare(b.f) })
	}
	for _, s := range net {
		buf = binary.BigEndian.AppendUint64(buf, s.f.pack())
		buf = append(buf, s.n, byte(len(s.f.recs)))
		buf = append(buf, s.f.recs...)
	}
	x.net = net
	return buf
}

// retire drops from the network every grant its deployer can no longer
// act on: one at or below the deployer's term, other than its campaign's,
// while no restart can bring the term back below it. Its delivery must be
// a no-op now — the explorer checks — and the term never falls, so it
// stays one.
func (x *lxExplorer) retire(w *lxWorld) {
	restart := !x.scope.failover && w.left.crashes > 0
	for k := 0; k < len(w.net); k++ {
		f := w.net[k].f
		if f.kind != lxGrant {
			continue
		}
		d := &w.deps[f.to]
		if t := uint64(f.term); t > d.core.term || t == d.core.camp || restart && f.term > d.stored {
			continue
		}
		n := w.clone()
		n.net = slices.Delete(n.net, k, k+1)
		x.enc[1] = x.encode(n, x.enc[1][:0], false)
		if got := x.deliver(n, f); len(got) != 1 || got[0].bad != "" || !bytes.Equal(x.encode(got[0], x.enc[0][:0], false), x.enc[1]) {
			continue
		}
		w.net = slices.Delete(w.net, k, k+1)
		k--
	}
}

type lxNode struct {
	parent int32
	act    lxAction
	note   string
}

// explore walks the scope breadth first. It stops at the first broken
// property, leaving the shortest trace to it in x.trace, or after every
// reachable state (or maxStates of them) was visited.
func (x *lxExplorer) explore(maxStates int) bool {
	seen := make(map[uint64]struct{})
	var nodes []lxNode
	type item struct {
		w  *lxWorld
		id int32
	}
	var frontier []item
	visit := func(w *lxWorld, parent int32, act lxAction) bool {
		x.retire(w)
		k := x.key(w)
		if _, dup := seen[k]; dup {
			if w.bad == "" {
				return true
			}
		} else {
			seen[k] = struct{}{}
			x.checkQuiescent(w)
		}
		nodes = append(nodes, lxNode{parent: parent, act: act, note: w.note})
		id := int32(len(nodes) - 1)
		if w.bad != "" {
			x.trace = x.traceTo(nodes, id, w.bad)
			return false
		}
		frontier = append(frontier, item{w, id})
		return true
	}
	for _, w := range x.initial() {
		if !visit(w, -1, lxAction{kind: laStart}) {
			x.states = len(nodes)
			return false
		}
	}
	for len(frontier) > 0 && len(nodes) < maxStates {
		x.depth++
		level := frontier
		frontier = nil
		for i, it := range level {
			level[i].w = nil // expanded: only its children are needed
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

func (x *lxExplorer) traceTo(nodes []lxNode, id int32, bad string) []string {
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

func (x *lxExplorer) report(t *testing.T) {
	t.Helper()
	t.Logf("%s: %d states, %d quiescent, depth %d", x.scope.name, x.states, x.quiescent, x.depth)
	if x.trace != nil {
		t.Errorf("property broken after %d steps:\n  %s", len(x.trace)-1, strings.Join(x.trace, "\n  "))
	}
}

// lxScopes are tier-1's walks; the budgets keep each exhaustive and the
// three under half a minute together.
func lxScopes() []lxScope {
	return []lxScope{
		{name: "election: A and B from term 0, one crash", left: lxBudget{crashes: 1, drops: 1}},
		{name: "failover + resync: A crashes, B takes over, an agent restarts, a wave", failover: true, left: lxBudget{
			crashes: 1, clocks: 2, campaigns: 1, restarts: 1, beats: 1, waves: 1, drops: 1}},
		{name: "stream: A leads, B stands by, two waves, a compaction between flushes", failover: true, stream: true, left: lxBudget{
			waves: 2, compacts: 1, flushes: 3, drops: 1, dups: 1}},
	}
}

const (
	leaseExploreFloor = 100_000
	leaseExploreLimit = 3_000_000
)

// TestLeaseExplore walks every interleaving of each scope within its
// budgets and checks, at every state, that no term is granted to two
// candidates or led by two deployers, that every deployer's term is 0 or
// one some agent granted, that no term or fence falls, that
// no agent applies a frame below its fence, and that an ack at the
// current generation carries the goal manifest; at every quiescent state
// it checks that the re-drivers converge every agent to the live
// leader's term, goal generation and manifest.
func TestLeaseExplore(t *testing.T) {
	start := time.Now()
	total := 0
	for _, s := range lxScopes() {
		x := newLeaseExplorer(s, (*leaseCore).step, (*voterCore).step)
		ok := x.explore(leaseExploreLimit)
		x.report(t)
		if !ok {
			return
		}
		if x.quiescent == 0 {
			t.Errorf("%s: no quiescent state reached, convergence never checked", s.name)
		}
		total += x.states
	}
	if total < leaseExploreFloor {
		t.Errorf("explored %d states, want at least %d", total, leaseExploreFloor)
	}
	t.Logf("%d states in %v", total, time.Since(start))
}

// TestLeaseExploreAgentRestartSplitsTerm pins a known defect (ROADMAP,
// "Known defects"): an agent's grant log dies with its lifetime, so a
// restarted agent grants a term it already granted to another candidate,
// and two deployers can lead that term. The explorer must find it.
func TestLeaseExploreAgentRestartSplitsTerm(t *testing.T) {
	s := lxScope{name: "election with one agent restart", left: lxBudget{restarts: 1}}
	x := newLeaseExplorer(s, (*leaseCore).step, (*voterCore).step)
	if x.explore(leaseExploreLimit) {
		t.Fatalf("the split term went unfound in %d states", x.states)
	}
	if got := x.trace[len(x.trace)-1]; !strings.Contains(got, "granted term 1 to two candidates") {
		t.Fatalf("found another property broken:\n  %s", strings.Join(x.trace, "\n  "))
	}
	t.Logf("found after %d steps (%d states):\n  %s", len(x.trace)-1, x.states, strings.Join(x.trace, "\n  "))
}

// The mutants wrap the real steps; each must break a property, and BFS
// reports the shortest way there.

// grantEqualTermToOther grants an equal term to a candidate that does not
// hold it.
func grantEqualTermToOther(v *voterCore, in voterInput) []voterOutput {
	if in.kind == vLease && in.req.Term != 0 && in.req.Term == v.fence {
		v.holder = in.req.Candidate
	}
	return v.step(in)
}

// fenceAcceptsLower lets a frame below the fence through.
func fenceAcceptsLower(v *voterCore, in voterInput) []voterOutput {
	term := in.term
	if in.kind == vDelta {
		term = in.delta.Term
	}
	if (in.kind == vFrame || in.kind == vDelta) && term != 0 && term < v.fence {
		v.fence = term
	}
	return v.step(in)
}

// winOneGrantShort forges the last grant a campaign needs.
func winOneGrantShort(c *leaseCore, in leaseInput) []leaseOutput {
	out := c.step(in)
	if in.kind != lGrant || c.camp == 0 || len(c.granted) != c.quorum()-1 {
		return out
	}
	i := slices.IndexFunc(c.agents, func(h model.HostID) bool { return !c.granted[h] })
	return append(out, c.step(leaseInput{kind: lGrant, grant: LeaseGrant{Host: c.agents[i], Term: c.camp, Granted: true}})...)
}

// campaignBumpsTerm adopts and appends the campaign's term before any
// agent granted it.
func campaignBumpsTerm(c *leaseCore, in leaseInput) []leaseOutput {
	out := c.step(in)
	if in.kind != lCampaign || c.camp == 0 {
		return out
	}
	c.term = c.camp
	return append([]leaseOutput{{kind: lAppend, term: c.term}}, out...)
}

// offerAcrossBase hydrates only a peer that holds nothing: one that a
// compaction left below the base gets the tail, as if it followed its
// position, and the records folded into the base never reach it.
func offerAcrossBase(after, base uint64, tail []ReplRecord, live func() []ReplRecord) (uint64, bool, []ReplRecord) {
	if 0 < after && after < base {
		return after + 1, false, tail
	}
	return offerAfter(after, base, tail, live)
}

func TestLeaseExploreMutants(t *testing.T) {
	scopes := lxScopes()
	for _, m := range []struct {
		name  string
		scope lxScope
		lstep func(*leaseCore, leaseInput) []leaseOutput
		vstep func(*voterCore, voterInput) []voterOutput
		offer func(after, base uint64, tail []ReplRecord, live func() []ReplRecord) (uint64, bool, []ReplRecord)
		want  string
	}{
		{"an equal-term grant to a non-holder", scopes[0], (*leaseCore).step, grantEqualTermToOther, offerAfter, "to two candidates"},
		{"a fence that accepts a lower term", scopes[1], (*leaseCore).step, fenceAcceptsLower, offerAfter, "fence"},
		{"a campaign won one grant short of a quorum", scopes[0], winOneGrantShort, (*voterCore).step, offerAfter, "two deployers lead"},
		{"a suffix offered across the base", scopes[2], (*leaseCore).step, (*voterCore).step, offerAcrossBase, "settled, but A reports B synced=false"},
		{"a campaign that bumps its term before a grant", scopes[0], campaignBumpsTerm, (*voterCore).step, offerAfter, "which no agent granted"},
	} {
		t.Run(m.name, func(t *testing.T) {
			x := newLeaseExplorer(m.scope, m.lstep, m.vstep)
			x.offer = m.offer
			if x.explore(leaseExploreLimit) {
				t.Fatalf("mutant survived %d states", x.states)
			}
			if got := x.trace[len(x.trace)-1]; !strings.Contains(got, m.want) {
				t.Fatalf("mutant broke the wrong property:\n  %s", strings.Join(x.trace, "\n  "))
			}
			t.Logf("caught after %d steps (%d states):\n  %s", len(x.trace)-1, x.states, strings.Join(x.trace, "\n  "))
		})
	}
}
