package prism

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dif/internal/model"
)

// waveCore is the coordinator side of one two-phase wave as a pure state
// machine. It advances only through step, reads no clock (time arrives as
// waveInput.now), and neither sends nor writes: it returns outputs for
// the shell in deployer.go to perform in order, and learns that a record
// is durable only from the inCheckpoint input fed back after each append.
// Enact and Resume drive waves through that one shell;
// wave_explore_test.go drives step through every interleaving of a small
// wave. DESIGN.md ("Two-phase migration") has the transition table.
type waveCore struct {
	epoch int
	self  model.HostID // this deployer: the outcome's ReplyTo, the mediator
	// coordinator is the name participants keyed the wave by; only a
	// standby resuming a dead leader's wave has coordinator != self.
	coordinator model.HostID
	moves       map[string]model.HostID
	comps       []string       // moving components, sorted
	parts       []model.HostID // sources and destinations, sorted
	cmds        []Event        // per participant: its reconfig, if a destination
	timeout     time.Duration
	ackTimeout  time.Duration
	// resume marks a wave whose phase one ran in a dead lifetime;
	// inherited, that its decision was durable then.
	resume, inherited bool

	term      uint64
	stage     waveStage
	appending byte // the lead record of the write whose result the wave awaits
	// waiting marks, per participant, the answer outstanding: a done
	// report in phase one, an outcome ack in phase two.
	waiting  []bool
	dead     []bool
	mediated []waveOutput // per component: the last leg forwarded
	deadHost model.HostID // the first participant declared dead
	decided  bool         // the decision is durable
	commit   bool
	gens     map[model.HostID]uint64
	outcome  Event
	deadline time.Time
	res      EnactResult
	err      error
}

type waveStage int

const (
	stageNew waveStage = iota
	stageAppending
	stagePreparing  // phase one
	stageAnnouncing // phase two
	stageFinished
)

type waveInputKind int

const (
	inStart waveInputKind = iota
	inCheckpoint
	inDone
	inAck
	inMediated
	inTick // time passed: re-drive, or expire the deadline
	inDead
	inDeposed
	inClosed
)

type waveInput struct {
	kind  waveInputKind
	epoch int // the wave it names; zero names every wave of the shell
	now   time.Time
	host  model.HostID // done, ack, dead
	// dead lists the participants the failure detector holds dead, with
	// start and every checkpoint result: the wave neither dispatches to
	// them nor awaits their ack.
	dead []model.HostID
	done DoneReport
	// leg is a fetch or transfer between two hosts that are not directly
	// connected, for the coordinator to forward; comp is its component.
	leg  waveOutput
	comp string
	err  error                   // checkpoint
	gens map[model.HostID]uint64 // checkpoint of the goal fold
	term uint64                  // deposed: the term that deposed us
}

type waveOutputKind int

const (
	outSend waveOutputKind = iota
	outAppend
	outBegin // a span begins, inside the innermost open one
	outEnd   // the innermost open span ends
	outFinish
)

type waveOutput struct {
	kind  waveOutputKind
	to    model.HostID
	ev    Event
	retry bool // a re-drive toward a host that has not answered
	// recs are the records one write carries, in order; RecGoalState
	// folds the committed moves into the goal table.
	recs   []byte
	commit bool
	phase  string
	attrs  []string // span attributes: key, value, key, value...
}

// enactWave builds a fresh wave: every component whose destination
// differs from its current host moves. nextGen is each destination's goal
// generation should the wave commit.
func enactWave(epoch int, self model.HostID, term uint64, moves, current map[string]model.HostID,
	nextGen map[model.HostID]uint64, timeout, ackTimeout time.Duration) (*waveCore, error) {
	c := &waveCore{
		epoch: epoch, self: self, coordinator: self, term: term, moves: moves,
		timeout: timeout, ackTimeout: ackTimeout, res: EnactResult{Epoch: epoch},
	}
	arrivals := make(map[model.HostID]map[string]model.HostID)
	for comp, dst := range moves {
		src, ok := current[comp]
		if !ok {
			return nil, fmt.Errorf("enact: unknown current host for component %s", comp)
		}
		if src != dst {
			if arrivals[dst] == nil {
				arrivals[dst] = make(map[string]model.HostID)
			}
			arrivals[dst][comp] = src
			c.comps = append(c.comps, comp)
			c.parts = append(c.parts, src, dst)
		}
	}
	slices.Sort(c.comps)
	sortHostIDs(c.parts)
	c.parts = slices.Compact(c.parts)
	c.res.Moved = len(c.comps)
	c.mediated = make([]waveOutput, len(c.comps))
	c.cmds, c.waiting, c.dead = make([]Event, len(c.parts)), make([]bool, len(c.parts)), make([]bool, len(c.parts))
	for i, p := range c.parts {
		if arrivals[p] != nil {
			c.cmds[i] = Event{Name: EvReconfig, Target: AdminID, SizeKB: 1, Payload: ReconfigCommand{
				Epoch: epoch, Arrivals: arrivals[p], Coordinator: self, Term: term, Gen: nextGen[p],
			}}
			c.waiting[i] = true
		}
	}
	return c, nil
}

// resumeWave builds phase two of a wave a dead lifetime opened, from its
// durable records: a decided wave re-announces its decision, an
// undecided one is aborted. Nothing is re-planned or re-dispatched.
func resumeWave(wv DurableWave, self model.HostID, term uint64, ackTimeout time.Duration) *waveCore {
	parts := slices.Clone(wv.Participants)
	sortHostIDs(parts)
	return &waveCore{
		epoch: wv.Epoch, self: self, coordinator: cmp.Or(wv.Coordinator, self), term: term,
		moves: wv.Moves, parts: parts, ackTimeout: ackTimeout, resume: true, inherited: wv.Decided,
		decided: wv.Decided, commit: wv.Decided && wv.Commit, res: EnactResult{Epoch: wv.Epoch},
		waiting: make([]bool, len(parts)), dead: make([]bool, len(parts)),
	}
}

func (c *waveCore) finished() bool  { return c.stage == stageFinished }
func (c *waveCore) committed() bool { return c.decided && c.commit }

// step advances the wave by one input and returns what the shell must do,
// in order. An append is always the last output: the shell feeds its
// result back before any other input.
func (c *waveCore) step(in waveInput) []waveOutput {
	for _, h := range in.dead {
		c.noteDead(h) // never in phase one, so it emits nothing
	}
	phaseOne := c.stage == stagePreparing
	switch {
	case in.kind == inDead:
		return c.noteDead(in.host)
	case in.kind == inStart && c.stage == stageNew:
		return c.start(in.now)
	case in.kind == inCheckpoint && c.stage == stageAppending:
		return c.checkpointed(in)
	case !phaseOne && c.stage != stageAnnouncing:
	case in.kind == inDone && phaseOne, in.kind == inAck && !phaseOne:
		return c.answered(in)
	case in.kind == inMediated && phaseOne:
		i := slices.Index(c.comps, in.comp)
		if i < 0 {
			return nil
		}
		if in.leg.ev.Name == EvTransfer || c.mediated[i].ev.Name != EvTransfer { // a transfer supersedes its fetch
			c.mediated[i] = in.leg
		}
		return []waveOutput{in.leg}
	case in.kind == inTick && !in.now.Before(c.deadline):
		return c.expire("timeout")
	case in.kind == inTick:
		return c.resend(true)
	case in.kind == inDeposed:
		// Every agent fences our frames now: nothing we wait for will come.
		c.term = in.term
		return c.expire("fenced")
	case in.kind == inClosed:
		return c.expire("closed")
	}
	return nil
}

// appendRec asks for one write of recs, in order; the first leads.
func (c *waveCore) appendRec(recs ...byte) []waveOutput {
	c.stage, c.appending = stageAppending, recs[0]
	return []waveOutput{{kind: outAppend, recs: recs, commit: c.commit}}
}

func (c *waveCore) start(now time.Time) []waveOutput {
	switch {
	case !c.resume:
		// The wave's identity is durable before the first command goes out.
		return append([]waveOutput{
			{kind: outBegin, phase: "wave", attrs: []string{"epoch", fmt.Sprint(c.epoch), "moves", fmt.Sprint(c.res.Moved)}},
			{kind: outBegin, phase: "prepare"},
		}, c.appendRec(RecEpochOpen)...)
	case !c.decided:
		// The durable rule holds on resume too: the abort is persisted first.
		return c.decide(false)
	case c.commit:
		// Re-fold the committed moves into the goal table before the
		// broadcast: idempotent, it heals a crash that kept the decision
		// but lost the goal records behind it.
		return c.appendRec(RecGoalState)
	}
	return c.startOutcome(now)
}

func (c *waveCore) checkpointed(in waveInput) []waveOutput {
	if in.err != nil && c.appending != RecEpochClosed {
		// A failed checkpoint IS a crash at this transition: no outcome
		// goes out, and an opened epoch is left to the restart path.
		c.res.Degraded = true
		switch {
		case c.appending == RecEpochOpen:
			c.err = fmt.Errorf("enact epoch %d: open checkpoint failed (wave not started): %w", c.epoch, in.err)
			return append([]waveOutput{endPhase("checkpoint_failed")}, c.finish("abort")...)
		case c.resume:
			c.err = fmt.Errorf("resume epoch %d: abort checkpoint: %w", c.epoch, in.err)
			return c.finish("")
		}
		c.err = fmt.Errorf("enact epoch %d: decision checkpoint failed (%v); outcome deferred to restart", c.epoch, in.err)
		out := []waveOutput{{kind: outBegin, phase: "outcome", attrs: []string{"decision", "deferred"}}, {kind: outEnd}}
		return append(out, c.finish("crash")...)
	}
	switch c.appending {
	case RecEpochOpen:
		c.stage = stagePreparing
		if c.deadHost != "" {
			// A participant is already dead: abort before the first
			// dispatch rather than have live sources detach to re-attach.
			return c.endPrepare("dead_abort")
		}
		c.deadline = in.now.Add(c.timeout)
		return c.resend(false)
	case RecEpochDecided, RecGoalState:
		// A committed wave IS a goal-state transition: the outcome
		// publishes the generations the fold reached.
		c.decided, c.gens = true, in.gens
	case RecEpochClosed:
		return c.finish("") // a failure only costs a re-broadcast after a restart
	}
	return c.startOutcome(in.now)
}

// answered takes a done report (phase one) or an outcome ack (phase two);
// the last one outstanding ends the phase.
func (c *waveCore) answered(in waveInput) []waveOutput {
	i := slices.Index(c.parts, in.host)
	if i < 0 || !c.waiting[i] {
		return nil
	}
	c.waiting[i] = false
	c.res.Received += in.done.Received
	switch {
	case slices.Contains(c.waiting, true):
		return nil
	case c.stage == stagePreparing:
		return c.endPrepare("done")
	}
	return c.closeEpoch()
}

// resend sends what is unanswered: the reconfig to each pending
// destination — on a re-drive its admin re-reports done, or re-fetches
// what is missing — with every leg mediated toward it, or the outcome to
// each unacked participant.
func (c *waveCore) resend(retry bool) []waveOutput {
	var out []waveOutput
	for i, p := range c.parts {
		switch {
		case !c.waiting[i]:
		case c.stage == stageAnnouncing:
			out = append(out, waveOutput{kind: outSend, to: p, ev: c.outcome, retry: retry})
		default:
			out = append(out, waveOutput{kind: outSend, to: p, ev: c.cmds[i], retry: retry})
			for j, comp := range c.comps {
				if c.moves[comp] == p && c.mediated[j].to != "" {
					out = append(out, c.mediated[j])
				}
			}
		}
	}
	return out
}

// expire ends phase one without a commit, or phase two without waiting
// further: a new leader, or a restart, re-announces the durable outcome.
func (c *waveCore) expire(why string) []waveOutput {
	if c.stage == stagePreparing {
		return c.endPrepare(why)
	}
	return c.finish("")
}

// endPrepare ends phase one and decides: commit when every destination
// reported done, abort otherwise.
func (c *waveCore) endPrepare(why string) []waveOutput {
	for i, p := range c.parts {
		if c.waiting[i] {
			c.res.Incomplete = append(c.res.Incomplete, p)
		}
	}
	switch why {
	case "closed":
		c.err = fmt.Errorf("enact epoch %d: deployer closed mid-wave (wave rolled back)", c.epoch)
	case "dead_abort":
		c.err = fmt.Errorf("enact epoch %d: participant %s died mid-wave (wave rolled back)", c.epoch, c.deadHost)
	case "fenced":
		c.err = fmt.Errorf("enact epoch %d: leadership lost at term %d (wave fenced and rolled back)", c.epoch, c.term)
	case "timeout":
		c.err = fmt.Errorf("enact epoch %d: %d hosts incomplete after %v (wave rolled back)",
			c.epoch, len(c.res.Incomplete), c.timeout)
	}
	out := []waveOutput{endPhase(why)}
	if why == "dead_abort" {
		out[0].attrs = append(out[0].attrs, "dead", string(c.deadHost))
	}
	if why == "closed" {
		// Shutting down: one best-effort abort, never awaited. Unpersisted
		// by design — the epoch stays undecided in the log, and a restart
		// can only abort it, never contradict this.
		out = append(out, c.beginOutcome()...)
		return append(out, c.finish("")...)
	}
	return append(out, c.decide(why == "done")...)
}

// decide makes the decision durable in one write: a commit's goal fold
// rides behind its decided record.
func (c *waveCore) decide(commit bool) []waveOutput {
	if c.commit = commit; commit {
		return c.appendRec(RecEpochDecided, RecGoalState)
	}
	return c.appendRec(RecEpochDecided)
}

// startOutcome begins phase two: the durable outcome is re-sent until
// every live participant acknowledges or the ack budget runs out.
func (c *waveCore) startOutcome(now time.Time) []waveOutput {
	out := c.beginOutcome()
	c.deadline = now.Add(c.ackTimeout)
	if !slices.Contains(c.waiting, true) {
		return append(out, c.closeEpoch()...)
	}
	return out
}

// closeEpoch ends the epoch in one write: the soft-state snapshot rides
// behind its closed record.
func (c *waveCore) closeEpoch() []waveOutput { return c.appendRec(RecEpochClosed, RecSnapshot) }

// beginOutcome opens the outcome span and sends the outcome to every
// participant not known dead.
func (c *waveCore) beginOutcome() []waveOutput {
	c.stage = stageAnnouncing
	decision := "rollback"
	if c.commit {
		decision = "commit"
	}
	begin := waveOutput{kind: outBegin, phase: "outcome", attrs: []string{"decision", decision}}
	if c.resume {
		begin = waveOutput{kind: outBegin, phase: "wave_resume",
			attrs: []string{"epoch", fmt.Sprint(c.epoch), "decision", decision, "resumed", fmt.Sprint(c.inherited)}}
	}
	wo := WaveOutcome{Epoch: c.epoch, Coordinator: c.coordinator, Commit: c.commit, Term: c.term, ReplyTo: c.self}
	if c.commit {
		wo.Gens = c.gens // aborted waves never advance a generation
	}
	c.outcome = Event{Name: EvOutcome, Target: AdminID, SizeKB: 0.3, Payload: wo}
	for i := range c.parts {
		c.waiting[i] = !c.dead[i]
	}
	return append([]waveOutput{begin}, c.resend(false)...)
}

// noteDead records a death verdict. In phase one it is an abort vote
// only: whether the outcome goes to the host is the detector's call when
// the outcome is sent (waveInput.dead). Otherwise the host is dead to the
// wave, and in phase two its acknowledgement is waived.
func (c *waveCore) noteDead(h model.HostID) []waveOutput {
	i := slices.Index(c.parts, h)
	if i < 0 || c.dead[i] {
		return nil
	}
	if c.deadHost = cmp.Or(c.deadHost, h); c.stage == stagePreparing {
		return c.endPrepare("dead_abort")
	}
	if c.dead[i] = true; c.stage == stageAnnouncing {
		return c.answered(waveInput{host: h})
	}
	return nil
}

// finish settles the result and ends the open spans; verdict overrides
// the wave span's commit/abort outcome.
func (c *waveCore) finish(verdict string) []waveOutput {
	var out []waveOutput
	if c.stage == stageAnnouncing || c.appending == RecEpochClosed {
		out = append(out, waveOutput{kind: outEnd})
	}
	if verdict == "" {
		verdict = map[bool]string{true: "commit", false: "abort"}[c.committed()]
	}
	if !c.resume {
		out = append(out, endPhase(verdict))
	}
	c.stage = stageFinished
	c.res.Committed = c.committed()
	c.res.Degraded = c.res.Degraded || c.res.Received != c.res.Moved || len(c.res.Incomplete) > 0
	return append(out, waveOutput{kind: outFinish})
}

func endPhase(outcome string) waveOutput {
	return waveOutput{kind: outEnd, attrs: []string{"outcome", outcome}}
}

// waveKey names a wave at a participant: every deployer numbers its own
// waves, so the epoch is scoped by the coordinator the wave is keyed by.
type waveKey struct {
	coord model.HostID
	epoch int
}

// partCore is the participant side of the two-phase wave as a pure state
// machine. Like waveCore it reads no clock, sends nothing and never
// touches the architecture: the admin performs its outputs and feeds back
// how a detach or a reconstitution went. The admin and
// wave_explore_test.go both drive it through participate. DESIGN.md
// ("Two-phase migration") has the transition table.
type partCore struct {
	self     model.HostID
	deployer model.HostID // the coordinator of a frame that names none
	open     map[waveKey]*partWave
	// settled holds, per coordinator, the epochs whose outcome this host
	// applied (epochs start at 1): a floor, plus one span per run of
	// waves it sat out.
	settled map[model.HostID]*dedupWindow
}

// partWave is one open wave at a participant.
type partWave struct {
	// arrivals (component → source) come with the reconfig; nil until it
	// arrives, which a pure source never sees. Never mutated once set.
	arrivals map[string]model.HostID
	arrived  []string // arrivals reconstituted here
	done     bool     // done was reported
	departs  []*preparedComp
}

// preparedComp is a departure detached and serialized in phase one: the
// live instance (the core carries it and never calls it), its welds, the
// requester, and the payload, cached so a duplicate fetch is answered
// again.
type preparedComp struct {
	id        string
	comp      Migratable
	welds     []string
	requester model.HostID
	shipped   TransferPayload
}

type partInputKind int

const (
	pReconfig partInputKind = iota // fenced
	pFetch
	pPrepared // req.Comp detached: prep, ok unless its snapshot failed
	pTransfer
	pRestored // tp reconstituted: ok if it attached
	pOutcome  // fenced
)

type partInput struct {
	kind     partInputKind
	accepted bool // reconfig, outcome: the voter's fence let the frame through
	cmd      ReconfigCommand
	req      FetchRequest    // fetch, prepared
	prep     *preparedComp   // prepared
	tp       TransferPayload // transfer, restored
	ok       bool            // prepared, restored
	out      WaveOutcome
}

type partOutputKind int

const (
	pSend    partOutputKind = iota // ev to to
	pLeg                           // a fetch or transfer to to, mediated by coord when to is no peer
	pHold                          // buffer comp's traffic until it attaches
	pDetach                        // detach and snapshot req.Comp, then feed pPrepared
	pRestore                       // reconstitute tp, held, then feed pRestored
	pCommit                        // wave: drop and relay its departures, release its arrivals
	pAbort                         // wave: re-attach its departures, evict what arrived, bounce the arrivals' traffic
	pGens                          // a commit's generations, for the voter
)

type partOutput struct {
	kind  partOutputKind
	to    model.HostID // send, leg; commit, abort: the bounce authority
	coord model.HostID // leg
	ev    Event
	comp  string // hold
	req   FetchRequest
	tp    TransferPayload
	wave  *partWave // commit, abort
	gens  map[model.HostID]uint64
}

func newPartCore(self, deployer model.HostID) partCore {
	return partCore{self: self, deployer: deployer,
		open: make(map[waveKey]*partWave), settled: make(map[model.HostID]*dedupWindow)}
}

// key names the wave a frame belongs to; an empty coordinator is the
// configured deployer (the centralized master).
func (p *partCore) key(coord model.HostID, epoch int) waveKey {
	return waveKey{cmp.Or(coord, p.deployer), epoch}
}

// isSettled reports whether this host applied the wave's outcome.
func (p *partCore) isSettled(k waveKey) bool {
	w := p.settled[k.coord]
	return w != nil && w.has(uint64(k.epoch))
}

// participate feeds one wave input to an agent. A reconfig or an outcome
// first passes the voter's fence, with its term and the coordinator it
// answers to, and the verdict rides into step; a commit's generations go
// to the voter. The admin and the wave explorer both call it.
func participate(v *voterCore, p *partCore, in partInput, step func(*partCore, partInput) []partOutput) (vouts []voterOutput, outs []partOutput) {
	switch in.kind {
	case pReconfig:
		vouts = v.step(voterInput{kind: vFrame, term: in.cmd.Term, origin: cmp.Or(in.cmd.Coordinator, p.deployer)})
	case pOutcome:
		vouts = v.step(voterInput{kind: vFrame, term: in.out.Term, origin: cmp.Or(in.out.ReplyTo, in.out.Coordinator, p.deployer)})
	}
	in.accepted = len(vouts) == 1 && vouts[0].kind == vAccept
	for _, o := range step(p, in) {
		if o.kind == pGens {
			vouts = append(vouts, v.step(voterInput{kind: vGens, gens: o.gens})...)
		} else {
			outs = append(outs, o)
		}
	}
	return vouts, outs
}

func (p *partCore) step(in partInput) []partOutput {
	switch in.kind {
	case pReconfig:
		if in.accepted {
			return p.reconfig(in.cmd)
		}
	case pFetch:
		k := p.key(in.req.Coordinator, in.req.Epoch)
		if p.isSettled(k) {
			return nil // never re-detach for a settled wave
		}
		if w := p.open[k]; w != nil {
			if i := slices.IndexFunc(w.departs, func(d *preparedComp) bool { return d.id == in.req.Comp }); i >= 0 {
				return []partOutput{ship(k, w.departs[i])} // a duplicate: the cached payload again
			}
		}
		in.req.Coordinator = k.coord
		return []partOutput{{kind: pDetach, req: in.req}}
	case pPrepared:
		k := p.key(in.req.Coordinator, in.req.Epoch)
		if !in.ok || p.isSettled(k) {
			// The snapshot failed, or the wave settled meanwhile: it stays.
			return []partOutput{{kind: pAbort, wave: &partWave{departs: []*preparedComp{in.prep}}}}
		}
		w := p.open[k]
		if w == nil {
			w = &partWave{}
			p.open[k] = w
		}
		w.departs = append(w.departs, in.prep)
		return []partOutput{ship(k, in.prep)}
	case pTransfer:
		// A transfer answers this host's own fetch, which followed its own
		// reconfig in this lifetime. One with no arrival recorded here (the
		// host restarted after the fetch) is dropped: reconstituted, it
		// would come up unheld beside its source. So is a duplicate, and
		// one for a settled wave (its record is gone).
		w := p.open[p.key(in.tp.Coordinator, in.tp.Epoch)]
		if w == nil || w.arrivals[in.tp.Comp] == "" || slices.Contains(w.arrived, in.tp.Comp) {
			return nil
		}
		return []partOutput{{kind: pRestore, tp: in.tp}}
	case pRestored:
		k := p.key(in.tp.Coordinator, in.tp.Epoch)
		w := p.open[k]
		switch {
		case !in.ok:
		case w == nil:
			// The wave settled while the component was reconstituted.
			return []partOutput{{kind: pAbort, to: k.coord, wave: &partWave{
				arrivals: map[string]model.HostID{in.tp.Comp: in.tp.Source}, arrived: []string{in.tp.Comp}}}}
		case !slices.Contains(w.arrived, in.tp.Comp):
			w.arrived = append(w.arrived, in.tp.Comp)
			return p.progress(k, w)
		}
	case pOutcome:
		if in.accepted {
			return p.outcome(in.out)
		}
	}
	return nil
}

// reconfig opens the wave's arrivals: hold their traffic and fetch them.
// A repeat (a re-dispatch, or a duplicate frame) re-reports done, in case
// the report was lost, or fetches again what is still missing.
func (p *partCore) reconfig(cmd ReconfigCommand) []partOutput {
	k := p.key(cmd.Coordinator, cmd.Epoch)
	if p.isSettled(k) {
		return nil
	}
	w := p.open[k]
	switch {
	case w == nil:
		w = &partWave{}
		p.open[k] = w
	case w.arrivals != nil && w.done:
		return []partOutput{p.doneReport(k, w)}
	case w.arrivals != nil:
		return p.fetches(k, w)
	}
	w.arrivals = make(map[string]model.HostID, len(cmd.Arrivals))
	var out []partOutput
	for comp, src := range cmd.Arrivals {
		w.arrivals[comp] = src
		out = append(out, partOutput{kind: pHold, comp: comp})
	}
	out = append(out, p.fetches(k, w)...)
	return append(out, p.progress(k, w)...)
}

// fetches asks each source for the arrivals still missing.
func (p *partCore) fetches(k waveKey, w *partWave) []partOutput {
	var out []partOutput
	for comp, src := range w.arrivals {
		if !slices.Contains(w.arrived, comp) {
			out = append(out, partOutput{kind: pLeg, to: src, coord: k.coord, ev: Event{Name: EvFetch, Target: AdminID, SizeKB: 0.5,
				Payload: FetchRequest{Epoch: k.epoch, Coordinator: k.coord, Comp: comp, Requester: p.self, Source: src}}})
		}
	}
	return out
}

// ship sends a departure's payload to its requester.
func ship(k waveKey, d *preparedComp) partOutput {
	return partOutput{kind: pLeg, to: d.requester, coord: k.coord,
		ev: Event{Name: EvTransfer, Target: AdminID, Payload: d.shipped, SizeKB: d.shipped.SizeKB}}
}

// progress reports done once every arrival is in.
func (p *partCore) progress(k waveKey, w *partWave) []partOutput {
	if w.done || len(w.arrived) < len(w.arrivals) {
		return nil
	}
	w.done = true
	return []partOutput{p.doneReport(k, w)}
}

func (p *partCore) doneReport(k waveKey, w *partWave) partOutput {
	return partOutput{kind: pSend, to: k.coord, ev: Event{Name: EvDone, Target: DeployerID, SizeKB: 0.5,
		Payload: DoneReport{Epoch: k.epoch, Host: p.self, Received: len(w.arrived)}}}
}

// outcome settles the wave the first time it arrives — outcomes are
// re-sent until acked, and links duplicate them — and acknowledges it
// every time, since a lost ack means the coordinator asks again. The
// wave is keyed by its original coordinator; the ack and the bounce
// authority go to the live leader when a failover resumed it.
func (p *partCore) outcome(wo WaveOutcome) []partOutput {
	k := p.key(wo.Coordinator, wo.Epoch)
	authority := cmp.Or(wo.ReplyTo, k.coord)
	var out []partOutput
	if !p.isSettled(k) {
		if w := p.open[k]; w != nil {
			kind := pAbort
			if wo.Commit {
				kind = pCommit
			}
			out = append(out, partOutput{kind: kind, to: authority, wave: w})
			delete(p.open, k)
		}
		win := p.settled[k.coord]
		if win == nil {
			win = &dedupWindow{}
			p.settled[k.coord] = win
		}
		win.observe(uint64(k.epoch))
	}
	if wo.Commit {
		out = append(out, partOutput{kind: pGens, gens: wo.Gens})
	}
	return append(out, partOutput{kind: pSend, to: authority, ev: Event{Name: EvOutcomeAck, Target: DeployerID, SizeKB: 0.2,
		Payload: OutcomeAck{Epoch: wo.Epoch, Host: p.self}}})
}
