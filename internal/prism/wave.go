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
	appending byte // the record whose result the wave awaits
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
	// rec is the record to append; RecGoalState folds the committed moves
	// into the goal table.
	rec    byte
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

func (c *waveCore) appendRec(rec byte) []waveOutput {
	c.stage, c.appending = stageAppending, rec
	return []waveOutput{{kind: outAppend, rec: rec, commit: c.commit}}
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
		return c.appendRec(RecEpochDecided)
	case c.commit:
		// Re-fold the committed moves into the goal table before the
		// broadcast: idempotent, it heals a crash between the decision and
		// the goal records.
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
	case RecEpochPrepared:
		return c.appendRec(RecEpochDecided)
	case RecEpochDecided:
		if c.decided = true; c.commit {
			// A committed wave IS a goal-state transition: the outcome
			// publishes the generations the fold reaches.
			return c.appendRec(RecGoalState)
		}
	case RecGoalState:
		c.gens = in.gens
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
	c.res.Relayed += in.done.Relayed
	switch {
	case slices.Contains(c.waiting, true):
		return nil
	case c.stage == stagePreparing:
		return c.endPrepare("done")
	}
	return c.appendRec(RecEpochClosed)
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
	if c.commit = why == "done"; c.commit {
		return append(out, c.appendRec(RecEpochPrepared)...)
	}
	return append(out, c.appendRec(RecEpochDecided)...)
}

// startOutcome begins phase two: the durable outcome is re-sent until
// every live participant acknowledges or the ack budget runs out.
func (c *waveCore) startOutcome(now time.Time) []waveOutput {
	out := c.beginOutcome()
	c.deadline = now.Add(c.ackTimeout)
	if !slices.Contains(c.waiting, true) {
		return append(out, c.appendRec(RecEpochClosed)...)
	}
	return out
}

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
