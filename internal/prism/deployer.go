package prism

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// DeployerID is the well-known component ID of the deployer.
const DeployerID = "prism.deployer"

// DeployerComponent is the ExtensibleComponent with the Deployer
// implementation of IAdmin (DSN'04 §4.2): an Admin that additionally
// interfaces with DeSi — it gathers monitoring reports from every
// AdminComponent, distributes redeployment commands, and mediates
// interactions between hosts that are not directly connected.
//
// The deployer host also runs a full AdminComponent for its own local
// architecture; DeployerComponent handles the system-wide duties.
type DeployerComponent struct {
	BaseComponent
	arch   *Architecture
	cfg    AdminConfig
	sender *controlSender

	mu        sync.Mutex
	nextEpoch int
	// detector, when attached, feeds heartbeats into liveness tracking
	// and lets a participant's death abort in-flight waves.
	detector *FailureDetector
	// store, when attached, durably checkpoints every two-phase
	// transition so a restarted deployer resumes or cleanly aborts
	// in-flight waves instead of replanning (see durable.go).
	store *DeployerStore
	// restoredIncs holds a checkpointed incarnation map recovered before
	// any detector was attached; AttachDetector primes it in.
	restoredIncs map[model.HostID]uint64
	// leadership, when attached, runs the agent-quorum lease protocol:
	// this deployer drives waves only while holding the lease, stamps its
	// fencing term on every control frame, and streams checkpoint records
	// to standby peers (see leader.go). Nil is the legacy solo mode.
	leadership *Leadership
	// goal is the per-agent desired-manifest table (goalstate.go). With a
	// store attached its mutations are checkpointed and replicated; it is
	// the source of truth the level-triggered resync path converges
	// agents to.
	goal *goalTable

	// The deployer loop (run): inbox queues its inputs and wake pokes it;
	// running marks a loop goroutine alive. The records it waits out are
	// stepped only by the loop, and join or leave under mu.
	inbox   []func()
	wake    chan struct{}
	running bool
	records []record
	// Owned by the loop: closed marks a Close it ran, and reportRound
	// numbers the report rounds. The count starts from the clock so a
	// restarted deployer does not repeat its previous lifetime's rounds
	// (an admin answers a repeated round from its cache).
	closed      bool
	reportRound uint64
}

// NewDeployerComponent builds a deployer for the master architecture.
func NewDeployerComponent(arch *Architecture, cfg AdminConfig) *DeployerComponent {
	registerPayloadsOnce.Do(registerControlPayloads)
	cfg = cfg.withDefaults()
	d := &DeployerComponent{
		BaseComponent: NewBaseComponent(DeployerID),
		arch:          arch,
		cfg:           cfg,
		sender:        newControlSender(arch, cfg, DeployerID),
		nextEpoch:     1,
		goal:          newGoalTable(),
		reportRound:   uint64(cfg.Clock().UnixNano()),
		wake:          make(chan struct{}, 1),
	}
	return d
}

// Close ends every open exchange: a wave that was mid-flight returns as
// rolled back, a campaign as closed, a report round with what it has;
// shutdown never blocks on a wave (the World.Close ordering fix). One
// opened later ends at once.
func (d *DeployerComponent) Close() {
	d.post(func() {
		d.closed = true
		for _, r := range d.records {
			r.close(d)
		}
	}, true)
}

// AttachDetector wires a failure detector into the deployer: incoming
// heartbeats and control-send outcomes feed it, and HostDead transitions
// abort any wave the dead host participates in.
func (d *DeployerComponent) AttachDetector(fd *FailureDetector) {
	d.mu.Lock()
	d.detector = fd
	incs := d.restoredIncs
	d.restoredIncs = nil
	d.mu.Unlock()
	for h, inc := range incs {
		fd.PrimeIncarnation(h, inc)
	}
	fd.Subscribe(func(tr Transition) {
		d.arch.Obs().Counter(obs.Name("prism_detector_transitions_total",
			"host", string(d.arch.Host()), "to", tr.To.String())).Inc()
		if tr.To == HostDead {
			d.NoteHostDead(tr.Host)
		}
	})
}

// Detector returns the attached failure detector (nil when none).
func (d *DeployerComponent) Detector() *FailureDetector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.detector
}

// recordSend feeds one control-send outcome toward h to the attached
// detector's health score; with none attached nothing is recorded.
func (d *DeployerComponent) recordSend(h model.HostID, ok bool) {
	if fd := d.Detector(); fd != nil {
		fd.RecordSend(h, ok)
	}
}

// EvaluateHealth grades every peer the attached detector tracks — a
// limping up peer becomes degraded, a recovered one up — sets each peer's
// prism_peer_health_score gauge, and returns the transitions. Callers run
// it on their monitoring cadence (the centralized loop calls it each
// Cycle).
func (d *DeployerComponent) EvaluateHealth() []Transition {
	fd := d.Detector()
	if fd == nil {
		return nil
	}
	trs := fd.Grade()
	reg, host := d.arch.Obs(), string(d.arch.Host())
	for peer, s := range fd.Scores() {
		reg.Gauge(obs.Name("prism_peer_health_score", "host", host, "peer", string(peer))).Set(s)
	}
	return trs
}

// DegradedHosts lists hosts the detector currently holds degraded (nil
// when no detector is attached).
func (d *DeployerComponent) DegradedHosts() []model.HostID {
	if fd := d.Detector(); fd != nil {
		return fd.DegradedHosts()
	}
	return nil
}

// NoteHostDead feeds a participant's death to every wave in flight: in
// phase one it is an abort vote, in phase two its acknowledgement is
// waived so the outcome never waits on a corpse.
func (d *DeployerComponent) NoteHostDead(h model.HostID) {
	d.feedWave(waveInput{kind: inDead, host: h})
}

// deadAmong lists the hosts the attached detector currently holds dead.
func (d *DeployerComponent) deadAmong(hosts []model.HostID) []model.HostID {
	fd := d.Detector()
	var dead []model.HostID
	for _, h := range hosts {
		if fd != nil && fd.State(h) == HostDead {
			dead = append(dead, h)
		}
	}
	return dead
}

// InstallDeployer creates a deployer, adds it to the architecture, and
// welds it to the bus.
func InstallDeployer(arch *Architecture, cfg AdminConfig) (*DeployerComponent, error) {
	dep := NewDeployerComponent(arch, cfg)
	if err := arch.AddComponent(dep); err != nil {
		return nil, err
	}
	if err := arch.Weld(DeployerID, cfg.Bus); err != nil {
		return nil, err
	}
	return dep, nil
}

// Handle implements Component.
func (d *DeployerComponent) Handle(e Event) {
	if e.kind() != KindControl {
		return
	}
	switch e.Name {
	case EvReport:
		if rep, ok := e.Payload.(MonitoringReport); ok {
			d.post(func() { each(d, func(r *reportRound) { r.take(d, &rep) }) }, false)
		}
	case EvFetch:
		// Mediated fetch: the wave forwards it to the component's source.
		if req, ok := e.Payload.(FetchRequest); ok && req.Mediated && req.Source != "" {
			d.feedWave(waveInput{kind: inMediated, epoch: req.Epoch, comp: req.Comp, leg: waveOutput{to: req.Source,
				ev: Event{Name: EvFetch, Target: AdminID, Payload: req, SizeKB: 0.5}}})
		}
	case EvTransfer:
		// Mediated transfer: the wave forwards it toward its final
		// destination (the local admin, which owns reconstitution, when
		// that is this host).
		if tp, ok := e.Payload.(TransferPayload); ok && tp.FinalDst != "" {
			d.feedWave(waveInput{kind: inMediated, epoch: tp.Epoch, comp: tp.Comp, leg: waveOutput{to: tp.FinalDst,
				ev: Event{Name: EvTransfer, Target: AdminID, Payload: tp, SizeKB: tp.SizeKB}}})
		}
	case EvDone:
		if rep, ok := e.Payload.(DoneReport); ok {
			d.feedWave(waveInput{kind: inDone, epoch: rep.Epoch, host: rep.Host, done: rep})
		}
	case EvHeartbeat:
		hb, ok := e.Payload.(Heartbeat)
		if !ok {
			return
		}
		if fd := d.Detector(); fd != nil {
			fd.SetManifest(hb.Host, hb.Components)
			fd.Observe(hb.Host, hb.Incarnation)
		}
	case EvOutcomeAck:
		if ack, ok := e.Payload.(OutcomeAck); ok {
			d.feedWave(waveInput{kind: inAck, epoch: ack.Epoch, host: ack.Host})
		}
	case EvGoalAnnounce:
		if ga, ok := e.Payload.(GoalAnnounce); ok {
			d.handleGoalAnnounce(ga)
		}
	case EvGoalAck:
		if ack, ok := e.Payload.(GoalAck); ok {
			d.handleGoalAck(ack)
		}
	case EvLeaseGrant, EvReplicate, EvReplicateAck:
		if le := d.Leadership(); le != nil {
			le.handle(e.Payload)
		}
	}
}

// RequestReports asks every listed host's admin for a monitoring report
// and waits until all have arrived or the timeout expires, re-requesting
// the missing ones every EnactResendInterval. It returns the reports
// received so far keyed by host.
func (d *DeployerComponent) RequestReports(hosts []model.HostID, timeout time.Duration) (map[model.HostID]MonitoringReport, error) {
	r := &reportRound{hosts: hosts, timeout: timeout, got: make(map[model.HostID]MonitoringReport, len(hosts)),
		done: make(chan error, 1)}
	d.post(func() { d.open(r) }, true)
	err := <-r.done
	return r.got, err
}

// reportRound is a RequestReports call's record. It takes only reports
// stamped with its own round: a report a timed-out round was still owed
// is not the next round's answer.
type reportRound struct {
	pace
	round   uint64
	hosts   []model.HostID
	req     Event
	got     map[model.HostID]MonitoringReport
	timeout time.Duration
	done    chan error
}

func (r *reportRound) open(d *DeployerComponent) {
	d.reportRound++
	r.round = d.reportRound
	r.req = Event{Name: EvReportRequest, Target: AdminID, SizeKB: 0.2, Payload: ReportRequest{Round: r.round}}
	for _, h := range r.hosts {
		_ = d.sender.send(h, r.req)
	}
	r.pace = d.phase(time.Now().Add(r.timeout))
	r.take(d, nil)
}

// take adds a report that answers this round; the last one missing ends
// the round.
func (r *reportRound) take(d *DeployerComponent, rep *MonitoringReport) {
	if rep != nil && rep.Round == r.round {
		r.got[rep.Host] = *rep
	}
	if len(r.got) >= len(r.hosts) {
		d.recordReportOutcomes(r)
		r.end(d, nil)
	}
}

// tick re-requests every live host still missing, or ends the round.
func (r *reportRound) tick(d *DeployerComponent, expired bool) {
	if expired {
		d.recordReportOutcomes(r)
		r.end(d, fmt.Errorf("deployer: %d of %d reports after %v", len(r.got), len(r.hosts), r.timeout))
		return
	}
	dead := d.deadAmong(r.hosts)
	for _, h := range r.hosts {
		if _, ok := r.got[h]; ok || slices.Contains(dead, h) {
			continue
		}
		// A re-request means the request or its report was lost: a failed
		// send, like Enact's re-dispatch.
		d.recordSend(h, false)
		_ = d.sender.send(h, r.req)
	}
}

func (r *reportRound) close(d *DeployerComponent) {
	r.end(d, fmt.Errorf("deployer: closed with %d of %d reports", len(r.got), len(r.hosts)))
}

func (r *reportRound) end(d *DeployerComponent, err error) {
	d.drop(r)
	r.done <- err
}

// recordReportOutcomes feeds the health score one end-to-end outcome
// per host a round polled: an answered report request is the strongest
// positive evidence the deployer gets (the full round trip worked), and
// an unanswered one is the canonical gray-failure signal — the host may
// still be heartbeating while silently dropping our requests or its
// replies. Not recorded on the shutdown path, where silence proves
// nothing.
func (d *DeployerComponent) recordReportOutcomes(r *reportRound) {
	for _, h := range r.hosts {
		if h != d.arch.Host() {
			_, ok := r.got[h]
			d.recordSend(h, ok)
		}
	}
}

// EnactResult summarizes a completed redeployment wave.
type EnactResult struct {
	Epoch int
	Moved int
	// Received sums the destination admins' reconstitution counts; a
	// fully successful wave has Received == Moved.
	Received   int
	Incomplete []model.HostID // hosts that never reported done (timeout)
	// Committed reports whether phase two committed the wave; false means
	// it was rolled back (or the rollback broadcast was at least
	// attempted).
	Committed bool
	// Degraded flags waves whose done reports do not account for every
	// move, or that left hosts incomplete — partial outcomes worth
	// surfacing even when Enact returns no error.
	Degraded bool
}

// Enact distributes a redeployment wave: moves maps each migrating
// component to its destination host; current describes where every
// component lives now.
//
// The wave runs as a two-phase migration (wave.go). Phase one: each
// destination is told its arrivals (EvReconfig, re-dispatched to
// unresponsive hosts every EnactResendInterval), fetches them, and
// reports done; sources only *prepare* departures. Phase two: once every
// destination reported done — or the deadline expired — the outcome
// (commit or abort) is made durable, then broadcast to every participant
// and re-sent until acknowledged, so a failed transfer never strands a
// component: aborted sources reattach their prepared instances and
// aborted destinations evict uncommitted arrivals.
func (d *DeployerComponent) Enact(moves map[string]model.HostID, current map[string]model.HostID, timeout time.Duration) (EnactResult, error) {
	if d.deposed() {
		// With leadership attached, only the lease holder drives waves; a
		// standby (or deposed leader) refuses rather than burn an epoch
		// number the quorum will fence anyway.
		return EnactResult{}, ErrNotLeader
	}
	term := d.term()
	d.mu.Lock()
	epoch := d.nextEpoch
	d.nextEpoch++
	// A wave is a fenced goal-generation bump: each destination learns the
	// generation it reaches if the wave commits.
	nextGen := make(map[model.HostID]uint64)
	for comp, dst := range moves {
		if src, ok := current[comp]; ok && src != dst {
			nextGen[dst] = d.goal.entry(dst).Gen + 1
		}
	}
	d.mu.Unlock()
	c, err := enactWave(epoch, d.arch.Host(), term, moves, current, nextGen, timeout, d.cfg.OutcomeAckTimeout)
	if err != nil || c.res.Moved == 0 {
		return EnactResult{Epoch: epoch, Committed: err == nil}, err
	}
	d.drive(c)
	return c.res, c.err
}

// shellWave is a wave's record: its core, its open spans, and the pace
// of the wave's phase under way.
type shellWave struct {
	*waveCore
	pace
	spans []*obs.Span // open, outermost first
	// start is read from the injected clock (AdminConfig.Clock), so wave
	// durations are byte-identical across same-seed traced drills.
	start time.Time
	done  chan struct{}
}

// drive hands waves to the deployer loop and waits until each finished.
func (d *DeployerComponent) drive(cores ...*waveCore) {
	ws := make([]*shellWave, len(cores))
	for i, c := range cores {
		ws[i] = &shellWave{waveCore: c, start: d.cfg.Clock(), done: make(chan struct{})}
	}
	d.post(func() {
		for _, w := range ws {
			d.open(w)
		}
	}, true)
	for _, w := range ws {
		<-w.done
	}
}

func (w *shellWave) open(d *DeployerComponent) {
	d.feed(w, waveInput{kind: inStart, dead: d.deadAmong(w.parts)})
}

// tick re-drives the wave — as a fence once the quorum moved past our
// term, since every agent rejects our frames then — or expires it.
func (w *shellWave) tick(d *DeployerComponent, expired bool) {
	if !expired && d.deposed() {
		d.feed(w, waveInput{kind: inDeposed, term: d.term()})
	} else {
		d.feed(w, waveInput{kind: inTick})
	}
}

func (w *shellWave) close(d *DeployerComponent) { d.feed(w, waveInput{kind: inClosed}) }

// feedWave hands the loop an input for the waves it names (epoch zero
// names all); one naming no open wave is a straggler.
func (d *DeployerComponent) feedWave(in waveInput) {
	d.post(func() {
		each(d, func(w *shellWave) {
			if in.epoch == 0 || in.epoch == w.epoch {
				d.feed(w, in)
			}
		})
	}, false)
}

// feed steps one wave and performs its outputs; an append's result is the
// wave's next input. A finished wave leaves the loop and releases its
// caller.
func (d *DeployerComponent) feed(w *shellWave, in waveInput) {
	for more := true; more; {
		in.now, more = time.Now(), false
		for _, o := range w.step(in) {
			switch o.kind {
			case outSend:
				if o.retry {
					// A re-drive means a frame or its answer was lost: a
					// failed send.
					d.recordSend(o.to, false)
				}
				_ = d.sender.send(o.to, o.ev)
			case outAppend:
				in, more = d.checkpoint(w.waveCore, o), true
			case outBegin:
				var sp *obs.Span
				if n := len(w.spans); n > 0 {
					sp = w.spans[n-1].Child(o.phase)
				} else {
					sp = d.arch.Tracer().Start(o.phase)
				}
				w.spans = append(w.spans, setAttrs(sp, o.attrs))
			case outEnd:
				setAttrs(w.spans[len(w.spans)-1], o.attrs).End()
				w.spans = w.spans[:len(w.spans)-1]
			case outFinish:
				d.settleWave(w)
				d.drop(w)
				close(w.done)
			}
		}
	}
	if !w.waveCore.deadline.Equal(w.pace.deadline) {
		w.pace = d.phase(w.waveCore.deadline)
	}
}

// record is one exchange the deployer loop waits out: a wave, the lease
// campaign or a report round.
type record interface {
	clock() *pace
	open(d *DeployerComponent)
	// tick re-drives the record, or ends its phase once expired.
	tick(d *DeployerComponent, expired bool)
	close(d *DeployerComponent)
}

// pace is a record's phase clock: the phase's deadline, and its next
// re-drive — one EnactResendInterval after the phase began, then one
// every interval.
type pace struct{ deadline, next time.Time }

func (p *pace) clock() *pace { return p }

// at is when the record next needs the loop.
func (p *pace) at() time.Time {
	if p.next.Before(p.deadline) {
		return p.next
	}
	return p.deadline
}

// phase paces a phase that begins now.
func (d *DeployerComponent) phase(deadline time.Time) pace {
	return pace{deadline, time.Now().Add(d.cfg.EnactResendInterval)}
}

// post hands the deployer loop an input. A call opens a record, and
// starts the loop when none runs; any other input with no loop running
// names no open record and is dropped.
func (d *DeployerComponent) post(in func(), call bool) {
	d.mu.Lock()
	start := call && !d.running
	if d.running || call {
		d.inbox = append(d.inbox, in)
		d.running = true
	}
	d.mu.Unlock()
	if start {
		go d.run()
		return
	}
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// run is the deployer loop, the one goroutine that waits out every
// exchange the deployer drives. It runs its inbox in order, then arms one
// timer at the earliest deadline or re-drive of any open record, and
// exits once none is open. A lease frame steps the core on the receive
// goroutine and reaches the loop only as a campaign's finish; the store's
// appends offer their records to the standbys synchronously.
func (d *DeployerComponent) run() {
	for {
		d.mu.Lock()
		inbox, open := d.inbox, d.records
		d.inbox = nil
		d.running = len(inbox) > 0 || len(open) > 0
		d.mu.Unlock()
		switch {
		case len(inbox) > 0:
			for _, in := range inbox {
				in()
			}
			continue
		case len(open) == 0:
			return
		}
		when := open[0].clock().at()
		for _, r := range open[1:] {
			if t := r.clock().at(); t.Before(when) {
				when = t
			}
		}
		timer := time.NewTimer(time.Until(when))
		select {
		case <-d.wake:
		case now := <-timer.C:
			for _, r := range open {
				switch p := r.clock(); {
				case !now.Before(p.deadline):
					r.tick(d, true)
				case !now.Before(p.next):
					for !now.Before(p.next) {
						p.next = p.next.Add(d.cfg.EnactResendInterval)
					}
					r.tick(d, false)
				}
			}
		}
		timer.Stop()
	}
}

// open adds a record to the loop and starts it; on a closed deployer it
// ends at once.
func (d *DeployerComponent) open(r record) {
	d.mu.Lock()
	d.records = append(d.records, r)
	d.mu.Unlock()
	if r.open(d); d.closed && slices.Contains(d.records, r) {
		r.close(d)
	}
}

// drop removes a record from the loop. The list is copied: a pass over
// the old one may be under way.
func (d *DeployerComponent) drop(r record) {
	d.mu.Lock()
	d.records = slices.DeleteFunc(slices.Clone(d.records), func(x record) bool { return x == r })
	d.mu.Unlock()
}

// each calls f with every open record of type T.
func each[T record](d *DeployerComponent, f func(T)) {
	for _, r := range d.records {
		if t, ok := r.(T); ok {
			f(t)
		}
	}
}

// settleWave does a finished wave's bookkeeping: the metrics (Enact),
// and for a wave that never wrote its close — which does the rest — the
// committed relocations and, behind a decided Enact wave, the soft-state
// snapshot (Resume takes one for all its waves).
func (d *DeployerComponent) settleWave(w *shellWave) {
	if !w.resume {
		reg, host := d.arch.Obs(), string(d.arch.Host())
		outcome := map[bool]string{true: "committed", false: "aborted"}[w.res.Committed]
		reg.Counter(obs.Name("prism_wave_"+outcome+"_total", "host", host)).Inc()
		reg.Counter(obs.Name("prism_wave_moves_total", "host", host)).Add(float64(w.res.Moved))
		reg.Histogram(obs.Name("prism_wave_duration_ms", "host", host), nil).
			Observe(float64(d.cfg.Clock().Sub(w.start).Milliseconds()))
	}
	if w.appending == RecEpochClosed {
		return // the close recorded the relocations and carried the snapshot
	}
	if w.committed() {
		d.recordRelocations(w.moves)
	}
	if !w.resume && w.decided {
		d.ckptSnapshot()
	}
}

// recordRelocations records a committed wave's moves at the coordinator,
// the authoritative relocation authority: hop-exhausted relays detour
// here and are bounced back to their origin with each component's
// committed location.
func (d *DeployerComponent) recordRelocations(moves map[string]model.HostID) {
	if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
		for comp, dst := range moves {
			dc.RecordRelocation(comp, dst)
		}
	}
}

func setAttrs(sp *obs.Span, kv []string) *obs.Span {
	for i := 0; i+1 < len(kv); i += 2 {
		sp.SetAttr(kv[i], kv[i+1])
	}
	return sp
}
