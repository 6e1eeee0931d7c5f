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

	mu      sync.Mutex
	reports map[model.HostID]MonitoringReport
	// reportWait is signalled whenever a report arrives.
	reportWait chan struct{}
	// reportRound numbers RequestReports calls. It starts from the clock
	// so a restarted deployer does not repeat its previous lifetime's
	// rounds (an admin answers a repeated round from its cache).
	reportRound uint64
	// shells are the wave shells running; each drives its waves (wave.go)
	// to the end.
	shells    map[*waveShell]bool
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

	// stop aborts in-flight waves on Close so shutdown never waits on a
	// wave.
	stop     chan struct{}
	stopOnce sync.Once
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
		reports:       make(map[model.HostID]MonitoringReport),
		reportWait:    make(chan struct{}, 1),
		shells:        make(map[*waveShell]bool),
		nextEpoch:     1,
		goal:          newGoalTable(),
		reportRound:   uint64(cfg.Clock().UnixNano()),
		stop:          make(chan struct{}),
	}
	return d
}

// Close aborts every in-flight wave and report collection. A wave that
// was mid-flight returns as rolled back; shutdown never blocks on a wave
// (the World.Close ordering fix).
func (d *DeployerComponent) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
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
		rep, ok := e.Payload.(MonitoringReport)
		if !ok {
			return
		}
		d.mu.Lock()
		d.reports[rep.Host] = rep
		d.mu.Unlock()
		select {
		case d.reportWait <- struct{}{}:
		default:
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
	d.mu.Lock()
	d.reports = make(map[model.HostID]MonitoringReport, len(hosts))
	d.reportRound++
	req := Event{
		Name: EvReportRequest, Target: AdminID, SizeKB: 0.2,
		Payload: ReportRequest{Round: d.reportRound},
	}
	d.mu.Unlock()

	for _, h := range hosts {
		_ = d.sender.send(h, req)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	resend := time.NewTicker(d.cfg.EnactResendInterval)
	defer resend.Stop()
	for {
		got := d.snapshotReports()
		if len(got) >= len(hosts) {
			d.recordReportOutcomes(hosts)
			return got, nil
		}
		select {
		case <-d.reportWait:
		case <-resend.C:
			got = d.snapshotReports()
			dead := d.deadAmong(hosts)
			for _, h := range hosts {
				if _, ok := got[h]; ok || slices.Contains(dead, h) {
					continue
				}
				// A re-request means the request or its report was lost:
				// a failed send, like Enact's re-dispatch.
				d.recordSend(h, false)
				_ = d.sender.send(h, req)
			}
		case <-d.stop:
			got := d.snapshotReports()
			return got, fmt.Errorf("deployer: closed with %d of %d reports", len(got), len(hosts))
		case <-deadline.C:
			d.recordReportOutcomes(hosts)
			got := d.snapshotReports()
			return got, fmt.Errorf("deployer: %d of %d reports after %v", len(got), len(hosts), timeout)
		}
	}
}

// recordReportOutcomes feeds the health score one end-to-end outcome
// per polled host: an answered report request is the strongest positive
// evidence the deployer gets (the full round trip worked), and an
// unanswered one is the canonical gray-failure signal — the host may
// still be heartbeating while silently dropping our requests or its
// replies. Not recorded on the shutdown path, where silence proves
// nothing.
func (d *DeployerComponent) recordReportOutcomes(hosts []model.HostID) {
	got := d.snapshotReports()
	for _, h := range hosts {
		if h != d.arch.Host() {
			_, ok := got[h]
			d.recordSend(h, ok)
		}
	}
}

func (d *DeployerComponent) snapshotReports() map[model.HostID]MonitoringReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[model.HostID]MonitoringReport, len(d.reports))
	for h, r := range d.reports {
		out[h] = r
	}
	return out
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
	d.newWaveShell(c).run()
	return c.res, c.err
}

// waveShell is the I/O half of the two-phase wave, the one loop Enact
// and Resume drive their waves with. It owns the deadline timer and the
// re-drive ticker, feeds each wave its inputs — the frames Handle routes
// to it, deaths, ticks, lost leadership, shutdown — and performs the
// outputs in order: sends, appends (each result goes straight back to
// the wave), spans, and a finished wave's bookkeeping.
type waveShell struct {
	d     *DeployerComponent
	waves []*shellWave
	inbox []waveInput // routed by other goroutines, under d.mu
	wake  chan struct{}
}

type shellWave struct {
	*waveCore
	spans []*obs.Span // open, outermost first
	// start is read from the injected clock (AdminConfig.Clock), so wave
	// durations are byte-identical across same-seed traced drills.
	start time.Time
}

// newWaveShell registers a shell for the waves, so Handle and
// NoteHostDead reach them.
func (d *DeployerComponent) newWaveShell(cores ...*waveCore) *waveShell {
	sh := &waveShell{d: d, wake: make(chan struct{}, 1)}
	for _, c := range cores {
		sh.waves = append(sh.waves, &shellWave{waveCore: c, start: d.cfg.Clock()})
	}
	d.mu.Lock()
	d.shells[sh] = true
	d.mu.Unlock()
	return sh
}

// feedWave hands an input to every running shell; each routes it to the
// wave it names, and a frame naming no wave in flight is a straggler.
func (d *DeployerComponent) feedWave(in waveInput) {
	d.mu.Lock()
	shells := make([]*waveShell, 0, len(d.shells))
	for sh := range d.shells {
		sh.inbox = append(sh.inbox, in)
		shells = append(shells, sh)
	}
	d.mu.Unlock()
	for _, sh := range shells {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// run drives the shell's waves until every one has finished.
func (sh *waveShell) run() {
	d := sh.d
	defer func() {
		d.mu.Lock()
		delete(d.shells, sh)
		d.mu.Unlock()
	}()
	for _, w := range sh.waves {
		sh.feed(w, waveInput{kind: inStart, dead: d.deadAmong(w.parts)})
	}
	resend := time.NewTicker(d.cfg.EnactResendInterval)
	defer func() { resend.Stop() }()
	stop := d.stop
	var phase time.Time
	for {
		// Every unfinished wave is waiting out a deadline.
		var due time.Time
		for _, w := range sh.waves {
			if !w.finished() && (due.IsZero() || w.deadline.Before(due)) {
				due = w.deadline
			}
		}
		if due.IsZero() {
			return
		}
		if !due.Equal(phase) {
			// A phase began: its first re-drive is a full interval away.
			resend.Stop()
			resend, phase = time.NewTicker(d.cfg.EnactResendInterval), due
		}
		deadline := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			stop = nil
			sh.route(waveInput{kind: inClosed})
		case <-sh.wake:
			d.mu.Lock()
			inbox := sh.inbox
			sh.inbox = nil
			d.mu.Unlock()
			for _, in := range inbox {
				sh.route(in)
			}
		case <-resend.C:
			if d.deposed() {
				// The quorum moved past our term: every agent fences us.
				sh.route(waveInput{kind: inDeposed, term: d.term()})
			} else {
				sh.route(waveInput{kind: inTick})
			}
		case <-deadline.C:
			// The earliest wave expires; any other takes it as a re-drive.
			sh.route(waveInput{kind: inTick})
		}
		deadline.Stop()
	}
}

// route feeds an input to the unfinished waves it names.
func (sh *waveShell) route(in waveInput) {
	for _, w := range sh.waves {
		if !w.finished() && (in.epoch == 0 || in.epoch == w.epoch) {
			sh.feed(w, in)
		}
	}
}

// feed steps one wave and performs its outputs; an append's result is the
// wave's next input.
func (sh *waveShell) feed(w *shellWave, in waveInput) {
	d := sh.d
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
			}
		}
	}
}

// settleWave does a finished wave's bookkeeping: the metrics (Enact),
// the committed relocations, and the soft-state snapshot behind every
// decided Enact wave (Resume takes one for all its waves).
func (d *DeployerComponent) settleWave(w *shellWave) {
	if !w.resume {
		reg, host := d.arch.Obs(), string(d.arch.Host())
		outcome := map[bool]string{true: "committed", false: "aborted"}[w.res.Committed]
		reg.Counter(obs.Name("prism_wave_"+outcome+"_total", "host", host)).Inc()
		reg.Counter(obs.Name("prism_wave_moves_total", "host", host)).Add(float64(w.res.Moved))
		reg.Histogram(obs.Name("prism_wave_duration_ms", "host", host), nil).
			Observe(float64(d.cfg.Clock().Sub(w.start).Milliseconds()))
	}
	if w.committed() {
		// The coordinator is the authoritative relocation authority:
		// hop-exhausted relays detour here and are bounced back to their
		// origin with each component's committed location.
		if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
			for comp, dst := range w.moves {
				dc.RecordRelocation(comp, dst)
			}
		}
	}
	if !w.resume && w.decided {
		d.ckptSnapshot()
	}
}

func setAttrs(sp *obs.Span, kv []string) *obs.Span {
	for i := 0; i+1 < len(kv); i += 2 {
		sp.SetAttr(kv[i], kv[i+1])
	}
	return sp
}
