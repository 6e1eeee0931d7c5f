package prism

import (
	"fmt"
	"sort"
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
	// epochs tracks outstanding redeployment waves.
	epochs    map[int]*epochState
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
	// health scores per-peer liveness quality from gray-failure signals
	// (unanswered report requests, resend pressure, observable send
	// failures, heartbeat jitter). Built lazily so its gauges land in
	// the registry wired by SetObservability.
	health *HealthScorer

	// stop aborts in-flight waves on Close so shutdown never deadlocks on
	// doneCh waiters.
	stop     chan struct{}
	stopOnce sync.Once
}

type epochState struct {
	pendingHosts map[model.HostID]bool
	doneCh       chan struct{}
	relayed      int
	received     int
	// coordinator is the wave's original coordinator identity; empty
	// means this deployer (the normal case). A promoted standby resuming
	// an inherited wave keeps the dead leader's identity here so
	// participant admins find their (coordinator, epoch)-keyed state.
	coordinator model.HostID
	// participants are every host the wave touches (sources and
	// destinations) — the audience of the commit/abort broadcast.
	participants map[model.HostID]bool
	// ackPending tracks outstanding outcome acknowledgements during phase
	// two; ackCh is signalled as they arrive.
	ackPending map[model.HostID]bool
	ackCh      chan struct{}
	// abortCh is closed when a participant dies mid-wave: the death is an
	// abort vote, not something to retry forever. deadAborted guards the
	// close and names the casualty.
	abortCh     chan struct{}
	deadAborted bool
	deadHost    model.HostID
	// gens are the participants' goal generations published with a
	// committed outcome (set between the decision checkpoint and the
	// outcome broadcast).
	gens map[model.HostID]uint64
	// mediated holds, per migrating component, the last fetch or
	// transfer this coordinator forwarded between two hosts that are not
	// directly connected. The re-dispatch tick re-forwards it while the
	// destination is pending, so each leg of a mediated move is re-driven
	// on its own instead of only by a fresh end-to-end round.
	mediated map[string]mediatedFrame
}

// mediatedFrame is one forwarded fetch or transfer and where it went.
type mediatedFrame struct {
	to       model.HostID
	ev       Event
	transfer bool
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
		epochs:        make(map[int]*epochState),
		nextEpoch:     1,
		goal:          newGoalTable(),
		reportRound:   uint64(cfg.Clock().UnixNano()),
		stop:          make(chan struct{}),
	}
	return d
}

// Close aborts every in-flight wave and report collection. A wave that
// was mid-flight returns as rolled back; shutdown never blocks on doneCh
// waiters (the World.Close ordering fix).
func (d *DeployerComponent) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// AttachDetector wires a failure detector into the deployer: incoming
// heartbeats feed it, and HostDead transitions abort any wave the dead
// host participates in.
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
			// A dead host's health history must not shade its rejoin: a
			// restarted incarnation starts with a clean score.
			d.healthScorer().Forget(tr.Host)
		}
	})
}

// Detector returns the attached failure detector (nil when none).
func (d *DeployerComponent) Detector() *FailureDetector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.detector
}

// healthScorer returns the per-peer gray-failure scorer, built on first
// use so its gauges land in whatever registry SetObservability installed
// after construction.
func (d *DeployerComponent) healthScorer() *HealthScorer {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.health == nil {
		d.health = NewHealthScorer(HealthConfig{Host: d.arch.Host(), Obs: d.arch.Obs()})
	}
	return d.health
}

// Health exposes the per-peer gray-failure scorer.
func (d *DeployerComponent) Health() *HealthScorer {
	return d.healthScorer()
}

// EvaluateHealth applies the scorer's hysteresis band and folds every
// flip into the failure detector's HostDegraded overlay, returning the
// resulting liveness transitions. Callers run it on their monitoring
// cadence (the centralized loop calls it each Cycle).
func (d *DeployerComponent) EvaluateHealth() []Transition {
	flips := d.healthScorer().Evaluate()
	if len(flips) == 0 {
		return nil
	}
	d.mu.Lock()
	fd := d.detector
	d.mu.Unlock()
	if fd == nil {
		return nil
	}
	var out []Transition
	for _, f := range flips {
		out = append(out, fd.MarkDegraded(f.Peer, f.Degraded, d.cfg.Clock())...)
	}
	return out
}

// DegradedHosts lists hosts the detector currently holds in the
// HostDegraded overlay (nil when no detector is attached).
func (d *DeployerComponent) DegradedHosts() []model.HostID {
	d.mu.Lock()
	fd := d.detector
	d.mu.Unlock()
	if fd == nil {
		return nil
	}
	return fd.DegradedHosts()
}

// hostDead reports whether the attached detector currently declares the
// host dead.
func (d *DeployerComponent) hostDead(h model.HostID) bool {
	d.mu.Lock()
	fd := d.detector
	d.mu.Unlock()
	return fd != nil && fd.State(h) == HostDead
}

// NoteHostDead records a participant's death: every in-flight wave the
// host touches is aborted (its death is an abort vote), and its pending
// outcome acknowledgements are waived so phase two never spins on a
// corpse.
func (d *DeployerComponent) NoteHostDead(h model.HostID) {
	d.mu.Lock()
	for _, st := range d.epochs {
		if !st.participants[h] {
			continue
		}
		if !st.deadAborted && st.abortCh != nil {
			st.deadAborted = true
			st.deadHost = h
			close(st.abortCh)
		}
		if st.ackPending != nil && st.ackPending[h] {
			delete(st.ackPending, h)
			select {
			case st.ackCh <- struct{}{}:
			default:
			}
		}
	}
	d.mu.Unlock()
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
		// Mediated fetch: forward to the component's source host.
		req, ok := e.Payload.(FetchRequest)
		if !ok || !req.Mediated || req.Source == "" {
			return
		}
		fwd := Event{Name: EvFetch, Target: AdminID, Payload: req, SizeKB: 0.5}
		d.noteMediated(req.Coordinator, req.Epoch, req.Comp, mediatedFrame{to: req.Source, ev: fwd})
		_ = d.sender.send(req.Source, fwd)
	case EvTransfer:
		// Mediated transfer: forward toward its final destination (the
		// local admin, which owns reconstitution, when that is this host).
		tp, ok := e.Payload.(TransferPayload)
		if !ok || tp.FinalDst == "" {
			return
		}
		fwd := Event{Name: EvTransfer, Target: AdminID, Payload: tp, SizeKB: tp.SizeKB}
		d.noteMediated(tp.Coordinator, tp.Epoch, tp.Comp, mediatedFrame{to: tp.FinalDst, ev: fwd, transfer: true})
		_ = d.sender.send(tp.FinalDst, fwd)
	case EvDone:
		rep, ok := e.Payload.(DoneReport)
		if !ok {
			return
		}
		d.mu.Lock()
		if st, exists := d.epochs[rep.Epoch]; exists && st.pendingHosts[rep.Host] {
			delete(st.pendingHosts, rep.Host)
			st.received += rep.Received
			st.relayed += rep.Relayed
			if len(st.pendingHosts) == 0 {
				close(st.doneCh)
			}
		}
		d.mu.Unlock()
	case EvHeartbeat:
		hb, ok := e.Payload.(Heartbeat)
		if !ok {
			return
		}
		d.mu.Lock()
		fd := d.detector
		d.mu.Unlock()
		if fd != nil {
			fd.SetManifest(hb.Host, hb.Components)
			fd.Observe(hb.Host, hb.Incarnation)
		}
		// Inter-arrival jitter is a gray-failure signal the binary
		// alive/dead detector is blind to.
		d.healthScorer().RecordHeartbeat(hb.Host, d.cfg.Clock())
	case EvOutcomeAck:
		ack, ok := e.Payload.(OutcomeAck)
		if !ok {
			return
		}
		d.mu.Lock()
		if st, exists := d.epochs[ack.Epoch]; exists && st.ackPending != nil && st.ackPending[ack.Host] {
			delete(st.ackPending, ack.Host)
			select {
			case st.ackCh <- struct{}{}:
			default:
			}
		}
		d.mu.Unlock()
	case EvGoalAnnounce:
		ga, ok := e.Payload.(GoalAnnounce)
		if !ok {
			return
		}
		d.handleGoalAnnounce(ga)
	case EvGoalAck:
		ack, ok := e.Payload.(GoalAck)
		if !ok {
			return
		}
		d.handleGoalAck(ack)
	case EvLeaseGrant:
		g, ok := e.Payload.(LeaseGrant)
		if !ok {
			return
		}
		if le := d.Leadership(); le != nil {
			le.onGrant(g)
		}
	case EvReplicate:
		b, ok := e.Payload.(ReplBatch)
		if !ok {
			return
		}
		if le := d.Leadership(); le != nil {
			le.onReplicate(b)
		}
	case EvReplicateAck:
		a, ok := e.Payload.(ReplAck)
		if !ok {
			return
		}
		if le := d.Leadership(); le != nil {
			le.onReplicateAck(a)
		}
	}
}

// noteMediated records a forwarded fetch or transfer of one of this
// deployer's live waves for re-forwarding (see epochState.mediated). A
// transfer supersedes the fetch that asked for it, never the reverse.
func (d *DeployerComponent) noteMediated(coord model.HostID, epoch int, comp string, f mediatedFrame) {
	if coord != d.arch.Host() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.epochs[epoch]
	if st == nil || st.coordinator != "" || st.mediated[comp].transfer {
		return
	}
	if st.mediated == nil {
		st.mediated = make(map[string]mediatedFrame)
	}
	st.mediated[comp] = f
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
			for _, h := range hosts {
				if _, ok := got[h]; ok || d.hostDead(h) {
					continue
				}
				// A re-request means the request or its report was lost:
				// retry pressure, like Enact's re-dispatch.
				d.healthScorer().RecordRetry(h)
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

// recordReportOutcomes feeds the health scorer one end-to-end outcome
// per polled host: an answered report request is the strongest positive
// evidence the deployer gets (the full round trip worked), and an
// unanswered one is the canonical gray-failure signal — the host may
// still be heartbeating while silently dropping our requests or its
// replies. Not recorded on the shutdown path, where silence proves
// nothing.
func (d *DeployerComponent) recordReportOutcomes(hosts []model.HostID) {
	got := d.snapshotReports()
	hs := d.healthScorer()
	self := d.arch.Host()
	for _, h := range hosts {
		if h == self {
			continue
		}
		_, ok := got[h]
		hs.RecordSend(h, ok)
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
	Relayed    int
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
// The wave runs as a two-phase migration. Phase one: each destination is
// told its arrivals (EvReconfig, re-dispatched to unresponsive hosts
// every EnactResendInterval), fetches them, and reports done; sources
// only *prepare* departures. Phase two: once
// every destination reported done — or the deadline expired — the
// outcome (commit or abort) is broadcast to every participating host and
// re-sent until acknowledged, so a failed transfer never strands a
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
	d.mu.Unlock()
	res := EnactResult{Epoch: epoch}

	// Group arrivals per destination host.
	arrivals := make(map[model.HostID]map[string]model.HostID)
	for comp, dst := range moves {
		src, ok := current[comp]
		if !ok {
			return res, fmt.Errorf("enact: unknown current host for component %s", comp)
		}
		if src == dst {
			continue
		}
		if arrivals[dst] == nil {
			arrivals[dst] = make(map[string]model.HostID)
		}
		arrivals[dst][comp] = src
		res.Moved++
	}
	if res.Moved == 0 {
		res.Committed = true
		return res, nil
	}

	// Wave duration reads the injected clock (AdminConfig.Clock), not
	// time.Now directly: under traced drills this was the one
	// nondeterministic metric in otherwise byte-identical runs.
	waveStart := d.cfg.Clock()
	wave := d.arch.Tracer().Start("wave")
	wave.SetAttr("epoch", epoch).SetAttr("moves", res.Moved)
	prep := wave.Child("prepare")

	st := &epochState{
		pendingHosts: make(map[model.HostID]bool, len(arrivals)),
		doneCh:       make(chan struct{}),
		participants: make(map[model.HostID]bool),
		abortCh:      make(chan struct{}),
	}
	cmds := make(map[model.HostID]Event, len(arrivals))
	dsts := make([]model.HostID, 0, len(arrivals))
	for dst, arr := range arrivals {
		st.pendingHosts[dst] = true
		st.participants[dst] = true
		for _, src := range arr {
			st.participants[src] = true
		}
		cmds[dst] = Event{
			Name: EvReconfig, Target: AdminID, SizeKB: 1,
			Payload: ReconfigCommand{
				Epoch: epoch, Arrivals: arr, Coordinator: d.arch.Host(), Term: term,
				Gen: d.pendingGen(dst),
			},
		}
		dsts = append(dsts, dst)
	}
	sortHostIDs(dsts)
	d.mu.Lock()
	d.epochs[epoch] = st
	parts := make([]model.HostID, 0, len(st.participants))
	for p := range st.participants {
		parts = append(parts, p)
	}
	d.mu.Unlock()
	// Epoch-open checkpoint: the wave's identity is durable before the
	// first command goes out, so a crash from here on restarts into an
	// epoch the recovery path knows how to abort or resume.
	if err := d.ckptOpened(epoch, moves, parts); err != nil {
		prep.SetAttr("outcome", "checkpoint_failed")
		prep.End()
		wave.SetAttr("outcome", "abort")
		wave.End()
		d.mu.Lock()
		delete(d.epochs, epoch)
		d.mu.Unlock()
		d.waveMetrics(false, res.Moved, waveStart)
		res.Degraded = true
		return res, fmt.Errorf("enact epoch %d: open checkpoint failed (wave not started): %w", epoch, err)
	}
	// A wave that already includes a known-dead participant aborts up
	// front instead of retrying into a corpse until the deadline.
	for _, p := range parts {
		if d.hostDead(p) {
			d.NoteHostDead(p)
		}
	}

	for _, dst := range dsts {
		// A failed dispatch leaves the host pending; the resend loop below
		// keeps trying within the deadline.
		_ = d.sender.send(dst, cmds[dst])
	}

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	completed := false
	closed := false
	fenced := false
	resend := time.NewTicker(d.cfg.EnactResendInterval)
	defer resend.Stop()
wait:
	for {
		select {
		case <-st.doneCh:
			completed = true
			break wait
		case <-st.abortCh:
			break wait
		case <-d.stop:
			closed = true
			break wait
		case <-deadline.C:
			break wait
		case <-resend.C:
			if d.deposed() {
				// The quorum moved past our term mid-wave: every agent
				// fences our frames, so no done report will ever come.
				// Abort the wave now instead of waiting out the deadline.
				fenced = true
				break wait
			}
			// Re-issue the command to every host still pending: the
			// receiving admin dedups by epoch and re-reports done if
			// its earlier report was lost.
			d.mu.Lock()
			pend := make([]model.HostID, 0, len(st.pendingHosts))
			for h := range st.pendingHosts {
				pend = append(pend, h)
			}
			d.mu.Unlock()
			sortHostIDs(pend)
			for _, h := range pend {
				// A dead destination never reports done (NoteHostDead is
				// already aborting the wave).
				if d.hostDead(h) {
					continue
				}
				// Re-dispatch means the earlier command or its done
				// report was lost — retry pressure is health evidence.
				d.healthScorer().RecordRetry(h)
				_ = d.sender.send(h, cmds[h])
				for _, f := range d.mediatedFor(st, arrivals[h]) {
					_ = d.sender.send(f.to, f.ev)
				}
			}
		}
	}

	d.mu.Lock()
	deadBy := st.deadHost
	wasDeadAbort := st.deadAborted
	d.mu.Unlock()
	switch {
	case completed:
		prep.SetAttr("outcome", "done")
	case closed:
		prep.SetAttr("outcome", "closed")
	case wasDeadAbort:
		prep.SetAttr("outcome", "dead_abort").SetAttr("dead", deadBy)
	case fenced:
		prep.SetAttr("outcome", "fenced")
	default:
		prep.SetAttr("outcome", "timeout")
	}
	prep.End()
	decision := "rollback"
	if completed {
		decision = "commit"
	}
	// Decision checkpoint (durable rule): the outcome is persisted before
	// any participant hears it, so a restarted deployer can only ever
	// re-announce the same decision. A checkpoint failure IS a crash at
	// this transition — no outcome goes out, the error defers the epoch
	// to the restart path, which aborts it (still undecided in the log).
	if !closed {
		if err := d.ckptDecision(epoch, completed); err != nil {
			outSp := wave.Child("outcome").SetAttr("decision", "deferred")
			outSp.End()
			wave.SetAttr("outcome", "crash")
			wave.End()
			d.mu.Lock()
			for h := range st.pendingHosts {
				res.Incomplete = append(res.Incomplete, h)
			}
			res.Relayed = st.relayed
			res.Received = st.received
			delete(d.epochs, epoch)
			d.mu.Unlock()
			sortHostIDs(res.Incomplete)
			res.Degraded = true
			d.waveMetrics(false, res.Moved, waveStart)
			return res, fmt.Errorf("enact epoch %d: decision checkpoint failed (%v); outcome deferred to restart", epoch, err)
		}
	}
	if completed && !closed {
		// A committed wave IS a goal-state transition: fold the moves into
		// the goal table (bumping the touched generations, checkpointed and
		// replicated when a store is attached) so the outcome broadcast can
		// publish the new generations. Idempotent — a crash between the
		// decision record and the goal records is healed by Resume
		// re-applying the same moves.
		gens := d.applyWaveToGoal(moves)
		d.mu.Lock()
		st.gens = gens
		d.mu.Unlock()
	}
	outSp := wave.Child("outcome").SetAttr("decision", decision)
	if closed {
		// Shutting down: best-effort single-shot rollback so reachable
		// participants clean up, but never wait on acks. Unpersisted by
		// design — the epoch stays undecided in the log, and the restart
		// path can only abort an undecided epoch, never contradict this.
		d.broadcastOutcomeOnce(epoch, st, false)
	} else {
		d.broadcastOutcome(epoch, st, completed)
		d.mu.Lock()
		drained := len(st.ackPending) == 0
		d.mu.Unlock()
		if drained {
			// Fully-acked checkpoint: nothing left for a restart to do.
			d.ckptClosed(epoch)
		}
	}
	outSp.End()

	d.mu.Lock()
	for h := range st.pendingHosts {
		res.Incomplete = append(res.Incomplete, h)
	}
	res.Relayed = st.relayed
	res.Received = st.received
	deadAborted, deadHost := st.deadAborted, st.deadHost
	delete(d.epochs, epoch)
	d.mu.Unlock()
	sortHostIDs(res.Incomplete)
	res.Committed = completed
	res.Degraded = res.Received != res.Moved || len(res.Incomplete) > 0
	if completed {
		wave.SetAttr("outcome", "commit")
	} else {
		wave.SetAttr("outcome", "abort")
	}
	wave.End()
	d.waveMetrics(completed, res.Moved, waveStart)
	if completed {
		// The coordinator is the authoritative relocation authority:
		// hop-exhausted relays detour here and are bounced back to their
		// origin with each component's committed location.
		if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
			for comp, dst := range moves {
				dc.RecordRelocation(comp, dst)
			}
		}
	}
	if !closed {
		// Soft-state snapshot (relocation table, dedup windows,
		// incarnations) rides behind every wave, best-effort.
		d.ckptSnapshot()
	}
	if !completed {
		switch {
		case closed:
			return res, fmt.Errorf("enact epoch %d: deployer closed mid-wave (wave rolled back)", epoch)
		case deadAborted:
			return res, fmt.Errorf("enact epoch %d: participant %s died mid-wave (wave rolled back)",
				epoch, deadHost)
		case fenced:
			return res, fmt.Errorf("enact epoch %d: leadership lost at term %d (wave fenced and rolled back)",
				epoch, term)
		default:
			return res, fmt.Errorf("enact epoch %d: %d hosts incomplete after %v (wave rolled back)",
				epoch, len(res.Incomplete), timeout)
		}
	}
	return res, nil
}

// mediatedFor returns the recorded mediated frames for one destination's
// arrivals, in component order.
func (d *DeployerComponent) mediatedFor(st *epochState, arrivals map[string]model.HostID) []mediatedFrame {
	comps := make([]string, 0, len(arrivals))
	for comp := range arrivals {
		comps = append(comps, comp)
	}
	sort.Strings(comps)
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []mediatedFrame
	for _, comp := range comps {
		if f, ok := st.mediated[comp]; ok {
			out = append(out, f)
		}
	}
	return out
}

// waveMetrics records a finished wave's outcome, moved-component count,
// and wall-clock duration in the architecture's registry.
func (d *DeployerComponent) waveMetrics(committed bool, moved int, start time.Time) {
	reg := d.arch.Obs()
	host := string(d.arch.Host())
	outcome := "aborted"
	if committed {
		outcome = "committed"
	}
	reg.Counter(obs.Name("prism_wave_"+outcome+"_total", "host", host)).Inc()
	reg.Counter(obs.Name("prism_wave_moves_total", "host", host)).Add(float64(moved))
	reg.Histogram(obs.Name("prism_wave_duration_ms", "host", host), nil).
		Observe(float64(d.cfg.Clock().Sub(start).Milliseconds()))
}

// broadcastOutcome drives phase two: it tells every participant to commit
// or roll back and re-sends the outcome until each host acknowledges or
// the ack budget expires. It returns the number of participants that
// acknowledged.
func (d *DeployerComponent) broadcastOutcome(epoch int, st *epochState, commit bool) int {
	e, parts := d.broadcastOutcomeOnce(epoch, st, commit)
	budget := time.NewTimer(d.cfg.OutcomeAckTimeout)
	defer budget.Stop()
	resend := time.NewTicker(d.cfg.EnactResendInterval)
	defer resend.Stop()
	for {
		d.mu.Lock()
		remaining := make([]model.HostID, 0, len(st.ackPending))
		for h := range st.ackPending {
			remaining = append(remaining, h)
		}
		d.mu.Unlock()
		if len(remaining) == 0 {
			return len(parts)
		}
		sortHostIDs(remaining)
		select {
		case <-st.ackCh:
		case <-resend.C:
			if d.deposed() {
				// Fenced: every remaining participant rejects our term, and
				// the new leader re-announces the same durable outcome.
				return len(parts) - len(remaining)
			}
			for _, h := range remaining {
				if d.hostDead(h) {
					d.mu.Lock()
					delete(st.ackPending, h)
					d.mu.Unlock()
					continue
				}
				// An unacknowledged outcome re-broadcast is retry
				// pressure toward a still-pending host.
				d.healthScorer().RecordRetry(h)
				_ = d.sender.send(h, e)
			}
		case <-d.stop:
			return len(parts) - len(remaining)
		case <-budget.C:
			return len(parts) - len(remaining)
		}
	}
}

// broadcastOutcomeOnce is phase two's first pass, and all of it on the
// shutdown path: it arms the ack table and sends the outcome once to
// every live participant, returning the frame and the hosts it went to.
// Dead participants never ack, so they are waived up front and phase two
// converges on the survivors alone.
func (d *DeployerComponent) broadcastOutcomeOnce(epoch int, st *epochState, commit bool) (Event, []model.HostID) {
	e := Event{
		Name: EvOutcome, Target: AdminID, SizeKB: 0.3,
		Payload: d.outcomePayload(epoch, st, commit),
	}
	d.mu.Lock()
	all := make([]model.HostID, 0, len(st.participants))
	for h := range st.participants {
		all = append(all, h)
	}
	d.mu.Unlock()
	sortHostIDs(all)
	parts := all[:0]
	for _, h := range all {
		if !d.hostDead(h) {
			parts = append(parts, h)
		}
	}
	d.mu.Lock()
	st.ackPending = make(map[model.HostID]bool, len(parts))
	st.ackCh = make(chan struct{}, 1)
	for _, h := range parts {
		st.ackPending[h] = true
	}
	d.mu.Unlock()
	for _, h := range parts {
		_ = d.sender.send(h, e)
	}
	return e, parts
}

// outcomePayload builds a wave outcome under the wave's original
// coordinator identity (participants key their state by it), stamped
// with the current fencing term and with this host as the ack/bounce
// target — after a failover the two differ.
func (d *DeployerComponent) outcomePayload(epoch int, st *epochState, commit bool) WaveOutcome {
	coord := st.coordinator
	if coord == "" {
		coord = d.arch.Host()
	}
	d.mu.Lock()
	gens := st.gens
	d.mu.Unlock()
	if !commit {
		gens = nil // aborted waves never advance a generation
	}
	return WaveOutcome{
		Epoch: epoch, Coordinator: coord, Commit: commit,
		Term: d.term(), ReplyTo: d.arch.Host(), Gens: gens,
	}
}
