package prism

import (
	"cmp"
	"encoding/gob"
	"maps"
	"slices"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// Control-plane event names used by the admin/deployer protocol.
const (
	EvReportRequest = "admin.reportRequest"
	EvReport        = "admin.report"
	EvReconfig      = "admin.reconfig"
	EvFetch         = "admin.fetch"
	EvTransfer      = "admin.transfer"
	EvDone          = "admin.done"
	EvOutcome       = "admin.outcome"
	EvOutcomeAck    = "admin.outcomeAck"
)

// AdminID is the well-known component ID of each host's admin.
const AdminID = "prism.admin"

// MonitoringReport is an admin's description of its local deployment
// architecture and monitored data, sent to the deployer (DSN'04 §4.3
// "Monitor": "the AdminComponent sends the description of its local
// deployment architecture and the monitored data ... to the
// DeployerComponent").
type MonitoringReport struct {
	Host model.HostID
	// Round is the request round the report answers (zero when unasked).
	Round        uint64
	Components   []string
	Interactions []InteractionSample
	Links        []ReliabilitySample
}

// ReportRequest asks an admin for its monitoring report. Round numbers
// the deployer's collection rounds: a re-request in the same round is
// answered from the report already built for it.
type ReportRequest struct {
	Round uint64
}

// ReconfigCommand tells an admin its new local configuration: the
// components it must acquire and where each currently lives. Departures
// are driven by the fetch requests other admins send. Epoch identifies
// the redeployment wave for deduplication.
type ReconfigCommand struct {
	Epoch    int
	Arrivals map[string]model.HostID // component → source host
	// Coordinator is the host whose deployer issued the command and
	// awaits the done report; empty falls back to the admin's configured
	// deployer (the centralized master).
	Coordinator model.HostID
	// Term is the issuing leader's fencing term. Zero is the legacy
	// unfenced value (solo deployer); admins reject any non-zero term
	// below their fence.
	Term uint64
	// Gen is the goal-state generation this host reaches if the wave
	// commits (a wave is a fenced generation bump; see goalstate.go).
	Gen uint64
}

// FetchRequest asks the admin on the component's current host to detach,
// serialize, and ship it to the requester.
type FetchRequest struct {
	Epoch int
	// Coordinator scopes the epoch: every deployer numbers its own
	// redeployment waves independently.
	Coordinator model.HostID
	Comp        string
	Requester   model.HostID
	// Source is the host currently holding the component (known to the
	// requester from its reconfig command); mediators forward there.
	Source model.HostID
	// Mediated marks requests relayed through the wave's coordinator
	// because the requester and source are not directly connected.
	Mediated bool
}

// TransferPayload carries a serialized component between hosts.
type TransferPayload struct {
	Epoch       int
	Coordinator model.HostID
	Comp        string
	TypeName    string
	State       []byte
	SizeKB      float64
	// FinalDst lets the deployer mediate transfers between unconnected
	// hosts: when set and different from the receiving host, the receiver
	// forwards the payload onward.
	FinalDst model.HostID
	// Source is the host that prepared the component (and captured Held
	// and Dedup below).
	Source model.HostID
	// Held carries the stamped application events buffered for the
	// component at the source up to the moment it shipped, so buffered
	// traffic commits or aborts with the wave instead of evaporating
	// with a crashed source. Each entry is one EncodeEvent frame.
	Held [][]byte
	// Dedup carries the component's receiver-side dedup windows, so
	// exactly-once delivery survives the move: retransmissions of events
	// the old host already delivered are swallowed at the new one.
	Dedup []DedupSnapshot
}

// DoneReport tells the deployer a host finished its part of an epoch.
type DoneReport struct {
	Epoch    int
	Host     model.HostID
	Received int
}

// WaveOutcome ends a redeployment wave (phase two of the two-phase
// migration): commit once every destination confirmed reconstitution, or
// abort so participants roll back — sources reattach their prepared
// components, destinations evict uncommitted arrivals.
type WaveOutcome struct {
	Epoch int
	// Coordinator is the wave's ORIGINAL coordinator — the identity the
	// participants keyed their two-phase state by — even when a promoted
	// standby re-announces the outcome after a failover.
	Coordinator model.HostID
	Commit      bool
	// Term is the announcing leader's fencing term (zero = legacy
	// unfenced).
	Term uint64
	// ReplyTo, when set, is the live deployer that should receive the
	// acknowledgement and any hop-exhausted traffic bounces; empty falls
	// back to Coordinator (the solo-deployer case).
	ReplyTo model.HostID
	// Gens publishes the participants' goal-state generations reached by
	// this commit (the generation-bump half of wave-on-goal-state). Nil
	// on aborts.
	Gens map[model.HostID]uint64
}

// OutcomeAck confirms a participant applied a wave outcome; the
// coordinator re-broadcasts the outcome until every participant acks.
type OutcomeAck struct {
	Epoch int
	Host  model.HostID
}

// registerControlPayloads makes the control payloads that still travel
// on gob encodable when events cross host boundaries; the wave and
// leadership payloads ride the binary codec's control family.
func registerControlPayloads() {
	registerRelayPayload()
	gob.Register(MonitoringReport{})
	gob.Register(ReportRequest{})
	gob.Register(Heartbeat{})
	// Goal-state payloads normally ride the binary codec; the gob
	// registrations keep relay envelopes and test harnesses general.
	gob.Register(GoalAnnounce{})
	gob.Register(GoalDelta{})
	gob.Register(GoalAck{})
}

var registerPayloadsOnce sync.Once

// AdminConfig configures an AdminComponent.
type AdminConfig struct {
	// Deployer is the host running the DeployerComponent.
	Deployer model.HostID
	// Bus is the name of the distribution connector application
	// components and the admin are welded to; migrated components are
	// re-welded to it on arrival.
	Bus string
	// Registry reconstitutes migrated components.
	Registry *FactoryRegistry
	// EnactResendInterval paces every re-drive of the deployer loop: the
	// re-dispatch of reconfig commands to hosts that have not reported
	// done (each re-dispatch also makes the destination re-fetch its
	// missing arrivals), the re-request of missing monitoring reports,
	// the re-broadcast of unacknowledged wave outcomes, and a campaign's
	// lease-request re-broadcast. Zero selects the default.
	EnactResendInterval time.Duration
	// OutcomeAckTimeout bounds how long the deployer waits for every
	// participant to acknowledge a wave's commit/abort outcome. Zero
	// selects the default.
	OutcomeAckTimeout time.Duration
	// Incarnation is this host's lifetime number, carried on every
	// heartbeat. A restarted host rejoins with a strictly greater
	// incarnation so the deployer's failure detector can distinguish a
	// resurrection from a replayed frame of the dead lifetime.
	Incarnation uint64
	// Clock supplies every wall-clock read in the admin/deployer layer
	// that feeds metrics or staleness decisions (wave durations, monitor
	// aging). Nil selects time.Now; deterministic drills inject their
	// stepped clock here (via WorldConfig.Tune) so traced runs are
	// byte-identical across same-seed repetitions.
	Clock func() time.Time
}

// Control-plane reliability defaults.
const (
	// DefaultEnactResendInterval paces deployer-side re-dispatch.
	DefaultEnactResendInterval = 75 * time.Millisecond
	// DefaultOutcomeAckTimeout bounds the commit/abort ack collection.
	DefaultOutcomeAckTimeout = 2 * time.Second
)

// withDefaults resolves zero-valued knobs shared by admins and deployers.
func (c AdminConfig) withDefaults() AdminConfig {
	if c.EnactResendInterval <= 0 {
		c.EnactResendInterval = DefaultEnactResendInterval
	}
	if c.OutcomeAckTimeout <= 0 {
		c.OutcomeAckTimeout = DefaultOutcomeAckTimeout
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// AdminComponent is the meta-level ExtensibleComponent with the Admin
// implementation of IAdmin (DSN'04 §4.2): it holds a reference to its
// local Architecture, monitors it, and effects run-time changes —
// detaching, serializing, shipping, reconstituting, and attaching
// components during redeployment.
type AdminComponent struct {
	BaseComponent
	arch *Architecture
	cfg  AdminConfig

	mu sync.Mutex
	// part is this host's side of the two-phase waves (wave.go): one
	// record per open wave, and the epochs it settled per coordinator.
	part partCore

	freqMon *EvtFrequencyMonitor
	relMon  *NetworkReliabilityMonitor
	sender  *controlSender

	// stop terminates the pump goroutines; wg waits for them. closed
	// (under mu) is set before the Wait and checked before every Add, so
	// the two cannot race.
	stop   chan struct{}
	closed bool
	wg     sync.WaitGroup

	// incarnation and hbSeq stamp outgoing heartbeats.
	incarnation uint64
	hbSeq       uint64
	// reportRound and reportFrom identify the last report request this
	// admin answered, and lastReport is the answer: a repeat of that
	// round (its reply was lost) is answered from the cache, so the
	// frequency window resets once per round.
	reportRound uint64
	reportFrom  model.HostID
	lastReport  MonitoringReport

	// voter is this agent's lease and goal-state record (lease.go): the
	// fence, the current grant, the term → candidate log, the goal
	// generation and the pending announce.
	voter voterCore
}

// NewAdminComponent builds an admin for the architecture. The admin must
// then be added to the architecture and welded to cfg.Bus by the caller
// (or use InstallAdmin).
func NewAdminComponent(arch *Architecture, cfg AdminConfig) *AdminComponent {
	registerPayloadsOnce.Do(registerControlPayloads)
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		cfg.Registry = NewFactoryRegistry()
	}
	a := &AdminComponent{
		BaseComponent: NewBaseComponent(AdminID),
		arch:          arch,
		cfg:           cfg,
		sender:        newControlSender(arch, cfg, AdminID),
		part:          newPartCore(arch.Host(), cfg.Deployer),
		voter:         newVoterCore(arch.Host(), cfg.Deployer),
		stop:          make(chan struct{}),
	}
	return a
}

// InstallAdmin creates an admin, adds it to the architecture, welds it to
// the bus, and attaches its monitors.
func InstallAdmin(arch *Architecture, cfg AdminConfig) (*AdminComponent, error) {
	admin := NewAdminComponent(arch, cfg)
	if err := arch.AddComponent(admin); err != nil {
		return nil, err
	}
	if err := arch.Weld(AdminID, cfg.Bus); err != nil {
		return nil, err
	}
	admin.AttachMonitors()
	if dc := arch.DistributionConnector(cfg.Bus); dc != nil {
		dc.SetIncarnation(cfg.Incarnation)
	}
	return admin, nil
}

// StartDeliveryTicks launches a background pump driving the bus
// connector's delivery-guarantee retransmission at the given interval
// until the admin is closed. Live binaries use this; deterministic
// tests call DistributionConnector.DeliveryTick directly instead.
func (a *AdminComponent) StartDeliveryTicks(interval time.Duration) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	dc := a.arch.DistributionConnector(a.cfg.Bus)
	if dc == nil {
		return
	}
	a.every(interval, func() { dc.DeliveryTick() })
}

// Architecture returns the admin's local architecture (the
// ExtensibleComponent's reference to Architecture).
func (a *AdminComponent) Architecture() *Architecture { return a.arch }

// Incarnation returns the admin's current lifetime number.
func (a *AdminComponent) Incarnation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.incarnation == 0 {
		return a.cfg.Incarnation
	}
	return a.incarnation
}

// SetIncarnation overrides the admin's lifetime number (a restarted host
// rejoins with a strictly greater incarnation). The bus distribution
// connector inherits it so the delivery layer's fresh sequence streams
// are not deduplicated against the previous lifetime's.
func (a *AdminComponent) SetIncarnation(inc uint64) {
	a.mu.Lock()
	a.incarnation = inc
	a.mu.Unlock()
	a.sender.setIncarnation(inc)
	if dc := a.arch.DistributionConnector(a.cfg.Bus); dc != nil {
		dc.SetIncarnation(inc)
	}
}

// SendHeartbeat emits one liveness beacon to the lease holder (the
// configured deployer while none is known), carrying this host's
// incarnation and component manifest, and re-announces the goal state
// while an announce is still unanswered (the heartbeat tick is the
// announce's re-driver). It is safe to drive manually (deterministic
// drills) or from StartHeartbeats.
func (a *AdminComponent) SendHeartbeat() error {
	return a.vote(voterInput{kind: vBeat})
}

// StartHeartbeats launches a background pump emitting heartbeats at the
// given interval until the admin is closed. Live binaries use this;
// deterministic tests call SendHeartbeat directly instead.
func (a *AdminComponent) StartHeartbeats(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	a.every(interval, func() { _ = a.SendHeartbeat() })
}

// AttachMonitors installs the event-frequency monitor on the bus and the
// reliability monitor on the bus's distribution connector.
func (a *AdminComponent) AttachMonitors() {
	dc := a.arch.DistributionConnector(a.cfg.Bus)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.freqMon == nil {
		a.freqMon = NewEvtFrequencyMonitor()
		// Monitor staleness ages on the same injected clock as the rest of
		// the layer, so drill reports do not drift with real time.
		a.freqMon.SetClock(a.cfg.Clock)
		if conn := a.arch.Connector(a.cfg.Bus); conn != nil {
			conn.AddMonitor(a.freqMon)
		}
	}
	if a.relMon == nil && dc != nil {
		a.relMon = NewNetworkReliabilityMonitor(dc)
	}
}

// DetachMonitors removes the admin's monitors from the bus (used by the
// monitoring-overhead experiments).
func (a *AdminComponent) DetachMonitors() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if conn := a.arch.Connector(a.cfg.Bus); conn != nil {
		conn.RemoveMonitors()
	}
	a.freqMon = nil
	a.relMon = nil
}

// FrequencyMonitor returns the admin's event-frequency monitor (nil when
// monitors are detached).
func (a *AdminComponent) FrequencyMonitor() *EvtFrequencyMonitor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freqMon
}

// ReliabilityMonitor returns the admin's network-reliability monitor.
func (a *AdminComponent) ReliabilityMonitor() *NetworkReliabilityMonitor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.relMon
}

// Report assembles the local monitoring report: deployment description,
// interaction frequencies (window reset), and link reliabilities.
func (a *AdminComponent) Report(resetWindow bool) MonitoringReport {
	rep := MonitoringReport{Host: a.arch.Host(), Components: a.localManifest()}
	a.mu.Lock()
	freqMon, relMon := a.freqMon, a.relMon
	a.mu.Unlock()
	if freqMon != nil {
		rep.Interactions = freqMon.Snapshot(resetWindow)
	}
	if relMon != nil {
		rep.Links = relMon.MeasureOnce()
	}
	return rep
}

// Handle implements Component: the admin's control-plane state machine.
func (a *AdminComponent) Handle(e Event) {
	if e.kind() != KindControl {
		return
	}
	switch e.Name {
	case EvReportRequest:
		req, _ := e.Payload.(ReportRequest)
		// A configured deployer wins; the requester is the fallback.
		_ = a.sender.send(cmp.Or(a.cfg.Deployer, e.SrcHost), Event{
			Name: EvReport, Target: DeployerID, Payload: a.answerReport(req.Round, e.SrcHost), SizeKB: 2,
		})
	case EvReconfig:
		if cmd, ok := e.Payload.(ReconfigCommand); ok {
			a.wave(partInput{kind: pReconfig, cmd: cmd})
		}
	case EvFetch:
		if req, ok := e.Payload.(FetchRequest); ok {
			a.wave(partInput{kind: pFetch, req: req})
		}
	case EvTransfer:
		tp, ok := e.Payload.(TransferPayload)
		switch {
		case !ok:
		case tp.FinalDst != "" && tp.FinalDst != a.arch.Host():
			// Mediation: pass it along.
			_ = a.sender.send(tp.FinalDst, Event{Name: EvTransfer, Target: AdminID, Payload: tp, SizeKB: tp.SizeKB})
		default:
			a.wave(partInput{kind: pTransfer, tp: tp})
		}
	case EvOutcome:
		if out, ok := e.Payload.(WaveOutcome); ok {
			a.wave(partInput{kind: pOutcome, out: out})
		}
	case EvGoalDelta:
		gd, ok := e.Payload.(GoalDelta)
		if !ok {
			return
		}
		a.vote(voterInput{kind: vDelta, delta: gd})
	case EvLeaseRequest:
		req, ok := e.Payload.(LeaseRequest)
		if !ok {
			return
		}
		a.handleLeaseRequest(req)
	case EvRelay:
		env, ok := e.Payload.(RelayPayload)
		if !ok {
			return
		}
		a.sender.handleRelay(env, e.SrcHost)
	}
}

// answerReport returns the report for one request round: a fresh one
// (resetting the frequency window) for a new round, the cached one for a
// repeat of the round last answered. Round 0 is never cached.
func (a *AdminComponent) answerReport(round uint64, from model.HostID) MonitoringReport {
	a.mu.Lock()
	if round != 0 && round == a.reportRound && from == a.reportFrom {
		rep := a.lastReport
		a.mu.Unlock()
		return rep
	}
	a.mu.Unlock()
	rep := a.Report(true)
	rep.Round = round
	a.mu.Lock()
	a.reportRound, a.reportFrom, a.lastReport = round, from, rep
	a.mu.Unlock()
	return rep
}

// handleLeaseRequest is this agent's vote in a leadership election
// (voterCore.vote has the grant rule).
func (a *AdminComponent) handleLeaseRequest(req LeaseRequest) {
	a.vote(voterInput{kind: vLease, req: req})
}

// LeaseGrants returns this agent's term → granted-candidate record
// (chaos drills assert that, merged across agents, no term ever maps
// to two candidates).
func (a *AdminComponent) LeaseGrants() map[uint64]model.HostID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return maps.Clone(a.voter.grants)
}

// FenceTerm returns the highest fencing term this agent acknowledged.
func (a *AdminComponent) FenceTerm() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.voter.fence
}

// vote steps the voter and performs its outputs. It returns the result
// of the first send (the heartbeat's or the announce's, for their
// callers).
func (a *AdminComponent) vote(in voterInput) error {
	if in.kind == vLease {
		in.now = a.cfg.Clock()
	}
	a.mu.Lock()
	outs := a.voter.step(in)
	a.mu.Unlock()
	return a.performVotes(outs)
}

// performVotes performs the voter's outputs in order.
func (a *AdminComponent) performVotes(outs []voterOutput) (err error) {
	sent := false
	send := func(to model.HostID, ev Event) {
		if e := a.sender.send(to, ev); !sent {
			sent, err = true, e
		}
	}
	self := a.arch.Host()
	for _, o := range outs {
		switch o.kind {
		case vSend:
			send(o.to, o.ev)
		case vApply:
			a.applyDelta(o.delta)
			a.vote(voterInput{kind: vApplied, delta: o.delta})
		case vAnnounceTo:
			send(o.to, Event{Name: EvGoalAnnounce, Target: DeployerID, SizeKB: 0.4, Payload: GoalAnnounce{
				Host: self, Incarnation: a.Incarnation(), Generation: o.gen, Manifest: a.localManifest()}})
		case vBeatTo:
			hb := Heartbeat{Host: self, Incarnation: a.Incarnation(), Components: a.localManifest()}
			a.mu.Lock()
			a.hbSeq++
			hb.Seq = a.hbSeq
			a.mu.Unlock()
			send(o.to, Event{Name: EvHeartbeat, Target: DeployerID, Payload: hb, SizeKB: 0.2})
		case vAckTo:
			send(o.to, Event{Name: EvGoalAck, Target: DeployerID, SizeKB: 0.3,
				Payload: GoalAck{Host: self, Generation: o.gen, Manifest: a.localManifest()}})
		case vCount:
			a.arch.Obs().Counter(obs.Name(o.metric, "host", string(self))).Inc()
		}
	}
	return err
}

// wave steps the participant core behind the voter's fence and performs
// what it returns, in order: the sends, and the architecture work of
// holding, detaching, reconstituting, committing and rolling back. A lost
// fetch, transfer or done report is re-driven by the coordinator's
// re-dispatch of the reconfig.
func (a *AdminComponent) wave(in partInput) {
	a.mu.Lock()
	vouts, outs := participate(&a.voter, &a.part, in, (*partCore).step)
	a.mu.Unlock()
	_ = a.performVotes(vouts)
	for _, o := range outs {
		switch o.kind {
		case pSend:
			_ = a.sender.send(o.to, o.ev)
		case pLeg:
			a.sendLeg(o)
		case pHold:
			if bus := a.arch.Connector(a.cfg.Bus); bus != nil {
				bus.Hold(o.comp)
			}
		case pDetach:
			a.detach(o.req)
		case pRestore:
			a.wave(partInput{kind: pRestored, tp: o.tp, ok: a.restore(o.tp)})
		case pCommit:
			a.commitWave(o.wave, o.to)
		case pAbort:
			a.abortWave(o.wave, o.to)
		}
	}
}

// sendLeg sends a fetch or a transfer to its host, or, when that host is
// not a peer, to the wave's coordinator to forward (the paper's mediation
// rule): the coordinator's re-dispatch tick also re-forwards what it
// mediates.
func (a *AdminComponent) sendLeg(o partOutput) {
	to, ev := o.to, o.ev
	if !a.sender.isPeer(to) && to != a.arch.Host() {
		if req, ok := ev.Payload.(FetchRequest); ok {
			req.Mediated = true
			ev.Payload = req
		}
		to, ev.Target = o.coord, DeployerID
	}
	_ = a.sender.send(to, ev)
}

// every runs f at the given interval on a goroutine Close waits for;
// after Close it does nothing.
func (a *AdminComponent) every(interval time.Duration, f func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f()
			case <-a.stop:
				return
			}
		}
	}()
}

// Close stops the admin's pump goroutines and waits for them to exit.
// The admin stops participating in redeployment afterwards.
func (a *AdminComponent) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.stop)
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// detach takes a component out for a wave and serializes it, but only
// *prepares* the departure (phase one of the two-phase migration): its
// traffic is held on every connector it is welded to, and the live
// instance is kept with its welds until the wave's outcome — a commit
// drops it and relays the traffic onward, an abort re-attaches it as if
// nothing happened.
func (a *AdminComponent) detach(req FetchRequest) {
	mig, ok := a.arch.Component(req.Comp).(Migratable)
	if !ok {
		return // not here (a stale request), or unmigratable: never ships
	}
	welds := a.arch.WeldsOf(req.Comp)
	for _, w := range welds {
		if conn := a.arch.Connector(w); conn != nil {
			conn.Hold(req.Comp)
		}
	}
	if _, err := a.arch.RemoveComponent(req.Comp); err != nil {
		return
	}
	prep := &preparedComp{id: req.Comp, comp: mig, welds: welds, requester: req.Requester}
	state, err := mig.Snapshot()
	if err != nil {
		a.wave(partInput{kind: pPrepared, req: req, prep: prep})
		return
	}
	tp := TransferPayload{
		Epoch: req.Epoch, Coordinator: req.Coordinator, Comp: req.Comp, TypeName: mig.TypeName(),
		State: state, SizeKB: float64(len(state))/1024 + 1, FinalDst: req.Requester, Source: a.arch.Host(),
	}
	// Crash-safe handoff: stamped traffic buffered here travels inside
	// the payload, so it commits or aborts with the wave even if this
	// host dies before relaying. Receiver-side dedup filters the overlap
	// with the commit-time relay of the same buffer. Unstamped events
	// stay out: they have no identity to dedup by and ride the relay
	// path alone.
	if bus := a.arch.Connector(a.cfg.Bus); bus != nil {
		for _, held := range bus.HeldSnapshot(req.Comp) {
			if held.Seq == 0 {
				continue
			}
			if raw, err := EncodeEvent(held); err == nil {
				tp.Held = append(tp.Held, raw)
				tp.SizeKB += held.EffectiveSizeKB()
			}
		}
	}
	if dc := a.arch.DistributionConnector(a.cfg.Bus); dc != nil {
		tp.Dedup = dc.SnapshotDedup(req.Comp)
	}
	prep.shipped = tp
	a.wave(partInput{kind: pPrepared, req: req, prep: prep, ok: true})
}

// relayHeld re-routes events buffered for a departed component to its
// new host, preserving each event's delivery identity so the receiver
// can dedup the relay against the origin's own retransmissions. A
// stamped event whose hop budget is spent detours via the wave
// coordinator — whose relocation table knows the authoritative location
// and bounces it back to the origin — instead of chasing a component
// that moves faster than its traffic. The relay counter is updated once
// per batch, not once per event.
func (a *AdminComponent) relayHeld(conn *Connector, comp string, newHost, coordinator model.HostID) {
	conn.mu.Lock()
	events := conn.held[comp]
	delete(conn.held, comp)
	conn.heldGauge.Add(-float64(len(events)))
	conn.mu.Unlock()
	if len(events) == 0 {
		return
	}
	maxHops := a.maxAppHops()
	for _, held := range events {
		held.SrcHost = "" // re-originate so the DC forwards it
		held.Hops++
		held.DstHost = newHost
		if held.Seq != 0 && held.Hops > maxHops &&
			coordinator != "" && coordinator != a.arch.Host() && coordinator != newHost {
			held.DstHost = coordinator
		}
		conn.Route(held)
	}
	a.arch.Obs().Counter(obs.Name("prism_app_relayed_total", "host", string(a.arch.Host()))).
		Add(float64(len(events)))
}

// maxAppHops resolves the relay hop budget from the bus connector's
// delivery configuration.
func (a *AdminComponent) maxAppHops() int {
	dc := a.arch.DistributionConnector(a.cfg.Bus)
	if dc == nil {
		return DefaultMaxAppHops
	}
	dc.delivery.mu.Lock()
	defer dc.delivery.mu.Unlock()
	return dc.delivery.cfg.MaxHops
}

// restore reconstitutes an arriving component and reports whether it
// attached. The arrival stays held until the wave commits, so an aborted
// wave can evict it before it observed an event here: the migrated dedup
// windows are installed before any traffic can reach it, and the
// source's buffered events join the local hold, to deliver on commit
// (dedup filtering the overlap with the source's own relay) or bounce
// back on abort.
func (a *AdminComponent) restore(tp TransferPayload) bool {
	comp, err := a.cfg.Registry.New(tp.TypeName, tp.Comp)
	if err != nil || comp.Restore(tp.State) != nil || a.arch.AddComponent(comp) != nil {
		return false
	}
	if err := a.arch.Weld(tp.Comp, a.cfg.Bus); err != nil {
		_, _ = a.arch.RemoveComponent(tp.Comp)
		return false
	}
	if dc := a.arch.DistributionConnector(a.cfg.Bus); dc != nil {
		dc.RestoreDedup(tp.Dedup)
	}
	if bus := a.arch.Connector(a.cfg.Bus); bus != nil {
		for _, raw := range tp.Held {
			e, err := DecodeEvent(raw)
			if err != nil {
				continue
			}
			e.DstHost = ""
			if e.SrcHost == "" {
				// Keep "already crossed a host boundary" true so local
				// routing does not re-broadcast the copy.
				e.SrcHost = tp.Source
			}
			if !bus.InjectHeld(tp.Comp, e) {
				bus.Route(e)
			}
		}
	}
	return true
}

// commitWave finalizes a wave locally: each departure's instance is
// dropped — its dedup state travelled with it, the relocation table
// records where it went, and the traffic buffered during detachment is
// relayed there — and each arrival's held traffic is released.
func (a *AdminComponent) commitWave(w *partWave, authority model.HostID) {
	dc := a.arch.DistributionConnector(a.cfg.Bus)
	for _, p := range w.departs {
		if dc != nil {
			// Stale routes arriving here now bounce with the new location.
			dc.dropDedup(p.id)
			dc.RecordRelocation(p.id, p.requester)
		}
		for _, weld := range p.welds {
			if conn := a.arch.Connector(weld); conn != nil {
				a.relayHeld(conn, p.id, p.requester, authority)
			}
		}
	}
	bus := a.arch.Connector(a.cfg.Bus)
	for comp := range w.arrivals {
		if dc != nil {
			// It lives here now; stop bouncing and stop hinting elsewhere.
			dc.RecordRelocation(comp, a.arch.Host())
		}
		if bus != nil {
			bus.Release(comp, true)
		}
	}
}

// abortWave rolls a wave back locally: departures are re-attached with
// their welds and their buffered traffic released to them; arrivals
// reconstituted here are evicted with their imported dedup windows (the
// source keeps the originals), and traffic held for every arrival
// bounces back to its still authoritative source.
func (a *AdminComponent) abortWave(w *partWave, authority model.HostID) {
	for _, p := range w.departs {
		if err := a.arch.AddComponent(p.comp); err != nil {
			continue
		}
		for _, weld := range p.welds {
			_ = a.arch.Weld(p.id, weld)
			if conn := a.arch.Connector(weld); conn != nil {
				conn.Release(p.id, true)
			}
		}
	}
	bus := a.arch.Connector(a.cfg.Bus)
	dc := a.arch.DistributionConnector(a.cfg.Bus)
	for comp, src := range w.arrivals {
		if slices.Contains(w.arrived, comp) {
			_, _ = a.arch.RemoveComponent(comp)
			if dc != nil {
				dc.dropDedup(comp)
			}
		}
		if bus != nil {
			a.relayHeld(bus, comp, src, authority)
		}
	}
}
