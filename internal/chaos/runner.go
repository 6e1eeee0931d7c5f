package chaos

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/prism"
)

// Result is the outcome of one scenario run.
type Result struct {
	// Report is the deterministic scenario report: same seed, same bytes.
	Report string
	// Ops is the executed op list (already embedded in Report).
	Ops []Op
}

// Run executes one seeded chaos scenario end to end and checks every
// invariant. It returns an error — with diagnostics — the moment the
// world violates the delivery contract; a nil error means the scenario
// settled with zero lost events, zero duplicate deliveries, a consistent
// single placement for every probe, and monotonic wave epochs.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ops := GenerateScenario(cfg)

	sys := model.NewSystem()
	hosts := hostIDs(cfg.Hosts)
	for _, h := range hosts {
		sys.AddHost(h, model.ParamsFrom(map[string]float64{model.ParamMemory: 64}))
	}
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			// The fabric itself is perfect; all chaos is injected above it
			// by the per-host FaultTransports and explicit partitions.
			if _, err := sys.AddLink(a, b, model.ParamsFrom(map[string]float64{
				model.ParamReliability: 1,
				model.ParamBandwidth:   1 << 20,
			})); err != nil {
				return nil, err
			}
		}
	}

	ledger := NewLedger()
	w, err := framework.NewWorld(sys, model.Deployment{}, framework.WorldConfig{
		Seed:   cfg.Seed,
		Master: hosts[0],
		Fault: &prism.FaultConfig{
			Seed:      cfg.Seed,
			DropRate:  cfg.DropRate,
			DupRate:   cfg.DupRate,
			DelayRate: cfg.DelayRate,
			Delay:     cfg.Delay,
		},
		// Retransmission never gives up mid-soak: abandonment would turn a
		// transient outage into a silently lost event, which is exactly
		// what the invariants must catch.
		Delivery: &prism.DeliveryConfig{MaxAttempts: 1 << 30},
		// Every host runs the bounded, class-prioritized admission
		// controller on its receive path — the soak's floods and bursts
		// all cross it, so shedding plus retransmission must still deliver
		// exactly once.
		Admission: prism.AdmissionConfig{Enabled: true, QueueCap: chaosAdmissionCap},
		Tune: func(ac *prism.AdminConfig) {
			ac.EnactResendInterval = 15 * time.Millisecond
		},
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	// Bandwidth-accurate queueing with no cap: coalesced frames contend
	// for link bandwidth like they would on the wire, but nothing is
	// tail-dropped, so reports stay byte-identical per seed.
	w.Fabric.SetBandwidthAccurate(true, 0)
	w.Registry.Register(ProbeTypeName, func(id string) prism.Migratable {
		return NewProbe(id, ledger)
	})

	// Every scenario runs a highly available deployer tier: h1 and h2
	// both carry a deployer on its own durable checkpoint log, the leader
	// streams every checkpoint to the standby, and the leadership ops
	// (leader-kill, lease-pause) move the lease between them. Normal
	// waves exercise the checkpoint write path; the deployer-crash and
	// deployer-restart ops kill and resurrect the current leader from it.
	stateDir, err := os.MkdirTemp("", "chaos-deployer-state-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	dirs := map[model.HostID]string{
		hosts[0]: stateDir + "/h1",
		hosts[1]: stateDir + "/h2",
	}
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	r := &runner{
		cfg:       cfg,
		w:         w,
		ledger:    ledger,
		master:    hosts[0],
		leader:    hosts[0],
		hosts:     hosts,
		probes:    probeIDs(cfg.Probes),
		placement: initialPlacement(hosts, probeIDs(cfg.Probes)),
		restarts:  make(map[model.HostID]int),
		dirs:      dirs,
		deadSeen:  make(map[model.HostID]bool),
		crashed:   make(map[model.HostID]bool),
	}
	ha, err := w.EnableHA(framework.HAConfig{
		Standbys:  []model.HostID{hosts[1]},
		StateDirs: dirs,
		Lease: prism.LeaderConfig{
			Agents:          hosts,
			LeaseTTL:        chaosLeaseTTL,
			CampaignTimeout: chaosCampaignTimeout,
		},
	})
	if err != nil {
		return nil, err
	}
	r.ha = ha
	defer ha.Close()
	// The shared failure detector: every heartbeat the fleet pulses out
	// feeds it through whichever deployer receives the beacon, and every
	// HostDead verdict it ever publishes is recorded for the
	// no-false-dead invariant.
	r.fd = prism.NewFailureDetector(chaosSuspectAfter, chaosDeadAfter)
	r.fd.Subscribe(func(tr prism.Transition) {
		if tr.To == prism.HostDead {
			r.deadMu.Lock()
			r.deadSeen[tr.Host] = true
			r.deadMu.Unlock()
		}
	})
	ha.Deps[hosts[0]].AttachDetector(r.fd)
	ha.Deps[hosts[1]].AttachDetector(r.fd)
	if err := r.drive(func() error {
		won, err := ha.Leads[hosts[0]].Campaign()
		if err != nil {
			return err
		}
		if !won {
			return fmt.Errorf("initial campaign on %s lost", hosts[0])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, p := range r.probes {
		if err := r.addProbe(p, r.placement[p]); err != nil {
			return nil, err
		}
	}

	for i, op := range ops {
		if err := r.exec(op); err != nil {
			return nil, fmt.Errorf("seed %d op %d (%s): %w", cfg.Seed, i, op.describe(), err)
		}
	}
	if err := r.settle(); err != nil {
		return nil, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	if err := r.checkInvariants(); err != nil {
		return nil, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	return &Result{Report: r.report(ops), Ops: ops}, nil
}

// runner executes a generated scenario against a live world. All world
// mutations happen on the caller's goroutine (waves run concurrently but
// only touch deployer internals), so the soak is race-detector clean.
type runner struct {
	cfg    Config
	w      *framework.World
	ledger *Ledger

	master model.HostID
	// leader is the deployer host currently holding the lease; the
	// generator's mirror tracks it in lockstep.
	leader model.HostID
	hosts  []model.HostID
	probes []string
	// placement mirrors where each probe should live; invariant checks
	// compare it against the architectures' actual contents.
	placement map[string]model.HostID
	restarts  map[model.HostID]int

	// ha is the two-deployer control plane; dirs holds each deployer
	// host's checkpoint directory (handles in ha are swapped on every
	// deployer process restart).
	ha   *framework.HACluster
	dirs map[model.HostID]string

	// fd is the soak's failure detector, shared by both deployers (and
	// re-attached to every restarted deployer process) so heartbeat
	// evidence lands in one place no matter who leads. pulse() keeps the
	// whole fleet beaconing through it; deadSeen records every HostDead
	// verdict it ever publishes and crashed every genuine fail-stop — the
	// no-false-dead invariant is deadSeen ⊆ crashed.
	fd        *prism.FailureDetector
	deadMu    sync.Mutex
	deadSeen  map[model.HostID]bool
	crashed   map[model.HostID]bool
	lastPulse time.Time

	eventSeq  int
	waveLines []string
	epochs    []int
}

// Leadership tuning for the soak: a short TTL keeps usurp-style
// campaigns fast (nothing in the soak renews a lease), while the
// generous campaign timeout absorbs retry storms under 20% drop.
const (
	chaosLeaseTTL        = 200 * time.Millisecond
	chaosCampaignTimeout = 30 * time.Second
)

// Failure-detector tuning for the no-false-dead invariant: generous
// windows absorb pump gaps around deployer restarts and campaigns, while
// the pulse cadence keeps live hosts far inside the suspect window. A
// gray fault (asymmetric cut, flap, slow link, overload) must never push
// a beaconing host past deadAfter — only a genuine fail-stop may.
const (
	chaosSuspectAfter = 5 * time.Second
	chaosDeadAfter    = 15 * time.Second
	chaosPulseEvery   = 20 * time.Millisecond
	// chaosAdmissionCap bounds each per-class admission queue on every
	// host: small enough that an OpOverload burst overflows the app class
	// in one gulp, large enough that liveness frames are never crowded.
	chaosAdmissionCap = 192
)

// leaseFor rebuilds the leadership config for a deployer being
// re-attached on h after a process restart (EnableHA computes the same
// shape for the initial pair).
func (r *runner) leaseFor(h model.HostID) prism.LeaderConfig {
	lc := prism.LeaderConfig{
		Agents:          r.hosts,
		LeaseTTL:        chaosLeaseTTL,
		CampaignTimeout: chaosCampaignTimeout,
	}
	for _, p := range []model.HostID{r.hosts[0], r.hosts[1]} {
		if p != h {
			lc.Peers = append(lc.Peers, p)
		}
	}
	return lc
}

// otherDeployer is the deployer host not currently leading.
func (r *runner) otherDeployer() model.HostID {
	if r.leader == r.hosts[0] {
		return r.hosts[1]
	}
	return r.hosts[0]
}

// pulse keeps the fleet's liveness plane beating: every live host sends
// one heartbeat (routed to whoever holds the lease) and the failure
// detector re-evaluates. Throttled to the pulse cadence so the service
// loops can call it unconditionally; always runs on the runner's
// goroutine. Send errors are deliberately ignored — a beacon eaten by a
// flap or a partition is exactly the evidence stream the no-false-dead
// invariant judges.
func (r *runner) pulse() {
	if time.Since(r.lastPulse) < chaosPulseEvery {
		return
	}
	r.lastPulse = time.Now()
	for _, h := range r.hosts {
		if r.w.HostDown(h) {
			continue
		}
		_ = r.w.Admins[h].SendHeartbeat()
	}
	r.fd.Evaluate()
}

// drive runs fn on its own goroutine while keeping delivery ticks and
// bandwidth-accurate virtual time moving — control-plane operations
// (campaigns, resumes) need the fabric serviced to make progress.
func (r *runner) drive(fn func() error) error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	for {
		r.pulse()
		r.w.DeliveryTicks()
		r.w.Fabric.DrainBandwidth(time.Millisecond)
		select {
		case err := <-ch:
			return err
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// driveUntil services the world (and an optional per-iteration pump,
// e.g. a replication tick) until cond holds or the settle timeout runs
// out.
func (r *runner) driveUntil(desc string, pump func(), cond func() bool) error {
	deadline := time.Now().Add(r.cfg.SettleTimeout)
	for !cond() {
		if pump != nil {
			pump()
		}
		r.pulse()
		r.w.DeliveryTicks()
		r.w.Fabric.DrainBandwidth(time.Millisecond)
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not reached within %v", desc, r.cfg.SettleTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// syncStandby pumps the leader's replication until peer has
// acknowledged its entire log.
func (r *runner) syncStandby(leader, peer model.HostID) error {
	le := r.ha.Leads[leader]
	return r.driveUntil(fmt.Sprintf("standby %s replication sync", peer),
		le.ReplicationTick, func() bool { return le.Synced(peer) })
}

func (r *runner) addProbe(id string, host model.HostID) error {
	arch := r.w.Archs[host]
	if err := arch.AddComponent(NewProbe(id, r.ledger)); err != nil {
		return err
	}
	if err := arch.Weld(id, framework.BusName); err != nil {
		return err
	}
	// The goal table follows every out-of-band placement (initial spread,
	// crash re-homes): waves update it themselves on commit, everything
	// else must tell the leader, or a rejoining agent would resync to a
	// stale manifest.
	r.ha.Deps[r.leader].RelocateGoal(id, ProbeTypeName, host)
	return nil
}

// inject routes n ledger-registered events at the target component from
// the origin host's bus connector.
func (r *runner) inject(origin model.HostID, target string, n int) {
	dc := r.w.BusConnector(origin)
	if dc == nil {
		// The generator only picks live origins; keep the event-ID stream
		// stable anyway so reports stay deterministic.
		r.eventSeq += n
		return
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d-e%05d", r.cfg.Seed, r.eventSeq)
		r.eventSeq++
		r.ledger.NoteSent(id, target, origin)
		dc.Route(prism.Event{
			Name:    probeEventName,
			Sender:  "chaos",
			Target:  target,
			SizeKB:  0.2,
			Payload: ProbePayload{ID: id},
		})
	}
}

// tick drives the delivery-guarantee clock a few steps; each step also
// advances bandwidth-accurate virtual time on the fabric.
func (r *runner) tick(n int) {
	for i := 0; i < n; i++ {
		r.pulse()
		r.w.DeliveryTicks()
		r.w.Fabric.DrainBandwidth(time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

func (r *runner) exec(op Op) error {
	switch op.Kind {
	case OpTraffic:
		r.inject(op.A, op.Comp, op.N)
		r.tick(2)
	case OpMigrate:
		return r.migrate(op, false)
	case OpAbortMigrate:
		return r.migrate(op, true)
	case OpCrash:
		return r.crash(op.A)
	case OpRestart:
		if _, err := r.w.RestartHost(op.A); err != nil {
			return err
		}
		r.restarts[op.A]++
	case OpPartition:
		return r.w.Fabric.SetPartitioned(op.A, op.B, true)
	case OpHeal:
		return r.w.Fabric.SetPartitioned(op.A, op.B, false)
	case OpDeployerCrash:
		return r.deployerWaveCrash(op)
	case OpDeployerRestart:
		return r.deployerRestart()
	case OpLeaderKill:
		return r.leaderKill(op)
	case OpLeasePause:
		return r.leasePause(op)
	case OpRejoinResync:
		return r.rejoinResync(op.A)
	case OpAsymPartition:
		// Cut only the A→B direction: B's transport silently discards
		// inbound frames from A while B→A flows clean. Blocked app events
		// keep retransmitting until the heal lets one through.
		r.w.Faults[op.B].PartitionInbound(op.A, true)
		r.tick(2)
	case OpAsymHeal:
		r.w.Faults[op.B].PartitionInbound(op.A, false)
		r.tick(2)
	case OpLinkFlap:
		return r.grayLink(op, prism.DirFault{Flap: prism.FlapConfig{
			Seed: r.cfg.Seed + int64(r.eventSeq),
			Up:   20 * time.Millisecond,
			Down: 10 * time.Millisecond,
		}}, 45)
	case OpSlowLink:
		return r.grayLink(op, prism.DirFault{
			DelayRate: 1,
			Delay:     3 * time.Millisecond,
		}, 20)
	case OpOverload:
		// Flood far past one admission gulp: shed app frames must be
		// recovered by end-to-end retransmission (zero-lost invariant) and
		// the flood must never displace liveness (no-false-dead invariant).
		r.inject(op.A, op.Comp, op.N)
		r.tick(25)
	}
	return nil
}

// grayLink runs one self-contained gray window on the A—B link: overlay
// df on both directions of A's transport toward B, push the op's traffic
// burst through the limping link, ride it for a few ticks, then restore
// the base fault mix. The delivery guarantee must carry the burst across
// whatever the window ate, dropped late, or bounced.
func (r *runner) grayLink(op Op, df prism.DirFault, ticks int) error {
	fc := r.w.FaultConfig(op.A)
	fc.Peers = map[model.HostID]prism.PeerFault{op.B: {In: df, Out: df}}
	r.w.Faults[op.A].SetFaultConfig(fc)
	r.inject(op.A, op.Comp, op.N)
	r.tick(ticks)
	r.w.Faults[op.A].SetFaultConfig(r.w.FaultConfig(op.A))
	return nil
}

// rejoinResync resurrects a crashed host and converges it through the
// goal-state pump: the fresh incarnation announces its empty manifest at
// generation zero, the leader answers with one full delta, and the
// exchange alone must restore the host — no wave replay, no replan. The
// acked manifest is then checked byte for byte against the goal.
func (r *runner) rejoinResync(h model.HostID) error {
	if _, err := r.w.RestartHost(h); err != nil {
		return err
	}
	r.restarts[h]++
	dep := r.ha.Deps[r.leader]
	lead := r.ha.Leads[r.leader]
	admin := r.w.Admins[h]
	// Under 20% drop the announce or the delta may be eaten, so every
	// pump round re-announces (level-triggered — duplicates are
	// harmless) and renews the lease so the fresh incarnation learns who
	// leads before it trusts a delta.
	if err := r.driveUntil(fmt.Sprintf("rejoin-resync %s convergence", h),
		func() {
			lead.Renew()
			_ = admin.AnnounceGoalState()
		},
		func() bool {
			gen := dep.GoalGeneration(h)
			return gen > 0 && dep.GoalAcked(h) == gen
		}); err != nil {
		return err
	}
	// Byte-for-byte witness: the agent's live manifest IS the goal's.
	want := strings.Join(dep.GoalManifest(h), ",")
	var have []string
	for _, id := range r.w.Archs[h].ComponentIDs() {
		if id != prism.AdminID && id != prism.DeployerID {
			have = append(have, id)
		}
	}
	sort.Strings(have)
	if got := strings.Join(have, ","); got != want {
		return fmt.Errorf("rejoin-resync %s manifest = [%s], goal says [%s]", h, got, want)
	}
	r.waveLines = append(r.waveLines, fmt.Sprintf(
		"rejoin-resync host=%s gen=%d manifest=[%s]", h, dep.GoalGeneration(h), want))
	return nil
}

// crash fail-stops a host, voids its in-flight sends, and restores its
// probes from origin copies on the master — bumping each one's crash
// epoch so the forgiven post-crash redelivery is not counted a duplicate.
func (r *runner) crash(h model.HostID) error {
	// Fail-stop atomicity: CrashHost stops the host's admission pump
	// (discarding its queue) before it returns, so by the time the crash
	// bookkeeping below bumps the epoch, no frame the dead host had
	// admitted can still reach a probe port — letting the pump drain them
	// afterwards would deliver "from the grave" and consume the crash
	// epoch's one forgiven redelivery out of order.
	lost := r.w.CrashHost(h)
	// A genuine fail-stop: the one legitimate cause for a later HostDead
	// verdict (no-false-dead invariant).
	r.crashed[h] = true
	r.ledger.VoidOrigin(h)
	var expected []string
	for _, p := range r.probes {
		if r.placement[p] == h {
			expected = append(expected, p)
		}
	}
	got := make([]string, len(lost))
	for i, c := range lost {
		got[i] = string(c)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(expected, ",") {
		return fmt.Errorf("crash %s lost %v, mirror predicted %v", h, got, expected)
	}
	for _, p := range expected {
		r.ledger.BumpCrashEpoch(p)
		if err := r.addProbe(p, r.master); err != nil {
			return err
		}
		r.placement[p] = r.master
	}
	return nil
}

// migrate runs one two-phase wave, injecting traffic at the moving
// component while the wave is in flight. In abort mode the destination
// is crashed first and declared dead to the coordinator, which must roll
// the wave back without losing any of that traffic.
func (r *runner) migrate(op Op, abort bool) error {
	if abort {
		if err := r.crash(op.B); err != nil {
			return err
		}
	}
	current := make(map[string]model.HostID, len(r.placement))
	for p, h := range r.placement {
		current[p] = h
	}
	type waveRes struct {
		res prism.EnactResult
		err error
	}
	ch := make(chan waveRes, 1)
	dep := r.ha.Deps[r.leader]
	go func() {
		res, err := dep.Enact(map[string]model.HostID{op.Comp: op.B}, current, r.cfg.WaveTimeout)
		ch <- waveRes{res, err}
	}()
	// Mid-wave traffic at the moving component: it must surface at the
	// survivor exactly once whether the wave commits or rolls back.
	r.inject(r.master, op.Comp, 2)

	var wr waveRes
	for done := false; !done; {
		if abort {
			dep.NoteHostDead(op.B)
		}
		r.pulse()
		r.w.DeliveryTicks()
		r.w.Fabric.DrainBandwidth(time.Millisecond)
		select {
		case wr = <-ch:
			done = true
		default:
			time.Sleep(time.Millisecond)
		}
	}

	outcome := "committed"
	if abort {
		if wr.err == nil || !strings.Contains(wr.err.Error(), "rolled back") {
			return fmt.Errorf("wave against dead %s: err = %v, want rollback", op.B, wr.err)
		}
		outcome = "aborted"
	} else {
		if wr.err != nil {
			return fmt.Errorf("wave %s -> %s: %w", op.Comp, op.B, wr.err)
		}
		r.placement[op.Comp] = op.B
	}
	r.epochs = append(r.epochs, wr.res.Epoch)
	r.waveLines = append(r.waveLines, fmt.Sprintf(
		"wave epoch=%d comp=%s src=%s dst=%s outcome=%s",
		wr.res.Epoch, op.Comp, op.A, op.B, outcome))
	return nil
}

// deployerWaveCrash runs one wave with the deployer armed to die at the
// op's phase checkpoint, then restarts it from the log and asserts the
// phase-determined resolution: a decided crash resumes its persisted
// commit; an open crash, or a prepared one (the decision write dies with
// nothing landed, the participants holding prepared state), cleanly
// aborts. Mid-wave traffic at the moving component must survive either
// way.
func (r *runner) deployerWaveCrash(op Op) error {
	dep := r.ha.Deps[r.leader]
	kill := func() { dep.Close() }
	switch ds := r.ha.Stores[r.leader]; op.Phase {
	case 0:
		ds.CrashAfter(prism.RecEpochOpen, kill)
	case 1:
		ds.CrashBefore(prism.RecEpochDecided, kill)
	case 2:
		ds.CrashAfter(prism.RecEpochDecided, kill)
	}

	current := make(map[string]model.HostID, len(r.placement))
	for p, h := range r.placement {
		current[p] = h
	}
	type waveRes struct {
		res prism.EnactResult
		err error
	}
	ch := make(chan waveRes, 1)
	go func() {
		res, err := dep.Enact(map[string]model.HostID{op.Comp: op.B}, current, r.cfg.WaveTimeout)
		ch <- waveRes{res, err}
	}()
	r.inject(r.master, op.Comp, 2)

	var wr waveRes
	for done := false; !done; {
		r.pulse()
		r.w.DeliveryTicks()
		r.w.Fabric.DrainBandwidth(time.Millisecond)
		select {
		case wr = <-ch:
			done = true
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// The dying lifetime's result is phase-determined, so reports stay
	// byte-identical per seed.
	switch op.Phase {
	case 0:
		if wr.err == nil || !strings.Contains(wr.err.Error(), "closed mid-wave") {
			return fmt.Errorf("open-phase crash: err = %v, want closed mid-wave", wr.err)
		}
	case 1:
		if wr.err == nil || !strings.Contains(wr.err.Error(), "deferred to restart") {
			return fmt.Errorf("prepared-phase crash: err = %v, want outcome deferred", wr.err)
		}
	case 2:
		if wr.err != nil || !wr.res.Committed {
			return fmt.Errorf("decided-phase crash: err = %v committed = %v, want clean commit",
				wr.err, wr.res.Committed)
		}
	}

	resumed, err := r.reopenDeployer()
	if err != nil {
		return err
	}
	// Earlier epochs whose outcome broadcast never fully drained may be
	// re-announced too (harmless: the decision is already durable); the
	// crashed epoch itself must be resolved exactly as the log dictates.
	var got *prism.ResumedWave
	for i := range resumed {
		if resumed[i].Epoch == wr.res.Epoch {
			got = &resumed[i]
		}
	}
	if got == nil {
		return fmt.Errorf("crashed epoch %d not resolved on restart (resumed: %+v)", wr.res.Epoch, resumed)
	}
	wantCommit := op.Phase == 2
	if got.Resumed != wantCommit || got.Committed != wantCommit {
		return fmt.Errorf("crashed epoch %d resolved %+v, want resumed=committed=%v", wr.res.Epoch, *got, wantCommit)
	}

	outcome := "crash@" + deployerCrashPhases[op.Phase] + "->abort"
	if wantCommit {
		outcome = "crash@decided->resume-commit"
		r.placement[op.Comp] = op.B
	}
	r.epochs = append(r.epochs, wr.res.Epoch)
	r.waveLines = append(r.waveLines, fmt.Sprintf(
		"wave epoch=%d comp=%s src=%s dst=%s outcome=%s",
		wr.res.Epoch, op.Comp, op.A, op.B, outcome))
	return nil
}

// deployerRestart bounces the deployer between waves. Nothing undecided
// can be in the log here, so the restart must not abort anything — at
// most it re-announces a decided outcome whose acks never drained.
func (r *runner) deployerRestart() error {
	resumed, err := r.reopenDeployer()
	if err != nil {
		return err
	}
	for _, rw := range resumed {
		if !rw.Resumed {
			return fmt.Errorf("quiet deployer restart aborted undecided epoch %d", rw.Epoch)
		}
	}
	return nil
}

// reopenDeployer is the deployer process restart on the current leader
// host: release the checkpoint log, swap a fresh deployer component in,
// re-attach the log and the leadership, re-campaign (the agents' grant
// rule hands the incumbent holder its own lease back at the next term
// without waiting out the TTL), and resume in-flight waves while the
// tick loop keeps delivery and the fabric moving under the broadcasts.
func (r *runner) reopenDeployer() ([]prism.ResumedWave, error) {
	h := r.leader
	if err := r.ha.Stores[h].Close(); err != nil {
		return nil, err
	}
	dep, err := r.w.RestartDeployerOn(h)
	if err != nil {
		return nil, err
	}
	store, err := prism.OpenDeployerStore(r.dirs[h])
	if err != nil {
		return nil, err
	}
	if err := dep.AttachStore(store); err != nil {
		return nil, err
	}
	le, err := dep.AttachLeadership(r.leaseFor(h))
	if err != nil {
		return nil, err
	}
	// The fresh process feeds the same shared detector its predecessor
	// did, so the no-false-dead evidence stream survives the restart.
	dep.AttachDetector(r.fd)
	r.ha.Deps[h], r.ha.Stores[h], r.ha.Leads[h] = dep, store, le
	var waves []prism.ResumedWave
	err = r.drive(func() error {
		won, err := le.Campaign()
		if err != nil {
			return err
		}
		if !won {
			return fmt.Errorf("restarted deployer on %s lost its re-campaign", h)
		}
		waves, err = dep.Resume()
		return err
	})
	return waves, err
}

// leaderKill fail-stops the leader deployer's process. The warm standby
// fails over — campaigns at the next term and resumes from its own
// replicated log — and the old leader is revived as the new standby and
// resynced. Placement-neutral: nothing is in flight between ops, so the
// resumed waves may only re-announce already-decided outcomes.
func (r *runner) leaderKill(op Op) error {
	old, next := r.leader, r.otherDeployer()
	if op.A != old || op.B != next {
		return fmt.Errorf("leadership mirror drift: op says %s->%s, live leader is %s", op.A, op.B, old)
	}
	// Quiesce: the standby holds every checkpoint before the leader dies.
	if err := r.syncStandby(old, next); err != nil {
		return err
	}
	r.ha.Deps[old].Close()
	if err := r.ha.Stores[old].Close(); err != nil {
		return err
	}
	var waves []prism.ResumedWave
	if err := r.drive(func() error {
		var won bool
		var err error
		waves, won, err = r.ha.Leads[next].Failover()
		if err != nil {
			return err
		}
		if !won {
			return fmt.Errorf("standby %s lost the failover campaign", next)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, rw := range waves {
		if !rw.Resumed {
			return fmt.Errorf("failover to %s aborted undecided epoch %d", next, rw.Epoch)
		}
	}
	r.leader = next
	// Revive the killed leader as the new warm standby and resync it.
	dep, err := r.w.RestartDeployerOn(old)
	if err != nil {
		return err
	}
	store, err := prism.OpenDeployerStore(r.dirs[old])
	if err != nil {
		return err
	}
	if err := dep.AttachStore(store); err != nil {
		return err
	}
	le, err := dep.AttachLeadership(r.leaseFor(old))
	if err != nil {
		return err
	}
	dep.AttachDetector(r.fd)
	r.ha.Deps[old], r.ha.Stores[old], r.ha.Leads[old] = dep, store, le
	if err := r.syncStandby(next, old); err != nil {
		return err
	}
	r.waveLines = append(r.waveLines, fmt.Sprintf(
		"leadership kill old=%s new=%s term=%d", old, next, r.ha.Leads[next].Term()))
	return nil
}

// leasePause simulates a long stall on the leader: the standby usurps
// the lease at the next term while the old process stays alive and
// still believes it leads. The usurper's replication stream carries the
// new term to the old leader, which stands down; its deposed deployer
// must refuse to coordinate, and it resyncs as the new standby.
func (r *runner) leasePause(op Op) error {
	old, next := r.leader, r.otherDeployer()
	if op.A != old || op.B != next {
		return fmt.Errorf("leadership mirror drift: op says %s->%s, live leader is %s", op.A, op.B, old)
	}
	if err := r.syncStandby(old, next); err != nil {
		return err
	}
	var waves []prism.ResumedWave
	if err := r.drive(func() error {
		var won bool
		var err error
		waves, won, err = r.ha.Leads[next].Failover()
		if err != nil {
			return err
		}
		if !won {
			return fmt.Errorf("standby %s failed to usurp the lease", next)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, rw := range waves {
		if !rw.Resumed {
			return fmt.Errorf("usurper %s aborted undecided epoch %d", next, rw.Epoch)
		}
	}
	r.leader = next
	newLead := r.ha.Leads[next]
	term := newLead.Term()
	// Sweep every live agent's fence to the usurper's term (a campaign
	// stops at quorum, so a minority may not have heard), then wait for
	// the stalled leader to learn it was deposed from the replication
	// stream — from here on its control frames bounce off the fence.
	if err := r.driveUntil("agent fences at usurper term", newLead.Renew, func() bool {
		for _, h := range r.hosts {
			if r.w.HostDown(h) {
				continue
			}
			if r.w.Admins[h].FenceTerm() != term {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	if err := r.driveUntil("stalled leader deposed", newLead.ReplicationTick,
		func() bool { return !r.ha.Leads[old].IsLeader() }); err != nil {
		return err
	}
	if _, err := r.ha.Deps[old].Enact(nil, nil, time.Second); err != prism.ErrNotLeader {
		return fmt.Errorf("deposed leader %s Enact err = %v, want ErrNotLeader", old, err)
	}
	if err := r.syncStandby(next, old); err != nil {
		return err
	}
	r.waveLines = append(r.waveLines, fmt.Sprintf(
		"leadership pause old=%s new=%s term=%d", old, next, term))
	return nil
}

// pendingTotal sums unacknowledged application events across live hosts.
func (r *runner) pendingTotal() int {
	n := 0
	for _, h := range r.hosts {
		if dc := r.w.BusConnector(h); dc != nil {
			n += dc.PendingAppEvents()
		}
	}
	return n
}

// settle drives delivery ticks until every non-voided event has been
// delivered and every surviving sender's pending table has drained, then
// lets the fabric go quiet.
func (r *runner) settle() error {
	deadline := time.Now().Add(r.cfg.SettleTimeout)
	for {
		r.pulse()
		r.w.DeliveryTicks()
		r.w.Fabric.DrainBandwidth(time.Millisecond)
		if r.ledger.MissingCount() == 0 && r.pendingTotal() == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("settle timeout: %d events missing %v, %d pending",
				r.ledger.MissingCount(), r.ledger.Missing(), r.pendingTotal())
		}
		time.Sleep(time.Millisecond)
	}
	// Liveness convergence: with every cut healed, a few pulses must show
	// the whole surviving fleet HostUp. This keeps the no-false-dead
	// invariant honest — it proves heartbeats were actually flowing into
	// the detector, not that nothing was ever watched.
	if err := r.driveUntil("liveness convergence", nil, func() bool {
		for _, h := range r.hosts {
			if r.w.HostDown(h) {
				continue
			}
			if r.fd.State(h) != prism.HostUp {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	for i := 0; i < 100 && !r.w.Fabric.Idle(); i++ {
		time.Sleep(time.Millisecond)
	}
	return nil
}

// scanPlacement reads the actual probe placement off the live
// architectures: every probe must be active exactly once, where the
// mirror says it is.
func (r *runner) scanPlacement() (map[string][]model.HostID, error) {
	found := make(map[string][]model.HostID, len(r.probes))
	for _, h := range r.hosts {
		if r.w.HostDown(h) {
			continue
		}
		for _, id := range r.w.Archs[h].ComponentIDs() {
			if id == prism.AdminID || id == prism.DeployerID {
				continue
			}
			found[id] = append(found[id], h)
		}
	}
	return found, nil
}

func (r *runner) checkInvariants() error {
	if missing := r.ledger.Missing(); len(missing) > 0 {
		return fmt.Errorf("lost events: %v", missing)
	}
	if dups := r.ledger.Duplicates(); len(dups) > 0 {
		return fmt.Errorf("duplicate deliveries: %v", dups)
	}
	found, err := r.scanPlacement()
	if err != nil {
		return err
	}
	for _, p := range r.probes {
		at := found[p]
		switch {
		case len(at) == 0:
			return fmt.Errorf("probe %s orphaned (mirror: %s)", p, r.placement[p])
		case len(at) > 1:
			return fmt.Errorf("probe %s active on %v", p, at)
		case at[0] != r.placement[p]:
			return fmt.Errorf("probe %s on %s, mirror says %s", p, at[0], r.placement[p])
		}
	}
	for i := 1; i < len(r.epochs); i++ {
		if r.epochs[i] <= r.epochs[i-1] {
			return fmt.Errorf("wave epochs not monotonic: %v", r.epochs)
		}
	}
	for _, h := range r.hosts {
		if got, want := r.w.Incarnation(h), uint64(r.restarts[h]); got != want {
			return fmt.Errorf("host %s incarnation %d, want %d", h, got, want)
		}
	}
	// The goal table is the placement's witness: for every host, the
	// leader's goal manifest must name exactly the probes the mirror
	// places there — waves, crash re-homes, and resyncs all kept it true.
	dep := r.ha.Deps[r.leader]
	for _, h := range r.hosts {
		var want []string
		for _, p := range r.probes {
			if r.placement[p] == h {
				want = append(want, p)
			}
		}
		sort.Strings(want)
		got := dep.GoalManifest(h)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("goal manifest drift on %s: goal=%v, mirror=%v", h, got, want)
		}
	}
	// No false deaths, ever: a host that never fail-stopped must never
	// have been declared HostDead, no matter what asymmetric cuts, flaps,
	// slow links, or floods the scenario threw at its links.
	r.deadMu.Lock()
	var falseDead []string
	for h := range r.deadSeen {
		if !r.crashed[h] {
			falseDead = append(falseDead, string(h))
		}
	}
	r.deadMu.Unlock()
	if len(falseDead) > 0 {
		sort.Strings(falseDead)
		return fmt.Errorf("false death verdicts: gray faults alone killed %v", falseDead)
	}
	// No split brain, ever: merged across every live agent's grant log, a
	// fencing term was granted to at most one candidate.
	leases := make(map[uint64]model.HostID)
	for _, h := range r.hosts {
		if r.w.HostDown(h) {
			continue
		}
		for term, cand := range r.w.Admins[h].LeaseGrants() {
			if prev, ok := leases[term]; ok && prev != cand {
				return fmt.Errorf("split brain: term %d granted to both %s and %s", term, prev, cand)
			}
			leases[term] = cand
		}
	}
	return nil
}

// report renders the deterministic scenario record: the op list, wave
// outcomes, invariant tallies, final placement, and incarnations — and
// nothing timing-sensitive (no delivery counts, no retransmit totals).
func (r *runner) report(ops []Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d hosts=%d probes=%d ops=%d\n",
		r.cfg.Seed, r.cfg.Hosts, r.cfg.Probes, len(ops))
	for i, op := range ops {
		fmt.Fprintf(&b, "op %02d %s\n", i, op.describe())
	}
	for _, line := range r.waveLines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "events sent=%d\n", r.ledger.Sent())
	fmt.Fprintf(&b, "invariants lost=%d duplicates=%d\n",
		len(r.ledger.Missing()), len(r.ledger.Duplicates()))
	b.WriteString("placement")
	for _, p := range r.probes {
		fmt.Fprintf(&b, " %s=%s", p, r.placement[p])
	}
	b.WriteByte('\n')
	b.WriteString("incarnations")
	for _, h := range r.hosts {
		fmt.Fprintf(&b, " %s=%d", h, r.w.Incarnation(h))
	}
	b.WriteByte('\n')
	return b.String()
}
