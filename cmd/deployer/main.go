// Command deployer is the master-host runtime (the paper's Master Host,
// Figure 2): it loads an architecture description, waits for the slave
// agents to join over TCP, instantiates the application's components,
// distributes them to their hosts per the described deployment, and then
// runs the monitor→analyze→redeploy loop.
//
// Usage:
//
//	deployer -arch arch.xml -host host00 -listen 127.0.0.1:7000 \
//	         [-improve] [-cycles 3] [-interval 5s]
//
// Agents for every other host must join (see cmd/agent) before the
// deployer proceeds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dif/internal/analyzer"
	"dif/internal/cliflags"
	"dif/internal/effector"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/monitor"
	"dif/internal/objective"
	"dif/internal/prism"
)

func main() {
	if err := run(); err != nil {
		if errors.Is(err, prism.ErrNotLeader) {
			// Fencing did its job: every control path refuses a stale
			// term. The losing process exits distinctly so supervisors
			// can relaunch it as a shadow instead of flapping.
			fmt.Fprintln(os.Stderr, "deployer: deposed — a peer deployer leads at a newer term; restart this process with -standby to shadow it")
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "deployer:", err)
		os.Exit(1)
	}
}

func run() error {
	archFile := flag.String("arch", "", "xADL architecture file (with a deployment)")
	host := flag.String("host", "", "the master's host name (must appear in the architecture)")
	listen := flag.String("listen", "127.0.0.1:7000", "TCP listen address")
	improve := flag.Bool("improve", true, "run the analyze/redeploy loop after distribution")
	cycles := flag.Int("cycles", 2, "monitor/analyze cycles to run")
	interval := flag.Duration("interval", 3*time.Second, "pause between cycles (lets agents generate traffic)")
	joinTimeout := flag.Duration("join-timeout", 60*time.Second, "how long to wait for agents")
	detector := flag.String("detector", "lease", "failure detection policy: lease or phi")
	suspectAfter := flag.Duration("suspect-after", 2*time.Second, "lease policy: silence before a host is suspected")
	deadAfter := flag.Duration("dead-after", 5*time.Second, "lease policy: silence before a host is declared dead")
	common := cliflags.Register(flag.CommandLine)
	durable := cliflags.RegisterDurable(flag.CommandLine)
	ha := cliflags.RegisterHA(flag.CommandLine)
	flag.Parse()
	if *archFile == "" || *host == "" {
		return fmt.Errorf("-arch and -host are required")
	}
	if ha.Standby && ha.Peers == "" {
		return fmt.Errorf("-standby needs -peers (a standby must know whose checkpoint stream to ingest)")
	}
	if ha.Peers != "" && durable.StateDir == "" {
		return fmt.Errorf("-peers needs -state-dir (each deployer in a cohort applies the replicated checkpoint stream to its own local log)")
	}
	peerAddrs, err := ha.PeerAddrs()
	if err != nil {
		return err
	}
	reg, tracer, obsShutdown, err := common.Observability()
	if err != nil {
		return err
	}
	defer obsShutdown()

	f, err := os.Open(*archFile)
	if err != nil {
		return err
	}
	sys, deployment, err := model.ReadXADL(f)
	f.Close()
	if err != nil {
		return err
	}
	if deployment == nil {
		return fmt.Errorf("%s carries no deployment", *archFile)
	}
	master := model.HostID(*host)
	if _, ok := sys.Hosts[master]; !ok {
		return fmt.Errorf("host %s not in architecture", master)
	}
	peers := make([]model.HostID, 0, len(peerAddrs))
	for p := range peerAddrs {
		ph := model.HostID(p)
		if ph == master {
			continue // tolerate a shared -peers list naming ourselves
		}
		if _, ok := sys.Hosts[ph]; !ok {
			return fmt.Errorf("-peers host %s not in architecture", ph)
		}
		peers = append(peers, ph)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	if ha.Peers != "" && len(peers) == 0 {
		return fmt.Errorf("-peers names no deployer other than %s", master)
	}

	tr, err := prism.NewTCPTransport(master, *listen)
	if err != nil {
		return err
	}
	// Set before any peer connects: connections snapshot it at creation.
	tr.SetBatching(common.BatchBytes, 0)
	tr.Instrument(reg)
	// The bus sees the (optionally fault-injected) transport; Addr and
	// Peers still go through the concrete TCP handle.
	var busTr prism.Transport = tr
	if common.Faulty() {
		busTr = prism.NewFaultTransport(tr, common.FaultConfig(reg))
	}
	defer busTr.Close()
	// Dial the peer deployers that published an address; bare -peers
	// entries dial us. Connections are bidirectional once either side's
	// Hello lands, and boot order is free, so keep knocking until one does.
	stopDial := make(chan struct{})
	defer close(stopDial)
	for _, p := range peers {
		if addr := peerAddrs[string(p)]; addr != "" {
			tr.AddPeer(p, addr)
			go helloLoop(tr, p, stopDial)
		}
	}
	arch := prism.NewArchitecture(master, nil)
	arch.SetObservability(reg, tracer)
	arch.Scaffold().Start(4)
	defer arch.Shutdown()
	if _, err := arch.AddDistributionConnector(framework.BusName, busTr); err != nil {
		return err
	}
	registry := prism.NewFactoryRegistry()
	registry.Register(framework.TrafficTypeName, func(id string) prism.Migratable {
		return framework.NewTrafficComponent(id)
	})
	adminCfg := prism.AdminConfig{
		Deployer: master, Bus: framework.BusName, Registry: registry,
		Retry: common.Retry(), Breaker: common.BreakerConfig(),
	}
	admin, err := prism.InstallAdmin(arch, adminCfg)
	if err != nil {
		return err
	}
	defer admin.Close()
	dep, err := prism.InstallDeployer(arch, adminCfg)
	if err != nil {
		return err
	}
	// Durable deployer state: with -state-dir the deployer checkpoints
	// every two-phase transition to a write-ahead log. On a restart it
	// replays the log, resumes (or cleanly aborts) in-flight waves, and
	// rejoins the cycle loop without replanning. A second deployer on the
	// same directory is rejected by the log's process lock.
	var ds *prism.DeployerStore
	resuming := false
	if durable.StateDir != "" {
		ds, err = prism.OpenDeployerStore(durable.StateDir)
		if err != nil {
			return fmt.Errorf("state dir %s: %w", durable.StateDir, err)
		}
		defer ds.Close()
		resuming = ds.HasState()
		if err := dep.AttachStore(ds); err != nil {
			return err
		}
	}
	// Deployer high availability: with -peers this process is one of a
	// deployer cohort. Exactly one leads at a time, elected by an
	// agent-quorum lease whose monotonic fencing term is stamped on every
	// control frame; the leader streams its checkpoint log to the peers,
	// and a standby that wins a later term resumes the replicated waves
	// under their original epoch numbers instead of replanning.
	var lead *prism.Leadership
	leaseTTL := ha.LeaseTTL
	if leaseTTL <= 0 {
		leaseTTL = prism.DefaultLeaseTTL
	}
	if len(peers) > 0 {
		lead, err = dep.AttachLeadership(prism.LeaderConfig{
			Agents:   sys.HostIDs(),
			Peers:    peers,
			LeaseTTL: leaseTTL,
		})
		if err != nil {
			return err
		}
	}
	// Application-traffic continuity: enable (or explicitly disable) the
	// delivery-guarantee layer and pace its retransmission clock.
	arch.DistributionConnector(framework.BusName).SetDeliveryConfig(common.Delivery())
	if common.AppRetransmit > 0 {
		admin.StartDeliveryTicks(common.AppRetransmit)
	}
	// Overload protection: with -shed, inbound frames pass a bounded,
	// class-prioritized admission queue (liveness > control > app), so an
	// application flood can never starve the failure detector below.
	if common.Shed {
		adm := arch.DistributionConnector(framework.BusName).EnableAdmission(common.Admission())
		defer adm.Close()
	}

	// Liveness: agent heartbeats feed a failure detector; HostDead
	// transitions abort in-flight waves and trigger survivor replanning
	// in the cycle loop below.
	var fd *prism.FailureDetector
	if common.Heartbeat > 0 {
		var policy prism.SuspicionPolicy
		switch *detector {
		case "lease":
			policy = prism.NewLeasePolicy(*suspectAfter, *deadAfter)
		case "phi":
			policy = prism.NewPhiAccrualPolicy(0, 0)
		default:
			return fmt.Errorf("unknown -detector %q (want lease or phi)", *detector)
		}
		fd = prism.NewFailureDetector(policy)
		dep.AttachDetector(fd)
	}
	// Deaths are latched, not polled: a host that crashes and resurrects
	// between cycles still lost its component instances, so the cycle
	// loop must recover every death even when the detector has already
	// moved the host back to up.
	var deadMu sync.Mutex
	pendingDead := make(map[model.HostID]bool)
	if fd != nil {
		fd.Subscribe(func(tr prism.Transition) {
			fmt.Printf("liveness: %s %s -> %s (incarnation %d)\n",
				tr.Host, tr.From, tr.To, tr.Incarnation)
			if tr.To == prism.HostDead {
				deadMu.Lock()
				pendingDead[tr.Host] = true
				deadMu.Unlock()
			}
		})
	}

	// Wait for every slave host to join.
	slaves := make([]model.HostID, 0, len(sys.Hosts)-1)
	for _, h := range sys.HostIDs() {
		if h != master {
			slaves = append(slaves, h)
		}
	}
	fmt.Printf("deployer %s listening on %s; waiting for %d agents...\n",
		master, tr.Addr(), len(slaves))
	if err := waitForPeers(tr, slaves, *joinTimeout); err != nil {
		return err
	}
	fmt.Println("all agents joined")

	// Leadership settles before anything else runs. A solo deployer leads
	// implicitly; with -peers the active campaigns now, and a -standby
	// blocks here — ingesting the leader's checkpoint stream — until its
	// leader watch fires and it wins a later fencing term.
	tookOver := false
	var failoverWaves []prism.ResumedWave
	if lead != nil {
		if ha.Standby {
			if common.Heartbeat > 0 {
				// A standby is a slave from the leader's viewpoint:
				// announce liveness so the active deployer does not
				// re-home this host's components while it shadows.
				admin.StartHeartbeats(common.Heartbeat)
			}
			fmt.Printf("standby %s: shadowing the leader's checkpoint stream (lease TTL %v)\n",
				master, leaseTTL)
			failoverWaves, err = standBy(lead, leaseTTL)
			if err != nil {
				return err
			}
			tookOver, resuming = true, true
			fmt.Printf("standby %s took over at term %d\n", master, lead.Term())
		} else {
			won, err := lead.Campaign()
			if err != nil {
				return err
			}
			if !won {
				return fmt.Errorf("lost the leadership campaign at term %d: %w", lead.Term(), prism.ErrNotLeader)
			}
			fmt.Printf("leading at term %d (lease TTL %v, %d peer deployers)\n",
				lead.Term(), leaseTTL, len(peers))
		}
		// Keep the lease renewed and the peers' logs (and leader watches)
		// fed while we lead; a deposed deployer's ticks are no-ops.
		stopLease := make(chan struct{})
		defer close(stopLease)
		go func() {
			t := time.NewTicker(leaseTick(leaseTTL))
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if lead.IsLeader() {
						lead.Renew()
						lead.ReplicationTick()
					}
				case <-stopLease:
					return
				}
			}
		}()
	}

	if fd != nil {
		now := time.Now()
		for _, h := range slaves {
			fd.Watch(h, now)
		}
		// Detection must not be coupled to the monitoring cadence: a host
		// that crashes and resurrects between cycles still has to pass
		// through dead (and rejoin on a higher incarnation), and a host
		// that dies mid-wave has to abort the wave promptly.
		stopEval := make(chan struct{})
		defer close(stopEval)
		go func() {
			t := time.NewTicker(common.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fd.Evaluate()
				case <-stopEval:
					return
				}
			}
		}()
	}

	addTraffic := func(comp model.ComponentID) error {
		tc := framework.NewTrafficComponent(string(comp))
		for _, link := range sys.InteractionsOf(comp) {
			other := link.Components.A
			if other == comp {
				other = link.Components.B
			}
			tc.AddPartner(string(other), link.Frequency()/10, link.EventSize())
		}
		if err := arch.AddComponent(tc); err != nil {
			return err
		}
		return arch.Weld(string(comp), framework.BusName)
	}

	view := deployment.Clone()
	if resuming {
		// Restart-without-replan: in-flight waves are resumed (decided
		// epochs re-broadcast their persisted outcome) or cleanly aborted
		// (undecided ones), never re-planned. The deployment view is the
		// described deployment overridden by the committed relocations from
		// the log — the slaves' components are exactly where the dead
		// lifetime left them, so no initial distribution runs. A standby
		// that took over already resumed inside Failover, from the log the
		// replication stream built.
		resumed := failoverWaves
		if !tookOver {
			resumed, err = dep.Resume()
			if err != nil {
				return fmt.Errorf("resume from %s: %w", durable.StateDir, err)
			}
		}
		for _, rw := range resumed {
			outcome := "aborted"
			if rw.Committed {
				outcome = "committed"
			}
			how := "undecided -> clean abort"
			if rw.Resumed {
				how = "decided -> broadcast resumed"
			}
			fmt.Printf("resumed wave epoch=%d: %s (%s)\n", rw.Epoch, how, outcome)
		}
		for comp, h := range dep.RelocationView() {
			view[model.ComponentID(comp)] = h
		}
		// Master-resident components died with the old process; recreate
		// origin copies so the improve loop has live instances to move.
		for _, comp := range sys.ComponentIDs() {
			if view[comp] == master && arch.Component(string(comp)) == nil {
				if err := addTraffic(comp); err != nil {
					return err
				}
			}
		}
		src := fmt.Sprintf("restarted from %s", durable.StateDir)
		if tookOver {
			src = fmt.Sprintf("took over at term %d", lead.Term())
		}
		fmt.Printf("%s: %d waves resolved, next epoch %d\n",
			src, len(resumed), ds.NextEpoch())
	} else {
		// Instantiate every application component locally, then distribute
		// them to their described hosts through the real migration protocol.
		for _, comp := range sys.ComponentIDs() {
			if err := addTraffic(comp); err != nil {
				return err
			}
		}
		// Seed the goal table with the pre-distribution truth (everything
		// on the master at generation 1); the distribution wave below
		// bumps each host to its described manifest, so a slave that
		// announces later re-syncs from these generations. A restarted
		// or failed-over deployer restores the table from its log instead.
		goal := make(map[model.HostID][]prism.GoalComponent, len(sys.Hosts))
		for _, h := range sys.HostIDs() {
			goal[h] = nil
		}
		for comp := range deployment {
			goal[master] = append(goal[master],
				prism.GoalComponent{ID: string(comp), Type: framework.TrafficTypeName})
		}
		dep.SeedGoalState(goal)
		moves := make(map[string]model.HostID, len(deployment))
		current := make(map[string]model.HostID, len(deployment))
		for comp, h := range deployment {
			current[string(comp)] = master
			moves[string(comp)] = h
		}
		res, err := dep.Enact(moves, current, 60*time.Second)
		if err != nil {
			return fmt.Errorf("initial distribution: %w", err)
		}
		fmt.Printf("distributed %d components to %d hosts (%d confirmed)\n",
			res.Moved, len(slaves), res.Received)
	}

	if !*improve {
		return nil
	}

	// Monitor → analyze → redeploy loop.
	centralModel := sys.Clone()
	anlz := analyzer.New(nil, analyzer.Policy{})
	anlz.Instrument(reg)
	en := &effector.PrismEnactor{Deployer: dep}
	for cycle := 1; cycle <= *cycles; cycle++ {
		time.Sleep(*interval)

		// Out-of-band recovery: a host the detector declared dead is
		// excluded from the model, its components are re-homed to the
		// master's origin copies, and the survivors are replanned
		// immediately — no hysteresis.
		if fd != nil {
			deadMu.Lock()
			deaths := make([]model.HostID, 0, len(pendingDead))
			for h := range pendingDead {
				deaths = append(deaths, h)
				delete(pendingDead, h)
			}
			deadMu.Unlock()
			sort.Slice(deaths, func(i, j int) bool { return deaths[i] < deaths[j] })
			for _, h := range deaths {
				centralModel.SetHostDown(h, true)
				// The dead host's instances died with it: re-create origin
				// copies on the master so the recovery wave has something
				// real to migrate.
				for _, comp := range view.ComponentsOn(h) {
					if arch.Component(string(comp)) == nil {
						tc := framework.NewTrafficComponent(string(comp))
						for _, link := range sys.InteractionsOf(comp) {
							other := link.Components.A
							if other == comp {
								other = link.Components.B
							}
							tc.AddPartner(string(other), link.Frequency()/10, link.EventSize())
						}
						if err := arch.AddComponent(tc); err != nil {
							return err
						}
						if err := arch.Weld(string(comp), framework.BusName); err != nil {
							return err
						}
					}
					view[comp] = master
					// The goal table follows the re-home: if the dead host
					// rejoins and announces before the recovery wave lands,
					// its delta must not re-acquire components the master
					// now owns.
					dep.RelocateGoal(string(comp), framework.TrafficTypeName, master)
				}
				dec, err := anlz.Recover(context.Background(), centralModel, view)
				if err != nil {
					return fmt.Errorf("recovery after %s died: %w", h, err)
				}
				plan, err := effector.ComputePlan(centralModel, view, dec.Result.Deployment)
				if err != nil {
					return fmt.Errorf("recovery plan after %s died: %w", h, err)
				}
				if !plan.Empty() {
					if _, err := en.Enact(plan, 60*time.Second); err != nil {
						if errors.Is(err, prism.ErrNotLeader) {
							return fmt.Errorf("recovery enact after %s died: %w", h, err)
						}
						// Another host died under the recovery wave; its
						// death latches too and the next cycle recovers both.
						fmt.Printf("recovery after %s rolled back (%v); retrying next cycle\n", h, err)
						continue
					}
				}
				view = dec.Result.Deployment.Clone()
				fmt.Printf("recovered from %s: %s -> %.4f\n", h, dec.Algorithm, dec.Result.Score)
			}
			// A recovered host that heartbeats again (on a bumped
			// incarnation) rejoins the model and the next planning round.
			for _, h := range slaves {
				if centralModel.HostDown(h) && fd.State(h) == prism.HostUp {
					centralModel.SetHostDown(h, false)
					fmt.Printf("host %s rejoined (incarnation %d)\n", h, fd.Incarnation(h))
				}
			}
		}
		live := make([]model.HostID, 0, len(slaves))
		for _, h := range slaves {
			if !centralModel.HostDown(h) {
				live = append(live, h)
			}
		}
		reportTimeout := 30 * time.Second
		if fd != nil && 10*common.Heartbeat < reportTimeout {
			reportTimeout = 10 * common.Heartbeat
		}
		reports, err := dep.RequestReports(live, reportTimeout)
		if err != nil {
			// With liveness tracking on, a host dying during the report
			// wait is expected churn, not a fatal monitoring failure: use
			// whatever arrived and let the detector drive recovery.
			if fd == nil {
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}
			fmt.Printf("cycle %d: partial monitoring (%v)\n", cycle, err)
		}
		applier := monitor.NewApplier(centralModel, nil)
		written := 0
		for _, rep := range reports {
			written += applier.Apply(rep, view)
		}
		avail := objective.Availability{}.Quantify(centralModel, view)
		fmt.Printf("cycle %d: %d reports, %d params refined, availability %.4f\n",
			cycle, len(reports), written, avail)

		dec, err := anlz.Analyze(context.Background(), centralModel, view, 1.0)
		if err != nil {
			return fmt.Errorf("cycle %d analyze: %w", cycle, err)
		}
		fmt.Printf("cycle %d: %s -> %.4f (%s)\n",
			cycle, dec.Algorithm, dec.Result.Score, dec.Reason)
		if !dec.Accepted {
			continue
		}
		plan, err := effector.ComputePlan(centralModel, view, dec.Result.Deployment)
		if err != nil {
			return err
		}
		enRep, err := en.Enact(plan, 60*time.Second)
		if err != nil {
			// A participant dying mid-wave rolls the wave back cleanly;
			// with liveness tracking on that is expected churn — the death
			// latches and the next cycle replans around it. Losing the
			// leadership lease, by contrast, is terminal here.
			if fd == nil || errors.Is(err, prism.ErrNotLeader) {
				return fmt.Errorf("cycle %d enact: %w", cycle, err)
			}
			fmt.Printf("cycle %d: wave rolled back (%v); replanning next cycle\n", cycle, err)
			continue
		}
		view = dec.Result.Deployment.Clone()
		status := ""
		if enRep.Degraded {
			status = " (degraded)"
		}
		fmt.Printf("cycle %d: redeployed %d components in %v%s\n",
			cycle, enRep.Moved, enRep.Elapsed, status)
	}
	fmt.Printf("final deployment: %v\n", view)
	return nil
}

// leaseTick paces lease renewal, replication keepalives, and the
// standby watch: several rounds per TTL so one lost frame cannot lapse
// a healthy leader's lease.
func leaseTick(ttl time.Duration) time.Duration {
	if tick := ttl / 3; tick > 0 {
		return tick
	}
	return 100 * time.Millisecond
}

// helloLoop knocks on a peer deployer until the connection lands (boot
// order between peers is free); once either side's Hello succeeds the
// link carries frames both ways.
func helloLoop(tr *prism.TCPTransport, peer model.HostID, stop <-chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		if tr.Hello(peer) == nil {
			return
		}
		select {
		case <-t.C:
		case <-stop:
			return
		}
	}
}

// standBy blocks until this deployer wins a leadership term: it watches
// the leader's replication keepalives, campaigns once the leader has
// been silent past the watch thresholds, and goes back to shadowing
// when another standby wins the race (or the old leader resurfaces at a
// higher term). Failover resumes the replicated waves — decided epochs
// driven to their persisted outcome, undecided ones aborted, none
// replanned or renumbered.
func standBy(lead *prism.Leadership, ttl time.Duration) ([]prism.ResumedWave, error) {
	t := time.NewTicker(leaseTick(ttl))
	defer t.Stop()
	for range t.C {
		if !lead.LeaderSuspect(time.Now()) {
			continue
		}
		fmt.Printf("leader %s silent past the watch threshold: campaigning\n", lead.Leader())
		waves, won, err := lead.Failover()
		if errors.Is(err, prism.ErrNoQuorum) {
			// Not enough live agents to elect anyone right now — the old
			// lease is equally unrenewable, so nobody leads. Keep
			// shadowing and retry when the watch next fires.
			fmt.Printf("campaign at term %d failed (%v); still shadowing\n", lead.Term(), err)
			continue
		}
		if err != nil {
			return nil, err
		}
		if won {
			return waves, nil
		}
	}
	return nil, nil
}

func waitForPeers(tr *prism.TCPTransport, want []model.HostID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		have := make(map[model.HostID]bool)
		for _, p := range tr.Peers() {
			have[p] = true
		}
		missing := 0
		for _, h := range want {
			if !have[h] {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for agents (have %v)", tr.Peers())
}
