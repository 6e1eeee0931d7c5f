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
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"dif/internal/cliflags"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/prism"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
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

// agentTick is the agents' default -tick: components the deployer
// instantiates emit at link frequency × agentTick per tick.
const agentTick = 100 * time.Millisecond

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("deployer", flag.ContinueOnError)
	archFile := fs.String("arch", "", "xADL architecture file (with a deployment)")
	hostName := fs.String("host", "", "the master's host name (must appear in the architecture)")
	listen := fs.String("listen", "127.0.0.1:7000", "TCP listen address")
	improve := fs.Bool("improve", true, "run the analyze/redeploy loop after distribution")
	cycles := fs.Int("cycles", 2, "monitor/analyze cycles to run")
	interval := fs.Duration("interval", 3*time.Second, "pause between cycles (lets agents generate traffic)")
	joinTimeout := fs.Duration("join-timeout", 60*time.Second, "how long to wait for agents")
	suspectAfter := fs.Duration("suspect-after", prism.DefaultSuspectAfter, "failure detector: silence before a host is suspected")
	deadAfter := fs.Duration("dead-after", prism.DefaultDeadAfter, "failure detector: silence before a host is declared dead")
	common := cliflags.Register(fs)
	durable := cliflags.RegisterDurable(fs)
	ha := cliflags.RegisterHA(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *archFile == "" || *hostName == "" {
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
	reg, tracer, obsShutdown, err := common.Observability(out)
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
	master := model.HostID(*hostName)
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
	slices.Sort(peers)
	if ha.Peers != "" && len(peers) == 0 {
		return fmt.Errorf("-peers names no deployer other than %s", master)
	}

	tr, bus, err := common.Transport(master, *listen, reg)
	if err != nil {
		return err
	}
	// Dial the peer deployers that published an address; bare -peers
	// entries dial us.
	stopDial := make(chan struct{})
	defer close(stopDial)
	for _, p := range peers {
		if addr := peerAddrs[string(p)]; addr != "" {
			tr.AddPeer(p, addr)
			go cliflags.KeepDialing(tr, p, stopDial)
		}
	}
	// With -state-dir the deployer checkpoints every two-phase transition
	// to a write-ahead log and, on a restart, resumes from it instead of
	// replanning. The log's process lock rejects a second deployer on it.
	hc := common.HostConfig(master, master, bus, reg, tracer)
	hc.Deployer, hc.StateDir = true, durable.StateDir
	if !ha.Standby {
		// Only a standby beacons: to the leader it is a slave, whose
		// components must not be re-homed while it shadows.
		hc.Heartbeat = 0
	}
	host, err := framework.NewHost(hc)
	if err != nil {
		return err
	}
	defer host.Close()
	dep := host.Deployer
	resuming := host.Store != nil && host.Store.HasState()
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
			Agents: sys.HostIDs(), Peers: peers, LeaseTTL: leaseTTL,
		})
		if err != nil {
			return err
		}
	}

	// Liveness: agent heartbeats feed a failure detector; HostDead
	// transitions abort in-flight waves and are latched for the cycle
	// loop, not polled: a host that crashes and resurrects between cycles
	// still lost its component instances, so every death is recovered
	// even when the detector has already moved the host back to up.
	var fd *prism.FailureDetector
	var deadMu sync.Mutex
	pendingDead := make(map[model.HostID]bool)
	if common.Heartbeat > 0 {
		fd = prism.NewFailureDetector(*suspectAfter, *deadAfter)
		dep.AttachDetector(fd)
		fd.Subscribe(func(tr prism.Transition) {
			fmt.Fprintf(out, "liveness: %s %s -> %s (incarnation %d)\n",
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
	fmt.Fprintf(out, "deployer %s listening on %s; waiting for %d agents...\n",
		master, tr.Addr(), len(slaves))
	if err := waitForPeers(tr, slaves, *joinTimeout); err != nil {
		return err
	}
	fmt.Fprintln(out, "all agents joined")

	// Leadership settles first; a solo deployer leads implicitly.
	var failoverWaves []prism.ResumedWave
	if lead != nil {
		waves, stop, err := settleLeadership(lead, ha.Standby, leaseTTL, out)
		if err != nil {
			return err
		}
		defer stop()
		failoverWaves, resuming = waves, resuming || ha.Standby
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
		stop := every(common.Heartbeat, func() { fd.Evaluate() })
		defer stop()
	}

	// The control loop is the framework's: the same Centralized the
	// drills run, over this process's host and its failure detector.
	cent := framework.NewCentralizedOn(host, sys, deployment.Clone(),
		func(h model.HostID) bool { return fd != nil && fd.State(h) == prism.HostDead })
	cent.PerTick = agentTick.Seconds()
	cent.EnactTimeout = 60 * time.Second
	cent.ReportTimeout = 30 * time.Second
	if fd != nil && 10*common.Heartbeat < cent.ReportTimeout {
		cent.ReportTimeout = 10 * common.Heartbeat
	}

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
		if !ha.Standby {
			resumed, err = dep.Resume()
			if err != nil {
				return fmt.Errorf("resume from %s: %w", durable.StateDir, err)
			}
		}
		for _, rw := range resumed {
			// Resumed: decided, its persisted outcome re-broadcast;
			// otherwise undecided and cleanly aborted.
			fmt.Fprintf(out, "resumed wave epoch=%d: decided=%v committed=%v\n", rw.Epoch, rw.Resumed, rw.Committed)
		}
		for comp, h := range dep.RelocationView() {
			cent.Deployment[model.ComponentID(comp)] = h
		}
		// Master-resident components died with the old process; recreate
		// origin copies so the improve loop has live instances to move.
		for _, comp := range cent.Deployment.ComponentsOn(master) {
			if err := host.Place(sys, comp, cent.PerTick); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "resumed from %s: %d waves resolved, next epoch %d\n",
			durable.StateDir, len(resumed), host.Store.NextEpoch())
	} else {
		// Instantiate every application component locally, then distribute
		// them to their described hosts through the real migration protocol.
		// The goal table is seeded with that pre-distribution truth
		// (everything on the master at generation 1); the distribution wave
		// bumps each host to its described manifest, so a slave that
		// announces later re-syncs from these generations. A restarted or
		// failed-over deployer restores the table from its log instead.
		goal := make(map[model.HostID][]prism.GoalComponent, len(sys.Hosts))
		for _, h := range sys.HostIDs() {
			goal[h] = nil
		}
		moves := make(map[string]model.HostID, len(deployment))
		current := make(map[string]model.HostID, len(deployment))
		for _, comp := range sys.ComponentIDs() {
			if err := host.Place(sys, comp, cent.PerTick); err != nil {
				return err
			}
			goal[master] = append(goal[master],
				prism.GoalComponent{ID: string(comp), Type: framework.TrafficTypeName})
			current[string(comp)], moves[string(comp)] = master, deployment[comp]
		}
		dep.SeedGoalState(goal)
		res, err := dep.Enact(moves, current, cent.EnactTimeout)
		if err != nil {
			return fmt.Errorf("initial distribution: %w", err)
		}
		fmt.Fprintf(out, "distributed %d components to %d hosts (%d confirmed)\n",
			res.Moved, len(slaves), res.Received)
	}

	if !*improve {
		return nil
	}
	// tolerable reports whether the cycle loop rides out err: with
	// liveness tracking on, a host dying under a report wait or a wave is
	// expected churn — the death latches and the next cycle replans around
	// it. Losing the leadership lease is always terminal.
	tolerable := func(err error) bool { return fd != nil && !errors.Is(err, prism.ErrNotLeader) }
	ctx := context.Background()
	for cycle := 1; cycle <= *cycles; cycle++ {
		time.Sleep(*interval)

		// Out-of-band recovery: a host the detector declared dead is
		// excluded from the model, its components are re-homed to the
		// master's origin copies, and the survivors are replanned
		// immediately — no hysteresis.
		deadMu.Lock()
		deaths := make([]model.HostID, 0, len(pendingDead))
		for h := range pendingDead {
			deaths = append(deaths, h)
			delete(pendingDead, h)
		}
		deadMu.Unlock()
		slices.Sort(deaths)
		for _, h := range deaths {
			rep, err := cent.Recover(ctx, h)
			if err != nil {
				if !tolerable(err) {
					return fmt.Errorf("recovery after %s died: %w", h, err)
				}
				// Another host died under the recovery wave; its death
				// latches too and the next cycle recovers both.
				fmt.Fprintf(out, "recovery after %s rolled back (%v); retrying next cycle\n", h, err)
				deadMu.Lock()
				pendingDead[h] = true
				deadMu.Unlock()
				continue
			}
			fmt.Fprintf(out, "recovered from %s: %s -> %.4f\n", h, rep.Decision.Algorithm, rep.Decision.Result.Score)
		}
		// A recovered host that heartbeats again (on a bumped
		// incarnation) rejoins the model and the next planning round.
		for _, h := range slaves {
			if cent.Model.HostDown(h) && fd.State(h) == prism.HostUp && cent.Rejoin(h) == nil {
				fmt.Fprintf(out, "host %s rejoined (incarnation %d)\n", h, fd.Incarnation(h))
			}
		}

		rep, err := cent.Cycle(ctx)
		fmt.Fprintf(out, "cycle %d: %d reports, %d params refined, stability %.2f, availability %.4f\n",
			cycle, rep.ReportsGathered, rep.ParamsWritten, rep.Stability, rep.AvailabilityBefore)
		switch {
		case err != nil && !tolerable(err):
			return fmt.Errorf("cycle %d: %w", cycle, err)
		case err != nil:
			fmt.Fprintf(out, "cycle %d: %v; replanning next cycle\n", cycle, err)
		case rep.Enacted:
			status := ""
			if rep.Degraded {
				status = " (degraded)"
			}
			fmt.Fprintf(out, "cycle %d: %s -> %.4f, redeployed %d components%s\n",
				cycle, rep.Decision.Algorithm, rep.AvailabilityAfter, rep.Moves, status)
		default:
			fmt.Fprintf(out, "cycle %d: %s -> %.4f (%s)\n",
				cycle, rep.Decision.Algorithm, rep.Decision.Result.Score, rep.Decision.Reason)
		}
	}
	fmt.Fprintf(out, "final deployment: %v\n", cent.Deployment)
	return nil
}

// waitForPeers blocks until every wanted host has a connection.
func waitForPeers(tr *prism.TCPTransport, want []model.HostID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		have := tr.Peers()
		if !slices.ContainsFunc(want, func(h model.HostID) bool { return !slices.Contains(have, h) }) {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for agents (have %v)", tr.Peers())
}
