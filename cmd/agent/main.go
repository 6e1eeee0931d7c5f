// Command agent is a slave-host runtime (the paper's Slave Host,
// Figure 2): a Prism-MW architecture with an AdminComponent that joins a
// deployer over TCP, hosts migratable application components, monitors
// its local subsystem, and participates in redeployment.
//
// Usage:
//
//	agent -host troop1 -master-host hq -master 127.0.0.1:7000 [-duration 30s]
//
// With -heartbeat the agent periodically announces liveness to the
// deployer. The -churn-* flags run a crash/rejoin drill: the agent
// kills its own process state after -churn-crash-after, stays dark for
// -churn-downtime, then rejoins with a bumped incarnation — repeating
// for -churn-cycles lifetimes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dif/internal/cliflags"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "agent:", err)
		os.Exit(1)
	}
}

type agentConfig struct {
	host       model.HostID
	listen     string
	masterHost model.HostID
	masterAddr string
	deployers  map[string]string
	tick       time.Duration
	common     *cliflags.Common
	reg        *obs.Registry
	tracer     *obs.Tracer
}

func run() error {
	host := flag.String("host", "", "this agent's host name (must match the architecture)")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	masterHost := flag.String("master-host", "master", "the deployer's host name")
	masterAddr := flag.String("master", "", "the deployer's TCP address")
	deployers := flag.String("deployers", "", "additional deployers to connect to (comma-separated host=addr) — standbys that must reach this agent to campaign for leadership")
	duration := flag.Duration("duration", 30*time.Second, "how long to run")
	tick := flag.Duration("tick", 100*time.Millisecond, "application workload tick interval")
	incarnation := flag.Uint64("incarnation", 0, "starting incarnation number for this host")
	churnCrashAfter := flag.Duration("churn-crash-after", 0, "self-crash after this long (0 disables the churn drill)")
	churnDowntime := flag.Duration("churn-downtime", 2*time.Second, "dark time between churn lifetimes")
	churnCycles := flag.Int("churn-cycles", 1, "crash/rejoin cycles to run before the final lifetime")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	if *host == "" || *masterAddr == "" {
		return fmt.Errorf("-host and -master are required")
	}
	deployerAddrs, err := cliflags.ParsePeerAddrs(*deployers)
	if err != nil {
		return err
	}
	for h, addr := range deployerAddrs {
		if addr == "" {
			return fmt.Errorf("-deployers entry %s needs a dial address (host=addr)", h)
		}
	}
	reg, tracer, obsShutdown, err := common.Observability()
	if err != nil {
		return err
	}
	defer obsShutdown()

	cfg := agentConfig{
		host:       model.HostID(*host),
		listen:     *listen,
		masterHost: model.HostID(*masterHost),
		masterAddr: *masterAddr,
		deployers:  deployerAddrs,
		tick:       *tick,
		common:     common,
		reg:        reg,
		tracer:     tracer,
	}

	if *churnCrashAfter <= 0 {
		return lifetime(cfg, *incarnation, *duration)
	}

	// Churn drill: each lifetime ends in a simulated crash (abrupt
	// teardown, no farewell), then the host resurrects with the next
	// incarnation so the deployer's detector can tell rejoin from replay.
	inc := *incarnation
	for cycle := 0; cycle < *churnCycles; cycle++ {
		if err := lifetime(cfg, inc, *churnCrashAfter); err != nil {
			return fmt.Errorf("lifetime %d (incarnation %d): %w", cycle, inc, err)
		}
		fmt.Printf("agent %s crashed (incarnation %d); dark for %v\n", cfg.host, inc, *churnDowntime)
		time.Sleep(*churnDowntime)
		inc++
	}
	return lifetime(cfg, inc, *duration)
}

// lifetime runs one full up-phase of the agent: join, host components,
// tick traffic, heartbeat, and tear everything down when the deadline
// passes.
func lifetime(cfg agentConfig, incarnation uint64, duration time.Duration) error {
	tr, err := prism.NewTCPTransport(cfg.host, cfg.listen)
	if err != nil {
		return err
	}
	// Set before any peer connects: connections snapshot it at creation.
	tr.SetBatching(cfg.common.BatchBytes, 0)
	tr.Instrument(cfg.reg)
	// The bus sees the (optionally fault-injected) transport; Hello and
	// Addr still go through the concrete TCP handle.
	var busTr prism.Transport = tr
	if cfg.common.Faulty() {
		busTr = prism.NewFaultTransport(tr, cfg.common.FaultConfig(cfg.reg))
	}
	defer busTr.Close()
	tr.AddPeer(cfg.masterHost, cfg.masterAddr)

	arch := prism.NewArchitecture(cfg.host, nil)
	arch.SetObservability(cfg.reg, cfg.tracer)
	arch.Scaffold().Start(4)
	defer arch.Shutdown()
	if _, err := arch.AddDistributionConnector(framework.BusName, busTr); err != nil {
		return err
	}
	registry := prism.NewFactoryRegistry()
	registry.Register(framework.TrafficTypeName, func(id string) prism.Migratable {
		return framework.NewTrafficComponent(id)
	})
	admin, err := prism.InstallAdmin(arch, prism.AdminConfig{
		Deployer:    cfg.masterHost,
		Bus:         framework.BusName,
		Registry:    registry,
		Retry:       cfg.common.Retry(),
		Breaker:     cfg.common.BreakerConfig(),
		Incarnation: incarnation,
	})
	if err != nil {
		return err
	}
	defer admin.Close()
	// Application-traffic continuity: enable (or explicitly disable) the
	// delivery-guarantee layer and pace its retransmission clock.
	arch.DistributionConnector(framework.BusName).SetDeliveryConfig(cfg.common.Delivery())
	// Overload protection: with -shed, inbound frames pass a bounded,
	// class-prioritized admission queue (liveness > control > app).
	if cfg.common.Shed {
		adm := arch.DistributionConnector(framework.BusName).EnableAdmission(cfg.common.Admission())
		defer adm.Close()
	}
	if cfg.common.AppRetransmit > 0 {
		admin.StartDeliveryTicks(cfg.common.AppRetransmit)
	}

	// Introduce ourselves so the deployer sees this host as a peer.
	if err := tr.Hello(cfg.masterHost); err != nil {
		return fmt.Errorf("join %s: %w", cfg.masterAddr, err)
	}
	// Level-triggered reconciliation: report our generation and manifest
	// (empty on a fresh incarnation) so the deployer re-syncs us with one
	// delta instead of replaying the waves this host missed while dark.
	_ = admin.AnnounceGoalState()
	// Standby deployers are joined too, but best-effort in the
	// background: a standby must reach this agent to request a lease,
	// yet its absence must not keep the agent from its primary.
	stopDial := make(chan struct{})
	defer close(stopDial)
	for h, addr := range cfg.deployers {
		dh := model.HostID(h)
		if dh == cfg.masterHost || dh == cfg.host {
			continue
		}
		tr.AddPeer(dh, addr)
		go func(peer model.HostID) {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				if tr.Hello(peer) == nil {
					return
				}
				select {
				case <-t.C:
				case <-stopDial:
					return
				}
			}
		}(dh)
	}
	fmt.Printf("agent %s joined %s (%s) incarnation %d; running %v\n",
		cfg.host, cfg.masterHost, cfg.masterAddr, incarnation, duration)
	if cfg.common.Heartbeat > 0 {
		admin.StartHeartbeats(cfg.common.Heartbeat)
	}

	ticker := time.NewTicker(cfg.tick)
	defer ticker.Stop()
	deadline := time.After(duration)
	for {
		select {
		case <-ticker.C:
			for _, id := range arch.ComponentIDs() {
				if tc, ok := arch.Component(id).(*framework.TrafficComponent); ok {
					tc.Tick()
				}
			}
		case <-deadline:
			rep := admin.Report(false)
			fmt.Printf("agent %s exiting; hosting %v\n", cfg.host, rep.Components)
			return nil
		}
	}
}
