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
	"io"
	"os"
	"time"

	"dif/internal/cliflags"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "agent:", err)
		os.Exit(1)
	}
}

type agentConfig struct {
	host, masterHost   model.HostID
	listen, masterAddr string
	deployers          map[string]string
	tick               time.Duration
	common             *cliflags.Common
	reg                *obs.Registry
	tracer             *obs.Tracer
	out                io.Writer
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	host := fs.String("host", "", "this agent's host name (must match the architecture)")
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address")
	masterHost := fs.String("master-host", "master", "the deployer's host name")
	masterAddr := fs.String("master", "", "the deployer's TCP address")
	deployers := fs.String("deployers", "", "additional deployers to connect to (comma-separated host=addr) — standbys that must reach this agent to campaign for leadership")
	duration := fs.Duration("duration", 30*time.Second, "how long to run")
	tick := fs.Duration("tick", 100*time.Millisecond, "application workload tick interval")
	incarnation := fs.Uint64("incarnation", 0, "starting incarnation number for this host")
	churnCrashAfter := fs.Duration("churn-crash-after", 0, "self-crash after this long (0 disables the churn drill)")
	churnDowntime := fs.Duration("churn-downtime", 2*time.Second, "dark time between churn lifetimes")
	churnCycles := fs.Int("churn-cycles", 1, "crash/rejoin cycles to run before the final lifetime")
	common := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
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
	reg, tracer, obsShutdown, err := common.Observability(out)
	if err != nil {
		return err
	}
	defer obsShutdown()

	cfg := agentConfig{
		host: model.HostID(*host), listen: *listen,
		masterHost: model.HostID(*masterHost), masterAddr: *masterAddr,
		deployers: deployerAddrs, tick: *tick,
		common: common, reg: reg, tracer: tracer, out: out,
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
		fmt.Fprintf(out, "agent %s crashed (incarnation %d); dark for %v\n", cfg.host, inc, *churnDowntime)
		time.Sleep(*churnDowntime)
		inc++
	}
	return lifetime(cfg, inc, *duration)
}

// lifetime runs one full up-phase of the agent: build the host, join,
// host components, tick traffic, and tear everything down when the
// deadline passes.
func lifetime(cfg agentConfig, incarnation uint64, duration time.Duration) error {
	tr, bus, err := cfg.common.Transport(cfg.host, cfg.listen, cfg.reg)
	if err != nil {
		return err
	}
	// Known before the host's heartbeat pump starts, so its first beacon
	// can already dial the deployer.
	tr.AddPeer(cfg.masterHost, cfg.masterAddr)
	hc := cfg.common.HostConfig(cfg.host, cfg.masterHost, bus, cfg.reg, cfg.tracer)
	hc.Admin.Incarnation = incarnation
	host, err := framework.NewHost(hc)
	if err != nil {
		return err
	}
	defer host.Close()

	// Introduce ourselves so the deployer sees this host as a peer.
	if err := tr.Hello(cfg.masterHost); err != nil {
		return fmt.Errorf("join %s: %w", cfg.masterAddr, err)
	}
	// Level-triggered reconciliation: report our generation and manifest
	// (empty on a fresh incarnation) so the deployer re-syncs us with one
	// delta instead of replaying the waves this host missed while dark.
	_ = host.Admin.AnnounceGoalState()
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
		go cliflags.KeepDialing(tr, dh, stopDial)
	}
	fmt.Fprintf(cfg.out, "agent %s joined %s (%s) incarnation %d; running %v\n",
		cfg.host, cfg.masterHost, cfg.masterAddr, incarnation, duration)

	ticker := time.NewTicker(cfg.tick)
	defer ticker.Stop()
	deadline := time.After(duration)
	for {
		select {
		case <-ticker.C:
			for _, id := range host.Arch.ComponentIDs() {
				if tc, ok := host.Arch.Component(id).(*framework.TrafficComponent); ok {
					tc.Tick()
				}
			}
		case <-deadline:
			rep := host.Admin.Report(false)
			fmt.Fprintf(cfg.out, "agent %s exiting; hosting %v\n", cfg.host, rep.Components)
			return nil
		}
	}
}
