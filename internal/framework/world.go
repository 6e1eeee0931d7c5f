// Package framework assembles the deployment improvement framework's two
// instantiations (DSN'04 §3.2):
//
//   - Centralized (Figure 2): a Master Host with the global model, a
//     centralized analyzer and algorithms, a master monitor gathering
//     slave reports, and a master effector distributing redeployment
//     commands to slave effectors.
//   - Decentralized (Figure 3): every host has a local monitor, local
//     effector, awareness-limited local model, a DecAp agent, and an
//     analyzer that coordinates with its remote counterparts by voting.
//
// Both run on live Prism-MW architectures over the netsim fabric, with
// TrafficComponents generating the application workload the monitors
// observe.
package framework

import (
	"fmt"
	"slices"

	"dif/internal/model"
	"dif/internal/netsim"
	"dif/internal/obs"
	"dif/internal/prism"
)

// BusName is the distribution connector every host exposes.
const BusName = "bus"

// World is a live multi-host Prism-MW system mirroring a model.System:
// one architecture per host, a bus distribution connector each, an admin
// per host, and one traffic component per model component, placed
// according to the initial deployment.
type World struct {
	Sys    *model.System
	Fabric *netsim.Fabric
	// Archs, Admins and Faults index the live hosts' parts by host ID;
	// install keeps them in step with the hosts themselves.
	Archs    map[model.HostID]*prism.Architecture
	Admins   map[model.HostID]*prism.AdminComponent
	Registry *prism.FactoryRegistry
	Master   model.HostID
	Deployer *prism.DeployerComponent
	// Faults holds each host's fault-injection decorator when
	// WorldConfig.Fault is set (nil otherwise) — tests and drills use it
	// to open and heal partitions mid-run.
	Faults map[model.HostID]*prism.FaultTransport

	// cfg and adminCfg are retained so RestartHost rebuilds a crashed
	// host's stack from the same HostConfig NewWorld did.
	cfg      WorldConfig
	adminCfg prism.AdminConfig
	hosts    map[model.HostID]*Host
	// down marks hosts currently crashed; incarnations counts each host's
	// restarts (the admin's epoch number on rejoin).
	down         map[model.HostID]bool
	incarnations map[model.HostID]uint64
}

// WorldConfig parameterizes world construction.
type WorldConfig struct {
	// Seed drives the fabric's loss process.
	Seed int64
	// Master selects the deployer's host; empty picks the first host.
	// The decentralized instantiation installs a deployer on every host
	// instead (see NewDecentralized).
	Master model.HostID
	// DeployerPerHost installs a deployer component on every host (the
	// decentralized instantiation's local effectors).
	DeployerPerHost bool
	// Monitors controls whether admin monitors are attached (the
	// monitoring-overhead experiment turns them off).
	Monitors bool
	// Fault, when non-nil, wraps every host's transport in a
	// FaultTransport seeded per host — dependability drills on top of the
	// fabric's own loss model.
	Fault *prism.FaultConfig
	// Obs and Trace wire the world's observability: every architecture,
	// fault transport, and the fabric register their metrics in Obs, and
	// deployers record wave span trees in Trace. Both are optional; nil
	// disables instrumentation at zero cost.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Tune, when non-nil, adjusts the admin/deployer configuration before
	// hosts are built — drills use it to pin timers (e.g. the enact resend
	// interval) for deterministic traces.
	Tune func(*prism.AdminConfig)
	// Delivery, when non-nil, tunes (or disables) the application-event
	// delivery-guarantee layer on every host's bus connector.
	Delivery *prism.DeliveryConfig
	// Admission, when Enabled, runs the class-prioritized admission queue
	// and its pump on every host's receive path.
	Admission prism.AdmissionConfig
}

// NewWorld builds a live world for the system and places one traffic
// component per model component according to the deployment.
func NewWorld(sys *model.System, deployment model.Deployment, cfg WorldConfig) (*World, error) {
	if err := deployment.Validate(sys); err != nil {
		return nil, fmt.Errorf("framework world: %w", err)
	}
	master := cfg.Master
	hosts := sys.HostIDs()
	if master == "" {
		master = hosts[0]
	}
	fabric, err := netsim.FromModel(sys, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := &World{
		Sys:          sys,
		Fabric:       fabric,
		Archs:        make(map[model.HostID]*prism.Architecture, len(hosts)),
		Admins:       make(map[model.HostID]*prism.AdminComponent, len(hosts)),
		Registry:     NewRegistry(),
		Master:       master,
		cfg:          cfg,
		hosts:        make(map[model.HostID]*Host, len(hosts)),
		down:         make(map[model.HostID]bool, len(hosts)),
		incarnations: make(map[model.HostID]uint64, len(hosts)),
	}
	w.adminCfg = prism.AdminConfig{
		Deployer: master, Bus: BusName, Registry: w.Registry,
	}
	if cfg.Tune != nil {
		cfg.Tune(&w.adminCfg)
	}
	fabric.Instrument(cfg.Obs)
	if cfg.Fault != nil {
		w.Faults = make(map[model.HostID]*prism.FaultTransport, len(hosts))
	}
	for _, h := range hosts {
		if err := w.startHost(h); err != nil {
			w.Close()
			return nil, err
		}
	}

	// Instantiate the application: one traffic component per model
	// component, with its logical links as partner rates.
	for _, comp := range sys.ComponentIDs() {
		if err := w.hosts[deployment[comp]].Place(sys, comp, 1); err != nil {
			w.Close()
			return nil, err
		}
	}
	// The initial placement is goal generation 1: agents that later
	// rejoin or restart converge back to the goal table, so it must
	// mirror reality from the first moment.
	if w.Deployer != nil {
		goal := make(map[model.HostID][]prism.GoalComponent, len(hosts))
		for _, h := range hosts {
			goal[h] = nil
		}
		for comp, host := range deployment {
			goal[host] = append(goal[host], prism.GoalComponent{
				ID: string(comp), Type: TrafficTypeName,
			})
		}
		w.Deployer.SeedGoalState(goal)
	}
	return w, nil
}

// FaultConfig returns host h's steady-state fault mix: WorldConfig.Fault
// (which must be set) with the seed offset by the host's position, so
// every host has its own deterministic stream and every lifetime of a
// host the same one. Drills that layer a fault window on a host peel it
// off again by handing this back to SetFaultConfig.
func (w *World) FaultConfig(h model.HostID) prism.FaultConfig {
	fc := *w.cfg.Fault
	fc.Seed += int64(slices.Index(w.Sys.HostIDs(), h) + 1)
	fc.Obs = w.cfg.Obs
	return fc
}

// startHost builds host h's stack for its current incarnation — the one
// path both NewWorld and RestartHost take — and installs it in the world's
// indexes.
func (w *World) startHost(h model.HostID) error {
	var tr prism.Transport
	tr, err := prism.NewNetsimTransport(w.Fabric, h)
	if err != nil {
		return err
	}
	if w.cfg.Fault != nil {
		ft := prism.NewFaultTransport(tr, w.FaultConfig(h))
		w.Faults[h] = ft
		tr = ft
	}
	adminCfg := w.adminCfg
	adminCfg.Incarnation = w.incarnations[h]
	host, err := NewHost(HostConfig{
		ID: h, Transport: tr, Admin: adminCfg,
		Deployer:  w.cfg.DeployerPerHost || h == w.Master,
		Delivery:  w.cfg.Delivery,
		Admission: w.cfg.Admission,
		Monitors:  w.cfg.Monitors,
		Obs:       w.cfg.Obs, Trace: w.cfg.Trace,
	})
	if err != nil {
		return err
	}
	w.hosts[h], w.Archs[h], w.Admins[h] = host, host.Arch, host.Admin
	if h == w.Master {
		w.Deployer = host.Deployer
	}
	return nil
}

// Step drives one workload tick on every traffic component.
func (w *World) Step() int {
	total := 0
	for _, h := range w.Sys.HostIDs() {
		if w.down[h] {
			continue
		}
		arch := w.Archs[h]
		for _, id := range arch.ComponentIDs() {
			if tc, ok := arch.Component(id).(*TrafficComponent); ok {
				total += tc.Tick()
			}
		}
	}
	return total
}

// StepN drives n workload ticks.
func (w *World) StepN(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += w.Step()
	}
	return total
}

// SetProbes sets how many pings every live host's reliability monitor
// spends per measurement. Probes are Bernoulli samples: the default 20
// leaves a sampling error (σ ≈ 0.08 on a 0.85 link) that drowns an
// ε-stability signal or a few points of availability margin, so
// experiments that compare either batch generously (400).
func (w *World) SetProbes(n int) {
	for _, h := range w.UpHosts() {
		if rm := w.Admins[h].ReliabilityMonitor(); rm != nil {
			rm.ProbesPerMeasurement = n
		}
	}
}

// BusConnector returns a live host's bus distribution connector (nil for
// crashed or unknown hosts).
func (w *World) BusConnector(h model.HostID) *prism.DistributionConnector {
	if w.down[h] {
		return nil
	}
	arch, ok := w.Archs[h]
	if !ok {
		return nil
	}
	return arch.DistributionConnector(BusName)
}

// DeliveryTicks drives one delivery-guarantee retransmission tick on
// every live host's bus connector, in sorted host order for determinism,
// and returns the total number of events retransmitted. Harnesses call
// this instead of running wall-clock delivery pumps.
func (w *World) DeliveryTicks() int {
	total := 0
	for _, h := range w.Sys.HostIDs() {
		if dc := w.BusConnector(h); dc != nil {
			total += dc.DeliveryTick()
		}
	}
	return total
}

// LiveDeployment reads the actual component placement off the running
// architectures. Crashed hosts contribute nothing: their components died
// with them.
func (w *World) LiveDeployment() model.Deployment {
	d := model.NewDeployment(len(w.Sys.Components))
	for h, arch := range w.Archs {
		if w.down[h] {
			continue
		}
		for _, id := range arch.ComponentIDs() {
			if id == prism.AdminID || id == prism.DeployerID {
				continue
			}
			d[model.ComponentID(id)] = h
		}
	}
	return d
}

// Obs returns the world's metric registry (nil when none was wired; all
// obs handles are nil-safe).
func (w *World) Obs() *obs.Registry { return w.cfg.Obs }

// Tracer returns the world's span tracer (nil when none was wired).
func (w *World) Tracer() *obs.Tracer { return w.cfg.Trace }

// HostDown reports whether a host is currently crashed.
func (w *World) HostDown(h model.HostID) bool { return w.down[h] }

// Incarnation returns how many times a host has been restarted.
func (w *World) Incarnation(h model.HostID) uint64 { return w.incarnations[h] }

// UpHosts returns the hosts that are currently alive, sorted.
func (w *World) UpHosts() []model.HostID {
	var out []model.HostID
	for _, h := range w.Sys.HostIDs() {
		if !w.down[h] {
			out = append(out, h)
		}
	}
	return out
}

// CrashHost fail-stops a host: its fabric endpoint goes dark, its
// control-plane goroutines stop, and every application component on it is
// lost. The lost component IDs are returned (sorted) so the recovery path
// knows what to restore from origin copies. Crashing a host twice is a
// no-op.
func (w *World) CrashHost(h model.HostID) []model.ComponentID {
	arch, ok := w.Archs[h]
	if !ok || w.down[h] {
		return nil
	}
	w.Fabric.Crash(h)
	var lost []model.ComponentID
	for _, id := range arch.ComponentIDs() {
		if id == prism.AdminID || id == prism.DeployerID {
			continue
		}
		lost = append(lost, model.ComponentID(id))
	}
	w.hosts[h].Close()
	w.down[h] = true
	return lost
}

// RestartHost resurrects a crashed host with a fresh (empty) architecture
// and a bumped incarnation number, from the same HostConfig NewWorld built
// it with: new transport bound to the recovered fabric endpoint, new admin,
// and — when the world runs a deployer per host — a new local deployer. The
// restarted host carries no application components; it rejoins the control
// plane and waits to be folded back in by the next estimation round.
func (w *World) RestartHost(h model.HostID) (*prism.AdminComponent, error) {
	if !w.down[h] {
		return nil, fmt.Errorf("framework world: host %s is not down", h)
	}
	w.Fabric.Recover(h)
	w.incarnations[h]++
	if err := w.startHost(h); err != nil {
		return nil, err
	}
	delete(w.down, h)
	return w.Admins[h], nil
}

// RestartDeployer simulates a deployer-process crash and restart on the
// (live) master host without disturbing the host itself: the old deployer
// component is closed and removed from the master's architecture and a
// fresh one installed in its place. The host's incarnation is NOT bumped —
// a deployer restart is a process event, not a host failure, and the
// failure detector's view of the master must not churn. Callers that run
// with a durable store re-attach it (AttachStore) and Resume() on the
// returned deployer.
func (w *World) RestartDeployer() (*prism.DeployerComponent, error) {
	return w.RestartDeployerOn(w.Master)
}

// PlaceComponent instantiates a fresh traffic component for a model
// component on the given live host, wiring its partner rates from the
// model's logical links — the "origin copy" restoration the recovery path
// uses for components lost with a crashed host.
func (w *World) PlaceComponent(comp model.ComponentID, host model.HostID) error {
	if w.down[host] {
		return fmt.Errorf("framework world: cannot place %s on crashed host %s", comp, host)
	}
	h, ok := w.hosts[host]
	if !ok {
		return fmt.Errorf("framework world: unknown host %s", host)
	}
	if err := h.Place(w.Sys, comp, 1); err != nil {
		return err
	}
	// Out-of-band placement: record it in the goal table so the next
	// resync does not evict the restored copy.
	if w.Deployer != nil {
		w.Deployer.RelocateGoal(string(comp), TrafficTypeName, host)
	}
	return nil
}

// Hosts returns all host IDs, sorted.
func (w *World) Hosts() []model.HostID { return w.Sys.HostIDs() }

// SlaveHosts returns every host except the master.
func (w *World) SlaveHosts() []model.HostID {
	var out []model.HostID
	for _, h := range w.Sys.HostIDs() {
		if h != w.Master {
			out = append(out, h)
		}
	}
	return out
}

// Close shuts down the world: every deployer first — closing a deployer
// aborts any in-flight wave, so no host's teardown blocks on a wave another
// host coordinates — then each host (see Host.Close), then the fabric.
func (w *World) Close() {
	for _, h := range w.hosts {
		if h.Deployer != nil {
			h.Deployer.Close()
		}
	}
	for _, h := range w.hosts {
		h.Close()
	}
	w.Fabric.Close()
}
