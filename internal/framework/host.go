package framework

import (
	"fmt"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// HostConfig describes one host's runtime stack. Every netsim world host,
// the agent binary and the deployer binary are built from it by NewHost,
// so a drill exercises the wiring that ships. A zero pump interval or
// worker count means "the caller drives it": no goroutine or timer is
// started, which is how a World stays deterministic.
type HostConfig struct {
	ID model.HostID
	// Transport carries the bus (already fault-wrapped when the caller
	// injects faults). The host owns it from here on: Close closes it.
	Transport prism.Transport
	// Admin configures the admin and, with Deployer, the deployer
	// component: the master's host ID, this lifetime's incarnation,
	// tuned timers. Bus is always BusName; a nil
	// Registry is replaced by NewRegistry().
	Admin prism.AdminConfig
	// Deployer installs a deployer component; StateDir additionally opens
	// its checkpoint log there and attaches it.
	Deployer bool
	StateDir string
	// Workers sizes the scaffold's pool; zero keeps dispatch synchronous
	// on the sender's goroutine.
	Workers int
	// Delivery, when non-nil, tunes (or disables) the delivery-guarantee
	// layer; DeliveryTick paces its retransmission clock, zero leaving
	// DeliveryTick calls to the caller.
	Delivery     *prism.DeliveryConfig
	DeliveryTick time.Duration
	// Heartbeat paces liveness beacons; zero leaves SendHeartbeat to the
	// caller.
	Heartbeat time.Duration
	// Admission, when Enabled, puts the class-prioritized admission
	// queue and its pump on the receive path.
	Admission prism.AdmissionConfig
	// Monitors keeps the admin's frequency and reliability monitors
	// attached.
	Monitors bool
	Obs      *obs.Registry
	Trace    *obs.Tracer
}

// Host is one live host: its architecture, admin, and — on a deployer
// host — deployer component and checkpoint log.
type Host struct {
	ID    model.HostID
	Arch  *prism.Architecture
	Admin *prism.AdminComponent
	// Deployer and Store are nil on a pure slave (Store also without a
	// StateDir).
	Deployer *prism.DeployerComponent
	Store    *prism.DeployerStore

	transport prism.Transport
	admission *prism.AdmissionController
}

// NewRegistry returns a factory registry that can reconstitute migrated
// traffic components.
func NewRegistry() *prism.FactoryRegistry {
	r := prism.NewFactoryRegistry()
	r.Register(TrafficTypeName, func(id string) prism.Migratable {
		return NewTrafficComponent(id)
	})
	return r
}

// NewHost builds a host's stack in the one order its parts depend on:
// observability before anything registers a metric; the scaffold before
// the first frame can be dispatched; the bus connector, then its delivery
// configuration, before the admin welds to it and stamps its incarnation;
// admission after the admin so no frame is queued for a host that cannot
// answer; the pumps once there is something to pump; the deployer last,
// because attaching its store restores relocation and dedup state into
// the connector. On error everything built so far is torn down.
func NewHost(cfg HostConfig) (*Host, error) {
	h := &Host{ID: cfg.ID, transport: cfg.Transport}
	h.Arch = prism.NewArchitecture(cfg.ID, nil)
	h.Arch.SetObservability(cfg.Obs, cfg.Trace)
	if cfg.Workers > 0 {
		h.Arch.Scaffold().Start(cfg.Workers)
	}
	fail := func(err error) (*Host, error) {
		h.Close()
		return nil, fmt.Errorf("framework host %s: %w", cfg.ID, err)
	}
	dc, err := h.Arch.AddDistributionConnector(BusName, cfg.Transport)
	if err != nil {
		return fail(err)
	}
	if cfg.Delivery != nil {
		dc.SetDeliveryConfig(*cfg.Delivery)
	}
	adminCfg := cfg.Admin
	adminCfg.Bus = BusName
	if adminCfg.Registry == nil {
		adminCfg.Registry = NewRegistry()
	}
	if h.Admin, err = prism.InstallAdmin(h.Arch, adminCfg); err != nil {
		return fail(err)
	}
	if !cfg.Monitors {
		h.Admin.DetachMonitors()
	}
	if cfg.Admission.Enabled {
		h.admission = dc.EnableAdmission(cfg.Admission)
	}
	if cfg.DeliveryTick > 0 {
		h.Admin.StartDeliveryTicks(cfg.DeliveryTick)
	}
	if cfg.Heartbeat > 0 {
		h.Admin.StartHeartbeats(cfg.Heartbeat)
	}
	if cfg.Deployer {
		if h.Deployer, err = prism.InstallDeployer(h.Arch, adminCfg); err != nil {
			return fail(err)
		}
		if cfg.StateDir != "" {
			if h.Store, err = prism.OpenDeployerStore(cfg.StateDir); err != nil {
				return fail(fmt.Errorf("state dir %s: %w", cfg.StateDir, err))
			}
			if err := h.Deployer.AttachStore(h.Store); err != nil {
				return fail(err)
			}
		}
	}
	return h, nil
}

// Close tears the host down in one order: the admission pump first, so
// frames admitted but not yet dispatched die with a fail-stopped host
// instead of delivering from the grave; the deployer next — closing it
// aborts any in-flight wave, so nothing below blocks on a wave's waiters —
// and its checkpoint log with it; then the admin's background goroutines,
// the last local senders; then the transport, which returns only once its
// readers have exited (and turns away a frame still held in a fault
// decorator's delay stage when it fires); and the scaffold last, because
// Drain must not overlap a Dispatch and only a closed transport guarantees
// no receive callback is still dispatching. Safe on a partially built host
// and idempotent.
func (h *Host) Close() {
	if h.admission != nil {
		h.admission.Close()
	}
	if h.Deployer != nil {
		h.Deployer.Close()
	}
	if h.Store != nil {
		_ = h.Store.Close() // a second Close of the log is harmless
	}
	if h.Admin != nil {
		h.Admin.Close()
	}
	_ = h.transport.Close() // nothing left to flush; closing twice is harmless
	h.Arch.Shutdown()
}

// Place instantiates a traffic component for comp on this host, with
// sys's logical links as partner rates — one link-frequency unit emits
// perTick events per Tick (1 when a tick is the model's time unit; the
// tick length in seconds when agents tick on a wall clock). Placing a
// component that is already present is a no-op.
func (h *Host) Place(sys *model.System, comp model.ComponentID, perTick float64) error {
	if h.Arch.Component(string(comp)) != nil {
		return nil
	}
	tc := NewTrafficComponent(string(comp))
	for _, link := range sys.InteractionsOf(comp) {
		other := link.Components.A
		if other == comp {
			other = link.Components.B
		}
		tc.AddPartner(string(other), link.Frequency()*perTick, link.EventSize())
	}
	tc.Instrument(h.Arch.Obs())
	if err := h.Arch.AddComponent(tc); err != nil {
		return err
	}
	return h.Arch.Weld(string(comp), BusName)
}
