// Package cliflags defines the command-line surface the deployer and
// agent binaries share, so the fault-injection, liveness, and
// observability knobs stay name- and default-compatible across both
// halves of a drill: a flag you pass the master means the same thing on
// every slave.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// Common holds the parsed values of the shared flags.
type Common struct {
	FaultDrop     float64
	FaultDup      float64
	FaultAsym     float64
	FaultSeed     int64
	Heartbeat     time.Duration
	AppRetransmit time.Duration
	MetricsAddr   string
	TraceOut      string
	BatchBytes    int

	// Overload protection: the class-prioritized admission controller on
	// the receive path. Off by default — drills opt in.
	Shed         bool
	ShedCapacity int
}

// Register installs the shared flags on fs and returns the struct the
// parsed values land in.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.Float64Var(&c.FaultDrop, "fault-drop", 0, "injected silent frame-drop rate [0,1) for dependability drills")
	fs.Float64Var(&c.FaultDup, "fault-dup", 0, "injected duplicate-delivery rate [0,1)")
	fs.Float64Var(&c.FaultAsym, "fault-asym", 0, "injected INBOUND-only silent drop rate [0,1): this process hears the world badly while its own frames flow clean — the canonical gray failure")
	fs.Int64Var(&c.FaultSeed, "fault-seed", 1, "seed for the injected fault process")
	fs.DurationVar(&c.Heartbeat, "heartbeat", 0, "liveness heartbeat interval (0 disables)")
	fs.DurationVar(&c.AppRetransmit, "app-retransmit", 250*time.Millisecond, "application-event retransmission interval (0 disables the delivery-guarantee layer)")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve /metrics, /trace and /debug/pprof on this address (empty disables)")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write recorded span trees as JSONL to this file on exit (empty disables)")
	fs.IntVar(&c.BatchBytes, "batch-bytes", 0, "per-connection TCP send-buffer high-water mark in bytes: Send blocks while that much is unwritten (0 means 64 KiB)")
	fs.BoolVar(&c.Shed, "shed", false, "enable class-prioritized admission on the receive path: bounded per-class queues dispatched liveness > control > app, shedding the arriving class when its queue is full")
	fs.IntVar(&c.ShedCapacity, "shed-capacity", prism.DefaultQueueCap, "admission queue capacity per class (queues grow on demand up to it)")
	return c
}

// Durable holds the parsed values of the deployer-only durability flags.
// Agents deliberately have no -state-dir: slave-side state is soft by
// design — a restarted agent's components are reconstructed by the
// coordinator's recovery waves, so persisting them would only risk
// resurrecting stale instances.
type Durable struct {
	StateDir string
}

// RegisterDurable installs the deployer's durability flags on fs.
func RegisterDurable(fs *flag.FlagSet) *Durable {
	d := &Durable{}
	fs.StringVar(&d.StateDir, "state-dir", "", "directory for the deployer's crash-safe wave checkpoint log (empty disables; on restart the deployer resumes or aborts in-flight waves from it instead of replanning)")
	return d
}

// HA holds the parsed values of the deployer-only high-availability
// flags. Like -state-dir, these are deliberately absent from the shared
// set: agents vote on leases and fence stale terms, but only deployer
// processes campaign, replicate, or stand by.
type HA struct {
	// Standby starts this deployer as a warm standby: it ingests the
	// leader's replication stream and campaigns only when its leader
	// watch fires (or an operator asks), instead of leading at boot.
	Standby bool
	// Peers lists the other deployer hosts — the replication targets and
	// failover candidates. Each comma-separated entry is either a bare
	// host ID (the peer must dial us) or host=addr (we also dial it).
	Peers string
	// LeaseTTL bounds how long an agent-granted leadership lease fences
	// out other candidates between renewals.
	LeaseTTL time.Duration
}

// RegisterHA installs the deployer's high-availability flags on fs.
func RegisterHA(fs *flag.FlagSet) *HA {
	h := &HA{}
	fs.BoolVar(&h.Standby, "standby", false, "start as a warm standby deployer: ingest the leader's replicated checkpoint stream and take over (same epochs, next fencing term) only when the leader's lease lapses")
	fs.StringVar(&h.Peers, "peers", "", "comma-separated peer deployers to replicate checkpoints to and fail over between, each host or host=addr (empty runs the classic solo deployer)")
	fs.DurationVar(&h.LeaseTTL, "lease-ttl", prism.DefaultLeaseTTL, "leadership lease time-to-live; a standby may campaign once the leader has been silent this long")
	return h
}

// PeerList splits -peers into host IDs (any =addr suffix stripped),
// dropping empty segments.
func (h *HA) PeerList() []string {
	if h.Peers == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(h.Peers, ",") {
		p, _, _ = strings.Cut(p, "=")
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// PeerAddrs maps each -peers host ID to its dial address ("" for bare
// entries — those peers are expected to dial us instead).
func (h *HA) PeerAddrs() (map[string]string, error) {
	return ParsePeerAddrs(h.Peers)
}

// ParsePeerAddrs parses a comma-separated "host" or "host=addr" list —
// the format the deployer's -peers and the agent's -deployers share —
// into host ID → dial address ("" for bare entries).
func ParsePeerAddrs(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, entry := range strings.Split(s, ",") {
		if strings.TrimSpace(entry) == "" {
			continue
		}
		host, addr, _ := strings.Cut(entry, "=")
		host, addr = strings.TrimSpace(host), strings.TrimSpace(addr)
		if host == "" {
			return nil, fmt.Errorf("peer entry %q has no host ID", entry)
		}
		if _, dup := out[host]; dup {
			return nil, fmt.Errorf("peer list names host %s twice", host)
		}
		out[host] = addr
	}
	return out, nil
}

// Faulty reports whether any transport fault injection was requested.
func (c *Common) Faulty() bool {
	return c.FaultDrop > 0 || c.FaultDup > 0 || c.FaultAsym > 0
}

// FaultConfig builds the fault decorator's configuration, registering
// its counters in reg (nil reg discards them). -fault-asym lands on the
// inbound direction only: the classic symmetric rates stay on the
// outbound path, so combining them limps the link both ways at different
// severities.
func (c *Common) FaultConfig(reg *obs.Registry) prism.FaultConfig {
	return prism.FaultConfig{
		Seed: c.FaultSeed, DropRate: c.FaultDrop, DupRate: c.FaultDup,
		Inbound: prism.DirFault{DropRate: c.FaultAsym},
		Obs:     reg,
	}
}

// Admission builds the receive-path admission configuration; it is
// Enabled only when -shed was passed.
func (c *Common) Admission() prism.AdmissionConfig {
	return prism.AdmissionConfig{Enabled: c.Shed, QueueCap: c.ShedCapacity}
}

// Delivery builds the application-event delivery-guarantee
// configuration: -app-retransmit 0 turns the layer off entirely
// (fire-and-forget application traffic), any positive interval keeps it
// on with defaults and paces the host's delivery pump.
func (c *Common) Delivery() prism.DeliveryConfig {
	return prism.DeliveryConfig{Disabled: c.AppRetransmit <= 0}
}

// Transport opens the process's TCP endpoint per the shared flags and
// returns it twice: the concrete handle (Addr, AddPeer, Hello, Peers) and
// the transport the bus sees — the same endpoint, or a fault decorator
// around it when a -fault-* rate is set.
func (c *Common) Transport(host model.HostID, listen string, reg *obs.Registry) (*prism.TCPTransport, prism.Transport, error) {
	tr, err := prism.NewTCPTransport(host, listen)
	if err != nil {
		return nil, nil, err
	}
	// Set before any peer connects: connections snapshot it at creation.
	tr.SetBatching(c.BatchBytes, 0)
	tr.Instrument(reg)
	if c.Faulty() {
		return tr, prism.NewFaultTransport(tr, c.FaultConfig(reg)), nil
	}
	return tr, tr, nil
}

// KeepDialing knocks on peer once a second until a Hello lands or stop
// closes. Boot order between processes is free, and once either side's
// Hello succeeds the link carries frames both ways.
func KeepDialing(tr *prism.TCPTransport, peer model.HostID, stop <-chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for tr.Hello(peer) != nil {
		select {
		case <-t.C:
		case <-stop:
			return
		}
	}
}

// HostConfig maps the shared flags onto the one host recipe
// (framework.NewHost) both binaries are built from: a started scaffold,
// the delivery layer and its pump, the heartbeat pump and admission.
// master names the host running the deployer. The caller adds what only
// it knows — incarnation, deployer, state dir.
func (c *Common) HostConfig(id, master model.HostID, bus prism.Transport, reg *obs.Registry, tracer *obs.Tracer) framework.HostConfig {
	delivery := c.Delivery()
	return framework.HostConfig{
		ID:           id,
		Transport:    bus,
		Admin:        prism.AdminConfig{Deployer: master},
		Workers:      4,
		Delivery:     &delivery,
		DeliveryTick: c.AppRetransmit,
		Heartbeat:    c.Heartbeat,
		Admission:    c.Admission(),
		Monitors:     true,
		Obs:          reg,
		Trace:        tracer,
	}
}

// Observability wires the process's metric registry and span tracer per
// the shared flags: with -metrics-addr an HTTP endpoint serves metrics,
// traces, and pprof (and profiling labels turn on); the returned
// shutdown closes the endpoint and, with -trace-out, dumps every
// recorded span tree as JSONL. Call shutdown on every exit path. The
// endpoint's address is announced on out.
func (c *Common) Observability(out io.Writer) (*obs.Registry, *obs.Tracer, func(), error) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	var stop func() error
	if c.MetricsAddr != "" {
		addr, shutdown, err := obs.Serve(c.MetricsAddr, reg, tracer)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("metrics endpoint: %w", err)
		}
		fmt.Fprintf(out, "metrics on http://%s/metrics (pprof on /debug/pprof/)\n", addr)
		stop = shutdown
	}
	shutdown := func() {
		if stop != nil {
			_ = stop()
		}
		if c.TraceOut == "" {
			return
		}
		f, err := os.Create(c.TraceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", err)
			return
		}
		if err := tracer.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", err)
		}
		f.Close()
	}
	return reg, tracer, shutdown, nil
}
