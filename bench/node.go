package main

import (
	"fmt"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

const (
	busName = "bus"
	// batchBytes and batchFlush are the coalescing knobs the data-plane
	// numbers in this repository were recorded with; deliveryTick is the
	// -app-retransmit default of cmd/agent and cmd/deployer.
	batchBytes   = 64 << 10
	batchFlush   = time.Millisecond
	deliveryTick = 250 * time.Millisecond
)

// nodeConfig describes one TCP node. Every node is wired the way
// cmd/agent wires a host: transport with frame coalescing, architecture
// with a started scaffold, a bus distribution connector with the
// delivery-guarantee layer on, receive-path admission, an admin, and a
// delivery tick. The master additionally carries a deployer and,
// when stateDir is set, its durable store.
type nodeConfig struct {
	host      model.HostID
	master    model.HostID
	queueCap  int // admission queue capacity per class; 0 leaves admission off
	deployer  bool
	stateDir  string
	factories *prism.FactoryRegistry
	reg       *obs.Registry
	tracer    *obs.Tracer
}

type node struct {
	host  model.HostID
	tr    *prism.TCPTransport
	arch  *prism.Architecture
	bus   *prism.DistributionConnector
	admin *prism.AdminComponent
	adm   *prism.AdmissionController
	dep   *prism.DeployerComponent
	store *prism.DeployerStore

	stop chan struct{}
	wg   sync.WaitGroup
	// tickUS holds the duration of every DeliveryTick when the node was
	// built with a registry (traced runs).
	mu     sync.Mutex
	tickUS []float64
}

func newNode(cfg nodeConfig) (*node, error) {
	tr, err := prism.NewTCPTransport(cfg.host, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Coalescing is snapshotted per connection, so it is set before any dial.
	tr.SetBatching(batchBytes, batchFlush)
	tr.Instrument(cfg.reg)
	n := &node{host: cfg.host, tr: tr, stop: make(chan struct{})}
	n.arch = prism.NewArchitecture(cfg.host, nil)
	n.arch.SetObservability(cfg.reg, cfg.tracer)
	n.arch.Scaffold().Start(2)
	if n.bus, err = n.arch.AddDistributionConnector(busName, tr); err != nil {
		n.close()
		return nil, err
	}
	acfg := prism.AdminConfig{Deployer: cfg.master, Bus: busName, Registry: cfg.factories}
	if n.admin, err = prism.InstallAdmin(n.arch, acfg); err != nil {
		n.close()
		return nil, err
	}
	n.bus.SetDeliveryConfig(prism.DeliveryConfig{})
	if cfg.queueCap > 0 {
		n.adm = n.bus.EnableAdmission(prism.AdmissionConfig{Enabled: true, QueueCap: cfg.queueCap})
	}
	if cfg.deployer {
		if n.dep, err = prism.InstallDeployer(n.arch, acfg); err != nil {
			n.close()
			return nil, err
		}
		if cfg.stateDir != "" {
			if n.store, err = prism.OpenDeployerStore(cfg.stateDir); err != nil {
				n.close()
				return nil, err
			}
			if err = n.dep.AttachStore(n.store); err != nil {
				n.close()
				return nil, err
			}
		}
	}
	timed := cfg.reg != nil
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(deliveryTick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if !timed {
					n.bus.DeliveryTick()
					continue
				}
				t0 := time.Now()
				n.bus.DeliveryTick()
				d := time.Since(t0)
				n.mu.Lock()
				n.tickUS = append(n.tickUS, float64(d)/1e3)
				n.mu.Unlock()
			case <-n.stop:
				return
			}
		}
	}()
	return n, nil
}

// connect dials one way only, lower host name to higher, and waits until
// both ends have registered the connection. Crossed simultaneous dials
// are a known defect of tcp.go (ROADMAP, "Known defects"); a benchmark
// must not depend on which side wins that duel, so it never starts one.
func connect(nodes ...*node) error {
	for _, lo := range nodes {
		for _, hi := range nodes {
			if lo.host >= hi.host {
				continue
			}
			lo.tr.AddPeer(hi.host, hi.tr.Addr())
			if err := lo.tr.Hello(hi.host); err != nil {
				return fmt.Errorf("hello %s -> %s: %w", lo.host, hi.host, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for !hasPeer(hi.tr, lo.host) {
				if time.Now().After(deadline) {
					return fmt.Errorf("%s never registered %s", hi.host, lo.host)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	return nil
}

func hasPeer(tr *prism.TCPTransport, h model.HostID) bool {
	for _, p := range tr.Peers() {
		if p == h {
			return true
		}
	}
	return false
}

// place adds a component to the node and welds it to the bus.
func (n *node) place(c prism.Component) error {
	if err := n.arch.AddComponent(c); err != nil {
		return err
	}
	return n.arch.Weld(c.ID(), busName)
}

// waitAcked waits until the node holds no unacknowledged application
// event, and reports how long that took and whether it happened in time.
func (n *node) waitAcked(limit time.Duration) (time.Duration, bool) {
	t0 := time.Now()
	for n.bus.PendingAppEvents() > 0 {
		if time.Since(t0) > limit {
			return 0, false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(t0), true
}

// close stops the node's goroutines and waits for them.
func (n *node) close() {
	close(n.stop)
	n.wg.Wait()
	if n.dep != nil {
		n.dep.Close()
	}
	if n.admin != nil {
		n.admin.Close()
	}
	if n.adm != nil {
		n.adm.Close()
	}
	n.arch.Shutdown()
	n.tr.Close()
	if n.store != nil {
		n.store.Close()
	}
}

func closeAll(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

// counter reads one of the program's own counters by name and host label
// (0 when the run has no registry).
func counter(reg *obs.Registry, base string, host model.HostID, labels ...string) float64 {
	if reg == nil {
		return 0
	}
	pairs := append(append([]string(nil), labels...), "host", string(host))
	return reg.Counter(obs.Name(base, pairs...)).Value()
}
