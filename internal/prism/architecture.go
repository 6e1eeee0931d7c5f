package prism

import (
	"fmt"
	"sort"
	"sync"

	"dif/internal/model"
	"dif/internal/obs"
)

// Architecture records the configuration of a host's components and
// connectors and provides facilities for their addition, removal, and
// reconnection, possibly at system run time (Prism-MW's Architecture
// class). A distributed application is a set of interacting Architecture
// objects communicating via distribution connectors.
type Architecture struct {
	host     model.HostID
	scaffold *Scaffold

	mu         sync.RWMutex
	components map[string]Component
	connectors map[string]*Connector
	dists      map[string]*DistributionConnector
	// welds maps component ID → set of connector names it is welded to.
	welds map[string]map[string]bool

	// obsReg and tracer are the host's observability instruments; nil
	// until SetObservability wires them (every consumer is nil-safe).
	obsReg *obs.Registry
	tracer *obs.Tracer
}

// NewArchitecture returns an empty architecture for the given host.
func NewArchitecture(host model.HostID, scaffold *Scaffold) *Architecture {
	if scaffold == nil {
		scaffold = NewScaffold()
	}
	return &Architecture{
		host:       host,
		scaffold:   scaffold,
		components: make(map[string]Component),
		connectors: make(map[string]*Connector),
		dists:      make(map[string]*DistributionConnector),
		welds:      make(map[string]map[string]bool),
	}
}

// Host returns the host this architecture runs on.
func (a *Architecture) Host() model.HostID { return a.host }

// Scaffold returns the architecture's event dispatcher.
func (a *Architecture) Scaffold() *Scaffold { return a.scaffold }

// SetObservability wires a metrics registry and tracer into the
// architecture. Existing and future distribution connectors pick up the
// registry; control senders and the deployer read both lazily. Either
// argument may be nil (instrumentation no-ops).
func (a *Architecture) SetObservability(reg *obs.Registry, tracer *obs.Tracer) {
	a.mu.Lock()
	a.obsReg = reg
	a.tracer = tracer
	dists := make([]*DistributionConnector, 0, len(a.dists))
	for _, dc := range a.dists {
		dists = append(dists, dc)
	}
	a.mu.Unlock()
	for _, dc := range dists {
		dc.instrument(reg, a.host)
	}
}

// Obs returns the architecture's metrics registry (nil when unwired).
func (a *Architecture) Obs() *obs.Registry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.obsReg
}

// Tracer returns the architecture's tracer (nil when unwired).
func (a *Architecture) Tracer() *obs.Tracer {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.tracer
}

// AddConnector creates and registers a plain connector.
func (a *Architecture) AddConnector(name string) (*Connector, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.connectors[name]; ok {
		return nil, fmt.Errorf("prism: connector %q already exists", name)
	}
	c := NewConnector(name, a.scaffold)
	c.host = a.host
	a.connectors[name] = c
	return c, nil
}

// AddDistributionConnector creates and registers a distribution connector
// bound to the transport.
func (a *Architecture) AddDistributionConnector(name string, transport Transport) (*DistributionConnector, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.connectors[name]; ok {
		return nil, fmt.Errorf("prism: connector %q already exists", name)
	}
	dc := newDistributionConnector(name, a.host, a.scaffold, transport)
	a.connectors[name] = dc.Connector
	a.dists[name] = dc
	if a.obsReg != nil {
		dc.instrument(a.obsReg, a.host)
	}
	// The receive path opens last: a peer that is already sending (a
	// restarted process's agents never stopped) must not race the wiring.
	transport.SetReceiver(dc.onFrame)
	return dc, nil
}

// Connector returns the named connector, or nil.
func (a *Architecture) Connector(name string) *Connector {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.connectors[name]
}

// DistributionConnector returns the named distribution connector, or nil.
func (a *Architecture) DistributionConnector(name string) *DistributionConnector {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.dists[name]
}

// AddComponent registers a component without welding it to any connector.
func (a *Architecture) AddComponent(c Component) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.components[c.ID()]; ok {
		return fmt.Errorf("prism: component %q already exists", c.ID())
	}
	a.components[c.ID()] = c
	a.welds[c.ID()] = make(map[string]bool)
	a.rebind(c)
	return nil
}

// Weld attaches a component to a connector; events the component emits
// flow into every connector it is welded to.
func (a *Architecture) Weld(componentID, connectorName string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	comp, ok := a.components[componentID]
	if !ok {
		return fmt.Errorf("prism: unknown component %q", componentID)
	}
	conn, ok := a.connectors[connectorName]
	if !ok {
		return fmt.Errorf("prism: unknown connector %q", connectorName)
	}
	conn.attach(comp)
	a.welds[componentID][connectorName] = true
	a.rebind(comp)
	return nil
}

// Unweld detaches a component from a connector.
func (a *Architecture) Unweld(componentID, connectorName string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	comp, ok := a.components[componentID]
	if !ok {
		return fmt.Errorf("prism: unknown component %q", componentID)
	}
	conn, ok := a.connectors[connectorName]
	if !ok {
		return fmt.Errorf("prism: unknown connector %q", connectorName)
	}
	conn.detach(componentID)
	delete(a.welds[componentID], connectorName)
	a.rebind(comp)
	return nil
}

// rebind rewires the component's emitter to reflect its current welds.
// Callers must hold a.mu.
func (a *Architecture) rebind(comp Component) {
	names := a.welds[comp.ID()]
	if len(names) == 0 {
		comp.Bind(nil)
		return
	}
	conns := make([]*Connector, 0, len(names))
	for name := range names {
		if c, ok := a.connectors[name]; ok {
			conns = append(conns, c)
		}
	}
	comp.Bind(func(e Event) {
		for _, c := range conns {
			c.Route(e)
		}
	})
}

// RemoveComponent detaches the component from every connector and
// removes it from the architecture, returning it (for migration). The
// component's emitter is unbound.
func (a *Architecture) RemoveComponent(id string) (Component, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	comp, ok := a.components[id]
	if !ok {
		return nil, fmt.Errorf("prism: unknown component %q", id)
	}
	for name := range a.welds[id] {
		if conn, ok := a.connectors[name]; ok {
			conn.detach(id)
		}
	}
	delete(a.welds, id)
	delete(a.components, id)
	comp.Bind(nil)
	return comp, nil
}

// Component returns the named component, or nil.
func (a *Architecture) Component(id string) Component {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.components[id]
}

// ComponentIDs returns the IDs of all registered components, sorted.
func (a *Architecture) ComponentIDs() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.components))
	for id := range a.components {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ConnectorNames returns the names of all connectors, sorted.
func (a *Architecture) ConnectorNames() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.connectors))
	for name := range a.connectors {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WeldsOf returns the connector names a component is welded to, sorted.
func (a *Architecture) WeldsOf(componentID string) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []string
	for name := range a.welds[componentID] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Shutdown stops the scaffold after draining in-flight events.
func (a *Architecture) Shutdown() {
	a.scaffold.Drain()
	a.scaffold.Stop()
}
