package model

import (
	"fmt"
	"sort"
	"sync"
)

// HostID identifies a hardware host.
type HostID string

// ComponentID identifies a software component.
type ComponentID string

// Host is a hardware host in the deployment architecture.
type Host struct {
	ID     HostID
	Params Params
	// Down marks a host the liveness layer has declared dead: constraint
	// checking rejects placements on it and the estimation algorithms
	// exclude it until it rejoins.
	Down bool
	// Degraded is a soft gray-failure penalty in (0, 1]: the host is
	// alive and keeps its current components, but the planning layer
	// avoids placing *new* components on it while the penalty stands.
	// Zero means healthy. Unlike Down this is advisory — a degraded
	// host remains a legal placement of last resort.
	Degraded float64
}

// Memory returns the host's available memory capacity.
func (h *Host) Memory() float64 { return h.Params.Get(ParamMemory) }

// Component is a software component in the deployment architecture.
type Component struct {
	ID     ComponentID
	Params Params
}

// Memory returns the component's required memory.
func (c *Component) Memory() float64 { return c.Params.Get(ParamMemory) }

// HostPair is a canonical (sorted) unordered pair of host IDs keying a
// physical link.
type HostPair struct {
	A, B HostID
}

// MakeHostPair returns the canonical pair for the two hosts.
func MakeHostPair(a, b HostID) HostPair {
	if b < a {
		a, b = b, a
	}
	return HostPair{A: a, B: b}
}

// ComponentPair is a canonical (sorted) unordered pair of component IDs
// keying a logical link.
type ComponentPair struct {
	A, B ComponentID
}

// MakeComponentPair returns the canonical pair for the two components.
func MakeComponentPair(a, b ComponentID) ComponentPair {
	if b < a {
		a, b = b, a
	}
	return ComponentPair{A: a, B: b}
}

// PhysicalLink models network connectivity between two hosts: reliability,
// bandwidth, transmission delay, and any extension parameters.
type PhysicalLink struct {
	Hosts  HostPair
	Params Params
}

// Reliability returns the link's delivery probability.
func (l *PhysicalLink) Reliability() float64 { return l.Params.Get(ParamReliability) }

// Bandwidth returns the link's bandwidth in KB/s.
func (l *PhysicalLink) Bandwidth() float64 { return l.Params.Get(ParamBandwidth) }

// Delay returns the link's one-way delay in ms.
func (l *PhysicalLink) Delay() float64 { return l.Params.Get(ParamDelay) }

// LogicalLink models an interaction path between two software components:
// frequency of interaction, average event size, and extensions.
type LogicalLink struct {
	Components ComponentPair
	Params     Params
}

// Frequency returns the interaction frequency (events/s).
func (l *LogicalLink) Frequency() float64 { return l.Params.Get(ParamFrequency) }

// EventSize returns the average event size (KB).
func (l *LogicalLink) EventSize() float64 { return l.Params.Get(ParamEventSize) }

// System is the model of a distributed system's deployment architecture:
// hosts, components, physical links, logical links, and the constraints
// that restrict valid deployments.
//
// System is not safe for concurrent mutation; the framework components
// that share a System (monitor, analyzer) coordinate through
// framework-level locking.
type System struct {
	Hosts       map[HostID]*Host
	Components  map[ComponentID]*Component
	Links       map[HostPair]*PhysicalLink
	Interacts   map[ComponentPair]*LogicalLink
	Constraints Constraints

	// Cached dense view (see dense.go): Touch drops dense, reshape drops
	// both parts.
	denseMu sync.Mutex
	shape   *denseShape
	dense   *DenseSystem
}

// NewSystem returns an empty system model.
func NewSystem() *System {
	return &System{
		Hosts:      make(map[HostID]*Host),
		Components: make(map[ComponentID]*Component),
		Links:      make(map[HostPair]*PhysicalLink),
		Interacts:  make(map[ComponentPair]*LogicalLink),
	}
}

// AddHost adds a host with the given parameters, replacing any existing
// host with the same ID.
func (s *System) AddHost(id HostID, params Params) *Host {
	h := &Host{ID: id, Params: params.Clone()}
	s.Hosts[id] = h
	s.reshape()
	return h
}

// AddComponent adds a component with the given parameters, replacing any
// existing component with the same ID.
func (s *System) AddComponent(id ComponentID, params Params) *Component {
	c := &Component{ID: id, Params: params.Clone()}
	s.Components[id] = c
	s.reshape()
	return c
}

// AddLink adds (or replaces) a physical link between two hosts.
func (s *System) AddLink(a, b HostID, params Params) (*PhysicalLink, error) {
	if a == b {
		return nil, fmt.Errorf("physical link endpoints must differ: %s", a)
	}
	if _, ok := s.Hosts[a]; !ok {
		return nil, fmt.Errorf("physical link references unknown host %s", a)
	}
	if _, ok := s.Hosts[b]; !ok {
		return nil, fmt.Errorf("physical link references unknown host %s", b)
	}
	pair := MakeHostPair(a, b)
	l := &PhysicalLink{Hosts: pair, Params: params.Clone()}
	s.Links[pair] = l
	s.reshape()
	return l, nil
}

// AddInteraction adds (or replaces) a logical link between two components.
func (s *System) AddInteraction(a, b ComponentID, params Params) (*LogicalLink, error) {
	if a == b {
		return nil, fmt.Errorf("logical link endpoints must differ: %s", a)
	}
	if _, ok := s.Components[a]; !ok {
		return nil, fmt.Errorf("logical link references unknown component %s", a)
	}
	if _, ok := s.Components[b]; !ok {
		return nil, fmt.Errorf("logical link references unknown component %s", b)
	}
	pair := MakeComponentPair(a, b)
	l := &LogicalLink{Components: pair, Params: params.Clone()}
	s.Interacts[pair] = l
	s.reshape()
	return l, nil
}

// Link returns the physical link between two hosts, or nil if the hosts
// are not directly connected (or are the same host).
func (s *System) Link(a, b HostID) *PhysicalLink {
	if a == b {
		return nil
	}
	return s.Links[MakeHostPair(a, b)]
}

// Interaction returns the logical link between two components, or nil.
func (s *System) Interaction(a, b ComponentID) *LogicalLink {
	if a == b {
		return nil
	}
	return s.Interacts[MakeComponentPair(a, b)]
}

// Reliability returns the delivery probability between two hosts: 1 for
// the same host, the link's reliability if directly connected, 0 otherwise.
func (s *System) Reliability(a, b HostID) float64 {
	if a == b {
		return 1
	}
	if l := s.Link(a, b); l != nil {
		return l.Reliability()
	}
	return 0
}

// Bandwidth returns the bandwidth between two hosts in KB/s; same-host
// interactions report +Inf-free "local" bandwidth via LocalBandwidth.
func (s *System) Bandwidth(a, b HostID) float64 {
	if a == b {
		return LocalBandwidth
	}
	if l := s.Link(a, b); l != nil {
		return l.Bandwidth()
	}
	return 0
}

// Delay returns the one-way delay between two hosts in ms (0 for local).
func (s *System) Delay(a, b HostID) float64 {
	if a == b {
		return 0
	}
	if l := s.Link(a, b); l != nil {
		return l.Delay()
	}
	return 0
}

// LocalBandwidth is the effective bandwidth (KB/s) charged for same-host
// interactions when computing latency: large but finite so that latency
// integrals stay well-defined.
const LocalBandwidth = 1 << 20

// SetHostDown marks a host dead (or resurrects it) and reports whether
// the state changed. Changes invalidate the dense cache.
func (s *System) SetHostDown(id HostID, down bool) bool {
	h, ok := s.Hosts[id]
	if !ok || h.Down == down {
		return false
	}
	h.Down = down
	s.Touch()
	return true
}

// HostDown reports whether a host is currently marked dead.
func (s *System) HostDown(id HostID) bool {
	h, ok := s.Hosts[id]
	return ok && h.Down
}

// SetHostDegraded sets (or clears, with penalty <= 0) a host's soft
// gray-failure penalty and reports whether the value changed. Changes
// invalidate the dense cache.
func (s *System) SetHostDegraded(id HostID, penalty float64) bool {
	h, ok := s.Hosts[id]
	if !ok {
		return false
	}
	if penalty < 0 {
		penalty = 0
	} else if penalty > 1 {
		penalty = 1
	}
	if h.Degraded == penalty {
		return false
	}
	h.Degraded = penalty
	s.Touch()
	return true
}

// HostDegraded returns a host's current soft degradation penalty
// (0 for a healthy or unknown host).
func (s *System) HostDegraded(id HostID) float64 {
	h, ok := s.Hosts[id]
	if !ok {
		return 0
	}
	return h.Degraded
}

// DegradedHostIDs returns the IDs of hosts carrying a degradation
// penalty, in sorted order.
func (s *System) DegradedHostIDs() []HostID {
	return s.hostIDsWhere(func(_ HostID, h *Host) bool { return h.Degraded > 0 })
}

// UpHostIDs returns the IDs of hosts not marked down, in sorted order.
func (s *System) UpHostIDs() []HostID {
	return s.hostIDsWhere(func(_ HostID, h *Host) bool { return !h.Down })
}

// HostIDs returns all host IDs in sorted order (deterministic iteration).
func (s *System) HostIDs() []HostID {
	ids := make([]HostID, 0, len(s.Hosts))
	for id := range s.Hosts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ComponentIDs returns all component IDs in sorted order.
func (s *System) ComponentIDs() []ComponentID {
	ids := make([]ComponentID, 0, len(s.Components))
	for id := range s.Components {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// LinkKeys returns all physical link pairs in sorted order.
func (s *System) LinkKeys() []HostPair {
	keys := make([]HostPair, 0, len(s.Links))
	for k := range s.Links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	return keys
}

// InteractionKeys returns all logical link pairs in sorted order.
func (s *System) InteractionKeys() []ComponentPair {
	keys := make([]ComponentPair, 0, len(s.Interacts))
	for k := range s.Interacts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	return keys
}

// Neighbors returns the hosts directly connected to h, in sorted order.
func (s *System) Neighbors(h HostID) []HostID {
	var out []HostID
	for pair := range s.Links {
		switch h {
		case pair.A:
			out = append(out, pair.B)
		case pair.B:
			out = append(out, pair.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InteractionsOf returns the logical links incident to component c.
func (s *System) InteractionsOf(c ComponentID) []*LogicalLink {
	var out []*LogicalLink
	for pair, l := range s.Interacts {
		if pair.A == c || pair.B == c {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Components, out[j].Components
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return out
}

// Clone returns a deep copy of the system model.
func (s *System) Clone() *System {
	out := NewSystem()
	for id, h := range s.Hosts {
		out.Hosts[id] = &Host{ID: h.ID, Params: h.Params.Clone(), Down: h.Down, Degraded: h.Degraded}
	}
	for id, c := range s.Components {
		out.Components[id] = &Component{ID: c.ID, Params: c.Params.Clone()}
	}
	for k, l := range s.Links {
		out.Links[k] = &PhysicalLink{Hosts: l.Hosts, Params: l.Params.Clone()}
	}
	for k, l := range s.Interacts {
		out.Interacts[k] = &LogicalLink{Components: l.Components, Params: l.Params.Clone()}
	}
	out.Constraints = s.Constraints.Clone()
	return out
}
