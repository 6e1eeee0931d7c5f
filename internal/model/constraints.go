package model

import (
	"fmt"
)

// Constraints restrict the space of valid deployment architectures
// (DSN'04 §3.1, "User Input"): memory capacities, location constraints
// (the hosts a component may legally occupy), and collocation constraints
// (components that must — or must not — share a host).
type Constraints struct {
	// Location maps a component to the set of hosts it may be deployed
	// on. A component absent from the map may be deployed anywhere.
	Location map[ComponentID]map[HostID]bool

	// MustCollocate lists component pairs that must share a host.
	MustCollocate []ComponentPair

	// CannotCollocate lists component pairs that must not share a host.
	CannotCollocate []ComponentPair

	// CheckMemory enables the memory-capacity constraint: the total
	// memory of the components on a host must not exceed the host's
	// available memory.
	CheckMemory bool

	// CheckCPU enables the processing-capacity constraint (DSN'04 §1:
	// "the processing requirements of components deployed onto a host do
	// not exceed that host's CPU capacity"), read from the ParamCPU
	// parameter on hosts and components.
	CheckCPU bool
}

// NewConstraints returns an empty constraint set with the memory
// constraint enabled (the paper's default).
func NewConstraints() Constraints {
	return Constraints{
		Location:    make(map[ComponentID]map[HostID]bool),
		CheckMemory: true,
	}
}

// Clone returns a deep copy of the constraint set.
func (cs Constraints) Clone() Constraints {
	out := cs
	out.Location = make(map[ComponentID]map[HostID]bool, len(cs.Location))
	for c, hosts := range cs.Location {
		m := make(map[HostID]bool, len(hosts))
		for h, ok := range hosts {
			m[h] = ok
		}
		out.Location[c] = m
	}
	out.MustCollocate = append([]ComponentPair(nil), cs.MustCollocate...)
	out.CannotCollocate = append([]ComponentPair(nil), cs.CannotCollocate...)
	return out
}

// Restrict adds a location constraint: component c may only be deployed
// on the listed hosts. Calling Restrict again for the same component
// replaces the allowed set.
func (cs *Constraints) Restrict(c ComponentID, hosts ...HostID) {
	if cs.Location == nil {
		cs.Location = make(map[ComponentID]map[HostID]bool)
	}
	set := make(map[HostID]bool, len(hosts))
	for _, h := range hosts {
		set[h] = true
	}
	cs.Location[c] = set
}

// Pin fixes component c to exactly one host. Pinning reduces the Exact
// algorithm's search space from O(k^n) to O(k^(n-m)) for m pinned
// components.
func (cs *Constraints) Pin(c ComponentID, h HostID) {
	cs.Restrict(c, h)
}

// RequireCollocation records that a and b must share a host.
func (cs *Constraints) RequireCollocation(a, b ComponentID) {
	cs.MustCollocate = append(cs.MustCollocate, MakeComponentPair(a, b))
}

// ForbidCollocation records that a and b must not share a host.
func (cs *Constraints) ForbidCollocation(a, b ComponentID) {
	cs.CannotCollocate = append(cs.CannotCollocate, MakeComponentPair(a, b))
}

// AllowedHosts returns the sorted list of hosts component c may occupy in
// system s: the up hosts its location constraint admits (every up host
// when unconstrained).
func (cs Constraints) AllowedHosts(s *System, c ComponentID) []HostID {
	set, constrained := cs.Location[c]
	if !constrained {
		return s.UpHostIDs()
	}
	return s.hostIDsWhere(func(id HostID, h *Host) bool { return !h.Down && set[id] })
}

// Allows reports whether component c may be placed on host h.
func (cs Constraints) Allows(c ComponentID, h HostID) bool {
	set, constrained := cs.Location[c]
	if !constrained {
		return true
	}
	return set[h]
}

// ViolationError describes a constraint violated by a deployment.
type ViolationError struct {
	Kind      string // "memory", "location", "collocate", "separate", "incomplete", "down"
	Component ComponentID
	Other     ComponentID // second component for collocation violations
	Host      HostID
	Detail    string
}

// Error implements the error interface.
func (e *ViolationError) Error() string {
	switch e.Kind {
	case "memory":
		return fmt.Sprintf("memory constraint violated on host %s: %s", e.Host, e.Detail)
	case "cpu":
		return fmt.Sprintf("cpu constraint violated on host %s: %s", e.Host, e.Detail)
	case "location":
		return fmt.Sprintf("location constraint violated: %s may not be on %s", e.Component, e.Host)
	case "collocate":
		return fmt.Sprintf("collocation constraint violated: %s and %s must share a host", e.Component, e.Other)
	case "separate":
		return fmt.Sprintf("collocation constraint violated: %s and %s must not share a host", e.Component, e.Other)
	case "down":
		return fmt.Sprintf("liveness constraint violated: %s may not be placed on dead host %s", e.Component, e.Host)
	default:
		return fmt.Sprintf("constraint violated (%s): %s", e.Kind, e.Detail)
	}
}

// Check validates deployment d against the constraints in the context of
// system s. It returns nil when the deployment is valid, or the first
// violation found (deterministically ordered).
func (cs Constraints) Check(s *System, d Deployment) error {
	if err := d.Validate(s); err != nil {
		return &ViolationError{Kind: "incomplete", Detail: err.Error()}
	}
	// One pass over the deployment totals each host's load and looks for
	// location and liveness violations. Validate made d's components
	// exactly s's, on known hosts.
	hosts := s.HostIDs()
	hostIdx := make(map[HostID]int, len(hosts))
	for i, h := range hosts {
		hostIdx[h] = i
	}
	memory := make([]float64, len(hosts))
	cpu := make([]float64, len(hosts))
	for c, h := range d {
		if cs.misplaced(s, c, h) != nil {
			// Report the first one in sorted component order, for
			// determinism.
			for _, first := range s.ComponentIDs() {
				if err := cs.misplaced(s, first, d[first]); err != nil {
					return err
				}
			}
		}
		p, i := s.Components[c].Params, hostIdx[h]
		if cs.CheckMemory {
			memory[i] += p.Get(ParamMemory)
		}
		if cs.CheckCPU {
			cpu[i] += p.Get(ParamCPU)
		}
	}
	// Capacities: memory on every host before CPU on any.
	if cs.CheckMemory {
		if err := overCapacity(s, hosts, memory, "memory", ParamMemory); err != nil {
			return err
		}
	}
	if cs.CheckCPU {
		if err := overCapacity(s, hosts, cpu, "cpu", ParamCPU); err != nil {
			return err
		}
	}
	// Collocation constraints.
	for _, pair := range cs.MustCollocate {
		if d[pair.A] != d[pair.B] {
			return &ViolationError{Kind: "collocate", Component: pair.A, Other: pair.B}
		}
	}
	for _, pair := range cs.CannotCollocate {
		if d[pair.A] == d[pair.B] {
			return &ViolationError{Kind: "separate", Component: pair.A, Other: pair.B}
		}
	}
	return nil
}

// misplaced reports a location or liveness violation by component c on
// host h.
func (cs Constraints) misplaced(s *System, c ComponentID, h HostID) error {
	if !cs.Allows(c, h) {
		return &ViolationError{Kind: "location", Component: c, Host: h}
	}
	if host, ok := s.Hosts[h]; ok && host.Down {
		return &ViolationError{Kind: "down", Component: c, Host: h}
	}
	return nil
}

// overCapacity returns the first host, in sorted order, whose load
// used[i] exceeds its capacity parameter.
func overCapacity(s *System, hosts []HostID, used []float64, kind, param string) error {
	for i, h := range hosts {
		if capacity := s.Hosts[h].Params.Get(param); used[i] > capacity {
			return &ViolationError{
				Kind: kind,
				Host: h,
				Detail: fmt.Sprintf("required %.1f > available %.1f",
					used[i], capacity),
			}
		}
	}
	return nil
}

// CheckPartial validates the constraints that can be evaluated on a
// partial deployment (used by incremental algorithms while they build a
// solution). Unplaced components are ignored; memory is checked for the
// hosts that appear in d.
func (cs Constraints) CheckPartial(s *System, d Deployment) error {
	for c, h := range d {
		if err := cs.misplaced(s, c, h); err != nil {
			return err
		}
	}
	if cs.CheckMemory {
		used := make(map[HostID]float64, len(s.Hosts))
		for c, h := range d {
			if comp, ok := s.Components[c]; ok {
				used[h] += comp.Memory()
			}
		}
		for h, u := range used {
			host, ok := s.Hosts[h]
			if !ok {
				return &ViolationError{Kind: "incomplete",
					Detail: fmt.Sprintf("unknown host %s", h)}
			}
			if u > host.Memory() {
				return &ViolationError{Kind: "memory", Host: h,
					Detail: fmt.Sprintf("required %.1f > available %.1f", u, host.Memory())}
			}
		}
	}
	if cs.CheckCPU {
		usedC := make(map[HostID]float64, len(s.Hosts))
		for c, h := range d {
			if comp, ok := s.Components[c]; ok {
				usedC[h] += comp.Params.Get(ParamCPU)
			}
		}
		for h, u := range usedC {
			host, ok := s.Hosts[h]
			if !ok {
				return &ViolationError{Kind: "incomplete",
					Detail: fmt.Sprintf("unknown host %s", h)}
			}
			if u > host.Params.Get(ParamCPU) {
				return &ViolationError{Kind: "cpu", Host: h,
					Detail: fmt.Sprintf("required %.1f > available %.1f", u, host.Params.Get(ParamCPU))}
			}
		}
	}
	for _, pair := range cs.MustCollocate {
		ha, aok := d[pair.A]
		hb, bok := d[pair.B]
		if aok && bok && ha != hb {
			return &ViolationError{Kind: "collocate", Component: pair.A, Other: pair.B}
		}
	}
	for _, pair := range cs.CannotCollocate {
		ha, aok := d[pair.A]
		hb, bok := d[pair.B]
		if aok && bok && ha == hb {
			return &ViolationError{Kind: "separate", Component: pair.A, Other: pair.B}
		}
	}
	return nil
}
