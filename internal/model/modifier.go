package model

import "fmt"

// Modifier provides fine-grained tuning of a generated deployment
// architecture (DeSi's Modifier component, DSN'04 §4.1): altering a single
// network link's reliability, a single component's required memory, and so
// on. Every mutation validates its target and reports an error rather than
// silently creating elements.
type Modifier struct {
	sys *System
}

// NewModifier returns a modifier bound to the given system model.
func NewModifier(s *System) *Modifier {
	return &Modifier{sys: s}
}

// SetHostParam sets a parameter on a host.
func (m *Modifier) SetHostParam(h HostID, name string, value float64) error {
	host, ok := m.sys.Hosts[h]
	if !ok {
		return fmt.Errorf("unknown host %s", h)
	}
	host.Params.Set(name, value)
	m.sys.Touch()
	return nil
}

// SetComponentParam sets a parameter on a component.
func (m *Modifier) SetComponentParam(c ComponentID, name string, value float64) error {
	comp, ok := m.sys.Components[c]
	if !ok {
		return fmt.Errorf("unknown component %s", c)
	}
	comp.Params.Set(name, value)
	m.sys.Touch()
	return nil
}

// SetLinkParam sets a parameter on the physical link between two hosts.
func (m *Modifier) SetLinkParam(a, b HostID, name string, value float64) error {
	l := m.sys.Link(a, b)
	if l == nil {
		return fmt.Errorf("no physical link between %s and %s", a, b)
	}
	l.Params.Set(name, value)
	m.sys.Touch()
	return nil
}

// SetInteractionParam sets a parameter on the logical link between two
// components.
func (m *Modifier) SetInteractionParam(a, b ComponentID, name string, value float64) error {
	l := m.sys.Interaction(a, b)
	if l == nil {
		return fmt.Errorf("no logical link between %s and %s", a, b)
	}
	l.Params.Set(name, value)
	m.sys.Touch()
	return nil
}

// RemoveLink deletes the physical link between two hosts.
func (m *Modifier) RemoveLink(a, b HostID) error {
	pair := MakeHostPair(a, b)
	if _, ok := m.sys.Links[pair]; !ok {
		return fmt.Errorf("no physical link between %s and %s", a, b)
	}
	delete(m.sys.Links, pair)
	m.sys.reshape()
	return nil
}

// RemoveInteraction deletes the logical link between two components.
func (m *Modifier) RemoveInteraction(a, b ComponentID) error {
	pair := MakeComponentPair(a, b)
	if _, ok := m.sys.Interacts[pair]; !ok {
		return fmt.Errorf("no logical link between %s and %s", a, b)
	}
	delete(m.sys.Interacts, pair)
	m.sys.reshape()
	return nil
}

// RemoveHost deletes a host and its incident physical links. It fails if
// deployment d still places components on the host; pass nil to skip the
// occupancy check.
func (m *Modifier) RemoveHost(h HostID, d Deployment) error {
	if _, ok := m.sys.Hosts[h]; !ok {
		return fmt.Errorf("unknown host %s", h)
	}
	if d != nil {
		if occupants := d.ComponentsOn(h); len(occupants) > 0 {
			return fmt.Errorf("host %s still hosts components %v", h, occupants)
		}
	}
	delete(m.sys.Hosts, h)
	for pair := range m.sys.Links {
		if pair.A == h || pair.B == h {
			delete(m.sys.Links, pair)
		}
	}
	for c, set := range m.sys.Constraints.Location {
		delete(set, h)
		_ = c
	}
	m.sys.reshape()
	return nil
}

// RemoveComponent deletes a component, its logical links, its location
// constraints, and (when d is non-nil) its deployment entry.
func (m *Modifier) RemoveComponent(c ComponentID, d Deployment) error {
	if _, ok := m.sys.Components[c]; !ok {
		return fmt.Errorf("unknown component %s", c)
	}
	delete(m.sys.Components, c)
	for pair := range m.sys.Interacts {
		if pair.A == c || pair.B == c {
			delete(m.sys.Interacts, pair)
		}
	}
	delete(m.sys.Constraints.Location, c)
	filter := func(pairs []ComponentPair) []ComponentPair {
		out := pairs[:0]
		for _, p := range pairs {
			if p.A != c && p.B != c {
				out = append(out, p)
			}
		}
		return out
	}
	m.sys.Constraints.MustCollocate = filter(m.sys.Constraints.MustCollocate)
	m.sys.Constraints.CannotCollocate = filter(m.sys.Constraints.CannotCollocate)
	if d != nil {
		delete(d, c)
	}
	m.sys.reshape()
	return nil
}

// Move relocates a component in deployment d to host h, validating the
// system's constraints on the resulting deployment. On violation the
// deployment is left unchanged and the violation returned.
func (m *Modifier) Move(d Deployment, c ComponentID, h HostID) error {
	if _, ok := m.sys.Components[c]; !ok {
		return fmt.Errorf("unknown component %s", c)
	}
	if _, ok := m.sys.Hosts[h]; !ok {
		return fmt.Errorf("unknown host %s", h)
	}
	prev, had := d[c]
	d[c] = h
	if err := m.sys.Constraints.Check(m.sys, d); err != nil {
		if had {
			d[c] = prev
		} else {
			delete(d, c)
		}
		return err
	}
	return nil
}
