package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Range is a closed numeric interval used by the Generator to draw
// parameter values.
type Range struct {
	Min, Max float64
}

// Draw samples the range uniformly using rng.
func (r Range) Draw(rng *rand.Rand) float64 {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Float64()*(r.Max-r.Min)
}

// Mid returns the midpoint of the range.
func (r Range) Mid() float64 { return (r.Min + r.Max) / 2 }

// GeneratorConfig holds DeSi's Generator inputs (DSN'04 §4.1): the desired
// number of hosts and components and ranges for every system parameter.
type GeneratorConfig struct {
	Hosts      int
	Components int

	// Host parameter ranges.
	HostMemory Range

	// Component parameter ranges.
	ComponentMemory Range

	// Physical link parameter ranges.
	Reliability Range
	Bandwidth   Range
	Delay       Range

	// LinkDensity is the probability that any two distinct hosts share a
	// physical link (1 = full mesh). The generator always keeps the host
	// graph connected.
	LinkDensity float64

	// Logical link parameter ranges.
	Frequency Range
	EventSize Range

	// InteractionDensity is the probability that any two distinct
	// components interact (1 = full mesh). The generator always keeps
	// the component graph connected.
	InteractionDensity float64

	// MemoryHeadroom scales total host memory so a valid deployment is
	// guaranteed to exist: total host memory ≥ Headroom × total component
	// memory. Values < 1 disable the adjustment.
	MemoryHeadroom float64
}

// DefaultGeneratorConfig returns the parameter ranges used throughout the
// paper's example scenarios: modest per-host memory, [0,1] reliability,
// moderately dense topologies.
func DefaultGeneratorConfig(hosts, components int) GeneratorConfig {
	return GeneratorConfig{
		Hosts:              hosts,
		Components:         components,
		HostMemory:         Range{Min: 6 * 1024, Max: 12 * 1024}, // KB
		ComponentMemory:    Range{Min: 256, Max: 1024},           // KB
		Reliability:        Range{Min: 0.3, Max: 1.0},
		Bandwidth:          Range{Min: 30, Max: 3000}, // KB/s
		Delay:              Range{Min: 1, Max: 120},   // ms
		LinkDensity:        0.75,
		Frequency:          Range{Min: 0.1, Max: 10}, // events/s
		EventSize:          Range{Min: 0.5, Max: 64}, // KB
		InteractionDensity: 0.35,
		MemoryHeadroom:     1.5,
	}
}

// Generator creates hypothetical deployment architectures from a
// configuration, mirroring DeSi's Generator component. The same seed
// always yields the same architecture.
type Generator struct {
	cfg GeneratorConfig
	rng *rand.Rand
}

// NewGenerator returns a generator for the given configuration and seed.
func NewGenerator(cfg GeneratorConfig, seed int64) *Generator {
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// HostName returns the canonical generated host ID for index i.
func HostName(i int) HostID { return HostID(fmt.Sprintf("host%02d", i)) }

// ComponentName returns the canonical generated component ID for index i.
func ComponentName(i int) ComponentID { return ComponentID(fmt.Sprintf("comp%03d", i)) }

// Generate builds a system model and a valid initial deployment.
func (g *Generator) Generate() (*System, Deployment, error) {
	cfg := g.cfg
	if cfg.Hosts < 1 {
		return nil, nil, fmt.Errorf("generator needs at least 1 host, got %d", cfg.Hosts)
	}
	if cfg.Components < 1 {
		return nil, nil, fmt.Errorf("generator needs at least 1 component, got %d", cfg.Components)
	}
	s := NewSystem()
	s.Constraints = NewConstraints()

	for i := 0; i < cfg.Hosts; i++ {
		var p Params
		p.Set(ParamMemory, cfg.HostMemory.Draw(g.rng))
		s.AddHost(HostName(i), p)
	}
	for i := 0; i < cfg.Components; i++ {
		var p Params
		p.Set(ParamMemory, cfg.ComponentMemory.Draw(g.rng))
		s.AddComponent(ComponentName(i), p)
	}

	g.ensureHeadroom(s)
	if err := g.linkHosts(s); err != nil {
		return nil, nil, err
	}
	g.linkComponents(s)

	d, err := g.initialDeployment(s)
	if err != nil {
		return nil, nil, err
	}
	return s, d, nil
}

// ensureHeadroom scales host memory up so that a valid deployment exists.
func (g *Generator) ensureHeadroom(s *System) {
	if g.cfg.MemoryHeadroom < 1 {
		return
	}
	// Sum in ID order: a float sum in map order differs in its last bits
	// from run to run, and so would every scaled host memory.
	var totalComp, totalHost float64
	for _, id := range s.ComponentIDs() {
		totalComp += s.Components[id].Memory()
	}
	for _, id := range s.HostIDs() {
		totalHost += s.Hosts[id].Memory()
	}
	want := totalComp * g.cfg.MemoryHeadroom
	if totalHost >= want || totalHost == 0 {
		return
	}
	scale := want / totalHost
	for _, h := range s.Hosts {
		h.Params.Set(ParamMemory, h.Memory()*scale)
	}
}

// linkHosts creates a connected host graph: a random spanning tree plus
// density-sampled extra edges.
func (g *Generator) linkHosts(s *System) error {
	hosts := s.HostIDs()
	perm := g.rng.Perm(len(hosts))
	drawLink := func() Params {
		var p Params
		p.Set(ParamReliability, g.cfg.Reliability.Draw(g.rng))
		p.Set(ParamBandwidth, g.cfg.Bandwidth.Draw(g.rng))
		p.Set(ParamDelay, g.cfg.Delay.Draw(g.rng))
		return p
	}
	// Spanning tree over a random permutation keeps the graph connected.
	for i := 1; i < len(perm); i++ {
		attach := perm[g.rng.Intn(i)]
		if _, err := s.AddLink(hosts[perm[i]], hosts[attach], drawLink()); err != nil {
			return err
		}
	}
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			pair := MakeHostPair(hosts[i], hosts[j])
			if _, exists := s.Links[pair]; exists {
				continue
			}
			if g.rng.Float64() < g.cfg.LinkDensity {
				if _, err := s.AddLink(hosts[i], hosts[j], drawLink()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// linkComponents creates a connected interaction graph analogously, in
// index space (comps is sorted, so index order is ID order). The draws
// come in linkHosts' order: the tree's Intn before its link's two draws,
// and a tree pair is skipped before its Float64 is drawn. Every logical
// link lives in one backing slice in (a, b) order, so the system's
// key-ordered slice and its index are built once, after the last draw:
// the tree's links are ordered among themselves, and the density pass,
// which visits pairs in that order, emits each in its turn.
func (g *Generator) linkComponents(s *System) {
	comps := s.ComponentIDs()
	n := len(comps)
	elems := make([]*Component, n)
	for i, c := range comps {
		elems[i] = s.Components[c]
	}
	perm := g.rng.Perm(n)
	drawLink := func() Params {
		var p Params
		p.Set(ParamFrequency, g.cfg.Frequency.Draw(g.rng))
		p.Set(ParamEventSize, g.cfg.EventSize.Draw(g.rng))
		return p
	}

	type treeLink struct {
		key    int // a*n + b
		params Params
	}
	tree := make([]treeLink, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		a, b := perm[i], perm[g.rng.Intn(i)]
		if b < a {
			a, b = b, a
		}
		tree = append(tree, treeLink{a*n + b, drawLink()})
	}
	slices.SortFunc(tree, func(x, y treeLink) int { return x.key - y.key })

	// A binomial count's standard deviation is at most the square root of
	// its mean, so four of them above the expected count rarely regrow.
	density := min(max(g.cfg.InteractionDensity, 0), 1)
	expected := float64(max(n-1, 0)) + density*float64(n*(n-1)/2)
	links := make([]LogicalLink, 0, int(expected+4*math.Sqrt(expected)))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var p Params
			if len(tree) > 0 && tree[0].key == i*n+j {
				p, tree = tree[0].params, tree[1:]
			} else if g.rng.Float64() < g.cfg.InteractionDensity {
				p = drawLink()
			} else {
				continue
			}
			links = append(links, LogicalLink{
				Components: ComponentPair{A: comps[i], B: comps[j]},
				Params:     p,
				ends:       [2]*Component{elems[i], elems[j]},
			})
		}
	}

	s.interacts = make(map[ComponentPair]*LogicalLink, len(links))
	s.inters = make([]*LogicalLink, len(links))
	for i := range links {
		s.inters[i] = &links[i]
		s.interacts[links[i].Components] = &links[i]
	}
	s.reshape()
}

// initialDeployment assigns components to hosts round-robin in random
// order, backtracking to any host with room when memory would overflow.
// If the random order cannot be packed (tight memory), it falls back to
// first-fit-decreasing, which packs whenever a packing is at all likely.
func (g *Generator) initialDeployment(s *System) (Deployment, error) {
	hosts := s.HostIDs()
	comps := s.ComponentIDs()

	randomOrder := make([]ComponentID, len(comps))
	for i, pi := range g.rng.Perm(len(comps)) {
		randomOrder[i] = comps[pi]
	}
	if d, ok := packOrder(s, hosts, randomOrder); ok {
		if err := s.Constraints.Check(s, d); err != nil {
			return nil, fmt.Errorf("generated deployment invalid: %w", err)
		}
		return d, nil
	}

	decreasing := append([]ComponentID(nil), comps...)
	sort.SliceStable(decreasing, func(i, j int) bool {
		return s.Components[decreasing[i]].Memory() > s.Components[decreasing[j]].Memory()
	})
	d, ok := packOrder(s, hosts, decreasing)
	if !ok {
		return nil, fmt.Errorf("no deployment fits: total component memory exceeds practical capacity")
	}
	if err := s.Constraints.Check(s, d); err != nil {
		return nil, fmt.Errorf("generated deployment invalid: %w", err)
	}
	return d, nil
}

// packOrder places components in the given order, round-robin with
// overflow to any host with room.
func packOrder(s *System, hosts []HostID, order []ComponentID) (Deployment, bool) {
	d := NewDeployment(len(order))
	used := make(map[HostID]float64, len(hosts))
	for i, c := range order {
		need := s.Components[c].Memory()
		placed := false
		for off := 0; off < len(hosts); off++ {
			h := hosts[(i+off)%len(hosts)]
			if used[h]+need <= s.Hosts[h].Memory() {
				d[c] = h
				used[h] += need
				placed = true
				break
			}
		}
		if !placed {
			return nil, false
		}
	}
	return d, true
}
