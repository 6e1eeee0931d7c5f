package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

func denseTestSystem(t *testing.T, hosts, comps int, seed int64) (*System, Deployment) {
	t.Helper()
	s, d, err := NewGenerator(DefaultGeneratorConfig(hosts, comps), seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func TestDenseMatricesMatchSystem(t *testing.T) {
	s, _ := denseTestSystem(t, 6, 20, 3)
	ds := s.Dense()
	if ds.NH != len(s.Hosts) || len(ds.Hosts) != ds.NH {
		t.Fatalf("NH = %d, hosts = %d", ds.NH, len(s.Hosts))
	}
	for i, a := range ds.Hosts {
		for j, b := range ds.Hosts {
			if got, want := ds.Rel[i*ds.NH+j], s.Reliability(a, b); got != want {
				t.Fatalf("Rel[%s,%s] = %v, want %v", a, b, got, want)
			}
			if got, want := ds.BW[i*ds.NH+j], s.Bandwidth(a, b); got != want {
				t.Fatalf("BW[%s,%s] = %v, want %v", a, b, got, want)
			}
			if got, want := ds.Delay[i*ds.NH+j], s.Delay(a, b); got != want {
				t.Fatalf("Delay[%s,%s] = %v, want %v", a, b, got, want)
			}
		}
	}
	// Edges are every interaction, in InteractionKeys order: the scoring
	// sums and Avala's affinities add in this order, so it must not
	// depend on how the view was built. A non-positive frequency reads 0,
	// with size 0, so its edge adds +0 to every sum.
	keys := s.InteractionKeys()
	s.Interaction(keys[1].A, keys[1].B).Params.Set(ParamFrequency, 0)
	s.Interaction(keys[2].A, keys[2].B).Params.Set(ParamFrequency, -3)
	s.Touch()
	ds = s.Dense()
	if len(keys) != len(ds.Edges) || len(keys) != len(ds.Freq) || len(keys) != len(ds.Size) {
		t.Fatalf("%d dense edges, %d frequencies, %d sizes, %d interactions", len(ds.Edges), len(ds.Freq), len(ds.Size), len(keys))
	}
	total := 0.0
	for i, e := range ds.Edges {
		if ds.Comps[e.A] != keys[i].A || ds.Comps[e.B] != keys[i].B {
			t.Fatalf("edge %d is %s-%s, InteractionKeys has %v", i, ds.Comps[e.A], ds.Comps[e.B], keys[i])
		}
		l := s.Interaction(keys[i].A, keys[i].B)
		wantFreq, wantSize := l.Frequency(), l.EventSize()
		if wantFreq <= 0 {
			wantFreq, wantSize = 0, 0
		}
		if ds.Freq[i] != wantFreq || ds.Size[i] != wantSize {
			t.Fatalf("edge %d: Freq, Size = %v, %v; want %v, %v", i, ds.Freq[i], ds.Size[i], wantFreq, wantSize)
		}
		total += wantFreq
	}
	if total != ds.TotalFreq {
		t.Fatalf("TotalFreq = %v, edges sum to %v", ds.TotalFreq, total)
	}
	if ds.Freq[1] != 0 || ds.Freq[2] != 0 {
		t.Fatalf("zero and negative frequencies read %v and %v", ds.Freq[1], ds.Freq[2])
	}
}

func TestDenseCacheReuseAndInvalidation(t *testing.T) {
	s, _ := denseTestSystem(t, 4, 10, 5)
	d1 := s.Dense()
	if d2 := s.Dense(); d2 != d1 {
		t.Fatal("Dense() rebuilt without any mutation")
	}

	// Mutation through the Modifier invalidates automatically.
	var a, b HostID
	for pair := range s.Links {
		a, b = pair.A, pair.B
		break
	}
	if err := NewModifier(s).SetLinkParam(a, b, ParamReliability, 0.123); err != nil {
		t.Fatal(err)
	}
	d2 := s.Dense()
	if d2 == d1 {
		t.Fatal("Dense() not rebuilt after Modifier.SetLinkParam")
	}
	i, j := d2.HostIndex(a), d2.HostIndex(b)
	if got := d2.Rel[i*d2.NH+j]; got != 0.123 {
		t.Fatalf("rebuilt Rel = %v, want 0.123", got)
	}

	// Direct Params writes bypass the Modifier; Touch must invalidate.
	s.Link(a, b).Params.Set(ParamReliability, 0.456)
	s.Touch()
	d3 := s.Dense()
	if d3 == d2 {
		t.Fatal("Dense() not rebuilt after Touch")
	}
	if got := d3.Rel[i*d3.NH+j]; got != 0.456 {
		t.Fatalf("rebuilt Rel = %v, want 0.456", got)
	}
	// The values are new; the structure is the shape's, shared.
	if &d3.Edges[0] != &d2.Edges[0] || &d3.Adj[0] != &d2.Adj[0] || &d3.Adj[0][0] != &d2.Adj[0][0] {
		t.Fatal("Touch rebuilt the edge or arc structure")
	}
	if &d3.Freq[0] == &d2.Freq[0] || &d3.Size[0] == &d2.Size[0] {
		t.Fatal("Touch left the new view writing the old view's Freq or Size")
	}

	// Structural mutations rebuild too.
	s.AddHost("extra-host", Params{})
	d4 := s.Dense()
	if d4 == d3 || d4.NH != d3.NH+1 {
		t.Fatalf("Dense() after AddHost: NH = %d, want %d", d4.NH, d3.NH+1)
	}
}

func TestDenseAssignRoundTrip(t *testing.T) {
	s, d := denseTestSystem(t, 5, 15, 9)
	ds := s.Dense()
	assign := ds.Assign(d)
	if got := ds.Deployment(assign); !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip = %v, want %v", got, d)
	}

	// An undeployed component maps to -1 and is omitted on the way back.
	partial := d.Clone()
	victim := ds.Comps[0]
	delete(partial, victim)
	assign = ds.Assign(partial)
	if assign[0] != -1 {
		t.Fatalf("assign[0] = %d for undeployed component, want -1", assign[0])
	}
	if got := ds.Deployment(assign); !reflect.DeepEqual(got, partial) {
		t.Fatalf("partial round trip = %v, want %v", got, partial)
	}
}

// denseEqual reports the first field in which got differs from a view
// built from scratch. Sums must agree exactly: they add in edge order.
func denseEqual(got, want *DenseSystem) error {
	switch {
	case !reflect.DeepEqual(got.Hosts, want.Hosts):
		return fmt.Errorf("Hosts = %v, want %v", got.Hosts, want.Hosts)
	case !reflect.DeepEqual(got.Comps, want.Comps):
		return fmt.Errorf("Comps = %v, want %v", got.Comps, want.Comps)
	case got.NH != want.NH:
		return fmt.Errorf("NH = %d, want %d", got.NH, want.NH)
	case !reflect.DeepEqual(got.Rel, want.Rel):
		return fmt.Errorf("Rel differs")
	case !reflect.DeepEqual(got.BW, want.BW):
		return fmt.Errorf("BW differs")
	case !reflect.DeepEqual(got.Delay, want.Delay):
		return fmt.Errorf("Delay differs")
	case !reflect.DeepEqual(got.Edges, want.Edges):
		return fmt.Errorf("Edges differ: %d edges, want %d", len(got.Edges), len(want.Edges))
	case !reflect.DeepEqual(got.Adj, want.Adj):
		return fmt.Errorf("Adj differs")
	case !reflect.DeepEqual(got.Freq, want.Freq):
		return fmt.Errorf("Freq differs")
	case !reflect.DeepEqual(got.Size, want.Size):
		return fmt.Errorf("Size differs")
	case got.TotalFreq != want.TotalFreq:
		return fmt.Errorf("TotalFreq = %v, want %v", got.TotalFreq, want.TotalFreq)
	}
	for i, h := range want.Hosts {
		if got.HostIndex(h) != i {
			return fmt.Errorf("HostIndex(%s) = %d, want %d", h, got.HostIndex(h), i)
		}
	}
	for i, c := range want.Comps {
		if got.CompIndex(c) != i {
			return fmt.Errorf("CompIndex(%s) = %d, want %d", c, got.CompIndex(c), i)
		}
	}
	if got.HostIndex("no-such-host") != -1 || got.CompIndex("no-such-comp") != -1 {
		return fmt.Errorf("unknown IDs have an index")
	}
	return nil
}

// TestDenseMatchesFreshBuild keeps the cached view warm through a seeded
// sequence of value and structure mutations; after each one it must equal
// the view of a clone, which starts cold.
func TestDenseMatchesFreshBuild(t *testing.T) {
	s, _ := denseTestSystem(t, 6, 30, 11)
	rng := rand.New(rand.NewSource(3))
	mod := NewModifier(s)
	pickLink := func() *PhysicalLink { // nil once RemoveHost took every link
		keys := s.LinkKeys()
		if len(keys) == 0 {
			return nil
		}
		return s.Links[keys[rng.Intn(len(keys))]]
	}
	pickInteraction := func() *LogicalLink {
		links := s.Interactions()
		return links[rng.Intn(len(links))]
	}
	pickComps := func() (ComponentID, ComponentID) {
		ids := s.ComponentIDs()
		a := ids[rng.Intn(len(ids))]
		for {
			if b := ids[rng.Intn(len(ids))]; b != a {
				return a, b
			}
		}
	}
	newComps, newHosts := 0, 0
	mutations := []struct {
		name string
		do   func() error
	}{
		{"Modifier.SetLinkParam", func() error {
			pl := pickLink()
			if pl == nil {
				return nil
			}
			return mod.SetLinkParam(pl.Hosts.A, pl.Hosts.B, []string{ParamReliability, ParamBandwidth, ParamDelay}[rng.Intn(3)], rng.Float64())
		}},
		{"Modifier.SetInteractionParam", func() error {
			ll := pickInteraction()
			return mod.SetInteractionParam(ll.Components.A, ll.Components.B, ParamEventSize, rng.Float64())
		}},
		{"Modifier.SetHostParam", func() error {
			ids := s.HostIDs()
			return mod.SetHostParam(ids[rng.Intn(len(ids))], ParamMemory, rng.Float64()*100)
		}},
		{"Params.Set+Touch", func() error {
			if pl := pickLink(); pl != nil {
				pl.Params.Set(ParamReliability, rng.Float64())
			}
			pickInteraction().Params.Set(ParamFrequency, rng.Float64()*10)
			s.Touch()
			return nil
		}},
		{"frequency to 0", func() error {
			pickInteraction().Params.Set(ParamFrequency, 0)
			s.Touch()
			return nil
		}},
		{"frequency from 0", func() error {
			for _, l := range s.Interactions() {
				if l.Frequency() == 0 {
					l.Params.Set(ParamFrequency, 1+rng.Float64())
					break
				}
			}
			s.Touch()
			return nil
		}},
		{"AddInteraction replacing a pair", func() error {
			ll := pickInteraction()
			var p Params
			p.Set(ParamFrequency, rng.Float64()*10)
			p.Set(ParamEventSize, rng.Float64())
			_, err := s.AddInteraction(ll.Components.A, ll.Components.B, p)
			return err
		}},
		{"RemoveInteraction+AddInteraction", func() error {
			ll := pickInteraction()
			a, b := pickComps()
			for s.Interaction(a, b) != nil {
				a, b = pickComps()
			}
			if err := mod.RemoveInteraction(ll.Components.A, ll.Components.B); err != nil {
				return err
			}
			var p Params
			p.Set(ParamFrequency, 1+rng.Float64())
			_, err := s.AddInteraction(a, b, p)
			return err
		}},
		{"AddHost+AddLink", func() error {
			newHosts++
			h := HostID(fmt.Sprintf("new-host-%d", newHosts))
			s.AddHost(h, Params{})
			var p Params
			p.Set(ParamReliability, rng.Float64())
			peer := s.HostIDs()[0]
			if peer == h {
				peer = s.HostIDs()[1]
			}
			_, err := s.AddLink(h, peer, p)
			return err
		}},
		{"RemoveHost", func() error {
			ids := s.HostIDs()
			return mod.RemoveHost(ids[rng.Intn(len(ids))], nil)
		}},
		{"AddComponent+AddInteraction", func() error {
			newComps++
			c := ComponentID(fmt.Sprintf("new-comp-%d", newComps))
			s.AddComponent(c, Params{})
			var p Params
			p.Set(ParamFrequency, 1+rng.Float64())
			peer := s.ComponentIDs()[0]
			if peer == c {
				peer = s.ComponentIDs()[1]
			}
			_, err := s.AddInteraction(c, peer, p)
			return err
		}},
		{"RemoveComponent", func() error {
			ids := s.ComponentIDs()
			return mod.RemoveComponent(ids[rng.Intn(len(ids))], nil)
		}},
		{"SetHostDown", func() error {
			ids := s.HostIDs()
			s.SetHostDown(ids[rng.Intn(len(ids))], rng.Intn(2) == 0)
			return nil
		}},
	}
	if err := denseEqual(s.Dense(), s.Clone().Dense()); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 400; step++ {
		m := mutations[rng.Intn(len(mutations))]
		// Keep enough elements around for every mutation to apply.
		if len(s.Hosts) < 3 && m.name == "RemoveHost" || len(s.Components) < 10 && m.name == "RemoveComponent" {
			continue
		}
		if err := m.do(); err != nil {
			t.Fatalf("step %d, %s: %v", step, m.name, err)
		}
		if err := denseEqual(s.Dense(), s.Clone().Dense()); err != nil {
			t.Fatalf("step %d, after %s: %v", step, m.name, err)
		}
	}
}

// TestDenseConcurrentTouch has several goroutines drop and rebuild the
// values while others read the view, as Stochastic's workers do.
func TestDenseConcurrentTouch(t *testing.T) {
	s, _ := denseTestSystem(t, 5, 25, 2)
	want := s.Clone().Dense()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(touch bool) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if touch {
					s.Touch()
				}
				if err := denseEqual(s.Dense(), want); err != nil {
					t.Error(err)
					return
				}
			}
		}(w%2 == 0)
	}
	wg.Wait()
}

// TestDenseConcurrentReshape has goroutines drop and rebuild the whole
// view, each build stamping the component elements, while others read
// the view, clone the system and walk its interaction slice.
func TestDenseConcurrentReshape(t *testing.T) {
	s, _ := denseTestSystem(t, 5, 25, 4)
	want := s.Clone().Dense()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w {
				case 0:
					s.reshape()
				case 1:
					if err := denseEqual(s.Clone().Dense(), want); err != nil {
						t.Error(err)
						return
					}
					continue
				case 2:
					if err := checkInteractionOrder(s); err != nil {
						t.Error(err)
						return
					}
				}
				if err := denseEqual(s.Dense(), want); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// sortedHostsWhere is the reference for the host lists the shape walks:
// every host in the map that keep admits, sorted.
func sortedHostsWhere(s *System, keep func(HostID, *Host) bool) []HostID {
	var out []HostID
	for id, h := range s.Hosts {
		if keep(id, h) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestDenseHostListsMatchSortedReference holds UpHostIDs, DegradedHostIDs
// and AllowedHosts, which walk the dense shape's sorted hosts and read
// each host live, to a sort over the map after every kind of change: a
// host added, replaced or removed, marked down or up (through
// SetHostDown and by writing the field), degraded, and a component
// pinned, to a known host or to one the system lacks.
func TestDenseHostListsMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := map[string]int{}
	for sys := 0; sys < 30; sys++ {
		s := NewSystem()
		s.Constraints = NewConstraints()
		hostName := func() HostID { return HostID(fmt.Sprintf("h%02d", rng.Intn(30))) }
		for i := 0; i < 6; i++ {
			s.AddHost(hostName(), Params{})
		}
		comps := make([]ComponentID, 8)
		for i := range comps {
			comps[i] = ComponentID(fmt.Sprintf("c%d", i))
			s.AddComponent(comps[i], Params{})
		}
		// Kept apart from itself, comps[0] can go nowhere, but that is
		// Check's verdict: its location is unconstrained, so
		// AllowedHosts lists every up host for it.
		s.Constraints.ForbidCollocation(comps[0], comps[0])
		s.Constraints.Restrict(comps[1], hostName(), hostName())
		compare := func(op string) {
			t.Helper()
			ops[op]++
			up := sortedHostsWhere(s, func(_ HostID, h *Host) bool { return !h.Down })
			if got := s.UpHostIDs(); !slices.Equal(got, up) {
				t.Fatalf("system %d after %s: UpHostIDs %v, reference %v", sys, op, got, up)
			}
			degraded := sortedHostsWhere(s, func(_ HostID, h *Host) bool { return h.Degraded > 0 })
			if got := s.DegradedHostIDs(); !slices.Equal(got, degraded) {
				t.Fatalf("system %d after %s: DegradedHostIDs %v, reference %v", sys, op, got, degraded)
			}
			for _, c := range comps {
				set, constrained := s.Constraints.Location[c]
				want := sortedHostsWhere(s, func(id HostID, h *Host) bool { return !h.Down && (!constrained || set[id]) })
				if got := s.Constraints.AllowedHosts(s, c); !slices.Equal(got, want) {
					t.Fatalf("system %d after %s: AllowedHosts(%s) %v, reference %v", sys, op, c, got, want)
				}
			}
			if got := s.Constraints.AllowedHosts(s, comps[0]); !slices.Equal(got, up) {
				t.Fatalf("system %d after %s: self-excluded %s allowed on %v, want every up host %v", sys, op, comps[0], got, up)
			}
		}
		compare("build")
		for step := 0; step < 40; step++ {
			if step%5 == 0 {
				s.Dense() // cache a shape for the next change to outdate
			}
			hosts := s.HostIDs()
			h := hosts[rng.Intn(len(hosts))]
			switch rng.Intn(8) {
			case 0:
				s.AddHost(hostName(), Params{}) // new, or replacing one
				compare("AddHost")
			case 1:
				if len(hosts) > 1 {
					if err := NewModifier(s).RemoveHost(h, nil); err != nil {
						t.Fatal(err)
					}
					compare("RemoveHost")
				}
			case 2:
				s.SetHostDown(h, true)
				compare("SetHostDown(true)")
			case 3:
				s.SetHostDown(h, false)
				compare("SetHostDown(false)")
			case 4:
				s.Hosts[h].Down = !s.Hosts[h].Down
				compare("Down written")
			case 5:
				s.SetHostDegraded(h, float64(rng.Intn(2))*rng.Float64())
				compare("SetHostDegraded")
			case 6:
				s.Constraints.Pin(comps[1+rng.Intn(len(comps)-1)], h)
				compare("Pin")
			default:
				s.Constraints.Pin(comps[1+rng.Intn(len(comps)-1)], "h99")
				compare("Pin to unknown host")
			}
		}
	}
	for _, op := range []string{"AddHost", "RemoveHost", "SetHostDown(true)", "SetHostDown(false)", "Down written", "SetHostDegraded", "Pin", "Pin to unknown host"} {
		if ops[op] < 20 {
			t.Fatalf("only %d checks after %s: %v", ops[op], op, ops)
		}
	}
}

// hashedShape is the shape build as it was before the system kept its
// interactions in key order, kept as the reference for the edge
// structure: it walks the index map, finds each endpoint's index by
// hashing its ID, and orders the edges by (A, B) index with two stable
// counting passes, by B and then by A.
func hashedShape(s *System) *denseShape {
	sh := &denseShape{hosts: s.HostIDs(), comps: s.ComponentIDs()}
	sh.hostIdx = make(map[HostID]int, len(sh.hosts))
	for i, h := range sh.hosts {
		sh.hostIdx[h] = i
	}
	sh.compIdx = make(map[ComponentID]int, len(sh.comps))
	for i, c := range sh.comps {
		sh.compIdx[c] = i
	}
	for pair, l := range s.Links {
		i, iok := sh.hostIdx[pair.A]
		j, jok := sh.hostIdx[pair.B]
		if iok && jok {
			sh.links = append(sh.links, shapeLink{i, j, l})
		}
	}
	nc := len(sh.comps)
	var as, bs []int32
	var links []*LogicalLink
	for key, l := range s.interacts {
		a, aok := sh.compIdx[key.A]
		b, bok := sh.compIdx[key.B]
		if !aok || !bok {
			continue
		}
		as, bs, links = append(as, int32(a)), append(bs, int32(b)), append(links, l)
	}
	stableOrder := func(in, keys []int32) []int32 {
		next := make([]int32, nc+1)
		for _, k := range keys {
			next[k+1]++
		}
		for k := 0; k < nc; k++ {
			next[k+1] += next[k]
		}
		out := make([]int32, len(keys))
		for i := range out {
			p := int32(i)
			if in != nil {
				p = in[i]
			}
			out[next[keys[p]]] = p
			next[keys[p]]++
		}
		return out
	}
	order := stableOrder(stableOrder(nil, bs), as)
	sh.edges = make([]DenseEdge, len(order))
	sh.inters = make([]*LogicalLink, len(order))
	sh.adj = make([][]DenseArc, nc)
	for e, p := range order {
		a, b := as[p], bs[p]
		sh.edges[e] = DenseEdge{A: a, B: b}
		sh.inters[e] = links[p]
		sh.adj[a] = append(sh.adj[a], DenseArc{Other: b, Edge: int32(e)})
		sh.adj[b] = append(sh.adj[b], DenseArc{Other: a, Edge: int32(e)})
	}
	return sh
}

// TestDenseShapeMatchesHashedBuild holds the dense view's Edges, Adj,
// Freq and Size, built from the key-ordered interaction slice, to the
// hashing reference build, on generated systems and after the mutations
// that insert before the end, remove, replace a component, and delete a
// component from the map directly (its links then have no edge).
func TestDenseShapeMatchesHashedBuild(t *testing.T) {
	compare := func(what string, s *System) {
		t.Helper()
		got, want := s.Dense(), hashedShape(s).values()
		switch {
		case !reflect.DeepEqual(got.Edges, want.Edges):
			t.Fatalf("%s: Edges differ: %d edges, reference %d", what, len(got.Edges), len(want.Edges))
		case !reflect.DeepEqual(got.Adj, want.Adj):
			t.Fatalf("%s: Adj differs", what)
		case !reflect.DeepEqual(got.Freq, want.Freq) || !reflect.DeepEqual(got.Size, want.Size):
			t.Fatalf("%s: Freq or Size differs", what)
		case got.TotalFreq != want.TotalFreq:
			t.Fatalf("%s: TotalFreq %v, reference %v", what, got.TotalFreq, want.TotalFreq)
		}
	}
	for _, size := range [][2]int{{4, 12}, {10, 100}, {20, 400}} {
		for seed := int64(211000); seed < 211003; seed++ {
			s, _, err := NewGenerator(DefaultGeneratorConfig(size[0], size[1]), seed).Generate()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%dx%d/seed%d", size[0], size[1], seed)
			compare(name, s)
			rng := rand.New(rand.NewSource(seed))
			mod := NewModifier(s)
			ids := s.ComponentIDs()
			for i := 0; i < 5; i++ {
				a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if a != b {
					var p Params
					p.Set(ParamFrequency, rng.Float64())
					if _, err := s.AddInteraction(b, a, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			compare(name+" after AddInteraction", s)
			links := s.Interactions()
			l := links[rng.Intn(len(links))]
			if err := mod.RemoveInteraction(l.Components.A, l.Components.B); err != nil {
				t.Fatal(err)
			}
			compare(name+" after RemoveInteraction", s)
			if err := mod.RemoveComponent(ids[len(ids)/2], nil); err != nil {
				t.Fatal(err)
			}
			compare(name+" after RemoveComponent", s)
			s.AddComponent(ids[1], Params{})
			compare(name+" after replacing a component", s)
			delete(s.Components, ids[0])
			compare(name+" after deleting a component from the map", s)
		}
	}
}

// BenchmarkDenseRebuild times the two rebuilds a replan can pay for:
// values only after Touch (a monitor cycle), and shape plus values after
// a structural mutation (a new interaction).
func BenchmarkDenseRebuild(b *testing.B) {
	for _, size := range [][2]int{{20, 400}, {40, 800}} {
		s, _, err := NewGenerator(DefaultGeneratorConfig(size[0], size[1]), 1).Generate()
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("%dx%d", size[0], size[1])
		b.Run("values/"+name, func(b *testing.B) {
			s.Dense()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Touch()
				denseSink = s.Dense()
			}
		})
		b.Run("structure+values/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.reshape()
				denseSink = s.Dense()
			}
		})
	}
}

// BenchmarkDenseFreshShape times the view the first plan of a system
// builds: shape and values, on systems whose elements the previous op
// did not touch. It rotates over freshly generated systems, more of them
// than a core's cache holds, as a sweep that plans each system once does.
func BenchmarkDenseFreshShape(b *testing.B) {
	for _, size := range []struct{ hosts, comps, systems int }{{20, 400, 8}, {40, 800, 3}} {
		systems := make([]*System, size.systems)
		for i := range systems {
			s, _, err := NewGenerator(DefaultGeneratorConfig(size.hosts, size.comps), 211000+int64(i)).Generate()
			if err != nil {
				b.Fatal(err)
			}
			systems[i] = s
		}
		b.Run(fmt.Sprintf("%dx%d", size.hosts, size.comps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := systems[i%len(systems)]
				s.reshape()
				denseSink = s.Dense()
			}
		})
	}
}

var denseSink *DenseSystem
