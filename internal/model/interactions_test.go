package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkInteractionOrder holds the key-ordered slice to the index it is
// kept beside: strictly increasing keys, the index's links in a sorted
// walk of its keys, each link holding its components' live elements, and
// the readers built on the slice.
func checkInteractionOrder(s *System) error {
	links := s.Interactions()
	for i := 1; i < len(links); i++ {
		if cmpPair(links[i-1].Components, links[i].Components) >= 0 {
			return fmt.Errorf("links %d and %d out of order: %v, %v", i-1, i, links[i-1].Components, links[i].Components)
		}
	}
	keys := make([]ComponentPair, 0, len(s.interacts))
	for k := range s.interacts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpPair)
	if len(keys) != len(links) {
		return fmt.Errorf("index has %d links, slice %d", len(keys), len(links))
	}
	for i, k := range keys {
		l := links[i]
		if l != s.interacts[k] || l.Components != k {
			return fmt.Errorf("slice[%d] is %v, index's %d-th key %v", i, l.Components, i, k)
		}
		if l.ends[0] != s.Components[k.A] || l.ends[1] != s.Components[k.B] || l.ends[0] == nil || l.ends[1] == nil {
			return fmt.Errorf("link %v does not hold its live component elements", k)
		}
	}
	if got := s.InteractionKeys(); !slices.Equal(got, keys) {
		return fmt.Errorf("InteractionKeys %v, want %v", got, keys)
	}
	for _, c := range s.ComponentIDs() {
		var want []*LogicalLink
		for _, k := range keys {
			if k.A == c || k.B == c {
				want = append(want, s.interacts[k])
			}
		}
		if got := s.InteractionsOf(c); !slices.Equal(got, want) {
			return fmt.Errorf("InteractionsOf(%s) has %d links, want %d", c, len(got), len(want))
		}
	}
	return nil
}

// TestInteractionsKeyOrder runs random sequences of every mutation that
// adds, replaces or removes interactions or their components, and of the
// builders that make a system anew (Clone, a WriteXADL/ReadXADL round
// trip); after each one Interactions() must be in strict key order and
// match the index. A slice handed out before a mutation must read the
// same after it: an insert before the end and a removal make a new one.
func TestInteractionsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ops := map[string]int{}
	for sys := 0; sys < 20; sys++ {
		s := NewSystem()
		s.Constraints = NewConstraints()
		s.AddHost("h", Params{})
		compName := func() ComponentID { return ComponentID(fmt.Sprintf("c%02d", rng.Intn(24))) }
		for i := 0; i < 12; i++ {
			s.AddComponent(compName(), Params{})
		}
		pickPair := func() (ComponentID, ComponentID) {
			ids := s.ComponentIDs()
			a := ids[rng.Intn(len(ids))]
			for {
				if b := ids[rng.Intn(len(ids))]; b != a {
					return a, b
				}
			}
		}
		for step := 0; step < 120; step++ {
			if step%7 == 0 {
				s.Dense() // a shape holding the slice the next mutation replaces
			}
			before := s.Interactions()
			held := slices.Clone(before)
			var op string
			switch k := rng.Intn(10); {
			case k < 4:
				op = "AddInteraction"
				a, b := pickPair()
				var p Params
				p.Set(ParamFrequency, rng.Float64())
				if _, err := s.AddInteraction(a, b, p); err != nil {
					t.Fatal(err)
				}
			case k == 4:
				op = "AddComponent"
				var p Params
				p.Set(ParamMemory, rng.Float64())
				s.AddComponent(compName(), p) // new, or replacing one
			case k == 5:
				links := s.Interactions()
				if len(links) == 0 {
					continue
				}
				op = "RemoveInteraction"
				l := links[rng.Intn(len(links))]
				if err := NewModifier(s).RemoveInteraction(l.Components.B, l.Components.A); err != nil {
					t.Fatal(err)
				}
			case k == 6:
				if len(s.Components) < 4 {
					continue
				}
				op = "RemoveComponent"
				ids := s.ComponentIDs()
				if err := NewModifier(s).RemoveComponent(ids[rng.Intn(len(ids))], nil); err != nil {
					t.Fatal(err)
				}
			case k == 7:
				op = "Clone"
				s = s.Clone()
				before, held = s.Interactions(), slices.Clone(s.Interactions())
			case k == 8:
				op = "ReadXADL"
				var buf bytes.Buffer
				if err := WriteXADL(&buf, s, nil); err != nil {
					t.Fatal(err)
				}
				s2, _, err := ReadXADL(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(s2.InteractionKeys(), s.InteractionKeys()) {
					t.Fatalf("system %d step %d: round trip changed the keys", sys, step)
				}
				s = s2
				before, held = s.Interactions(), slices.Clone(s.Interactions())
			default:
				op = "Dense"
				if got, want := len(s.Dense().Edges), len(s.Interactions()); got != want {
					t.Fatalf("system %d step %d: %d dense edges, %d interactions", sys, step, got, want)
				}
			}
			ops[op]++
			if err := checkInteractionOrder(s); err != nil {
				t.Fatalf("system %d step %d, after %s: %v", sys, step, op, err)
			}
			if !slices.Equal(before, held) {
				t.Fatalf("system %d step %d: %s wrote the slice handed out before it", sys, step, op)
			}
		}
	}
	for _, op := range []string{"AddInteraction", "AddComponent", "RemoveInteraction", "RemoveComponent", "Clone", "ReadXADL", "Dense"} {
		if ops[op] < 20 {
			t.Fatalf("only %d checks after %s: %v", ops[op], op, ops)
		}
	}
	for _, size := range [][2]int{{3, 12}, {10, 100}, {20, 400}} {
		s, _, err := NewGenerator(DefaultGeneratorConfig(size[0], size[1]), int64(size[1])).Generate()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkInteractionOrder(s); err != nil {
			t.Fatalf("generated %dx%d: %v", size[0], size[1], err)
		}
	}
}

// TestAddComponentKeepsElement replaces a component that has links: the
// element stays the one the links hold and takes the new parameters,
// and the dense view keeps its edges.
func TestAddComponentKeepsElement(t *testing.T) {
	s := testSystem(t)
	old := s.Components["c2"]
	edges := len(s.Dense().Edges)
	var p Params
	p.Set(ParamMemory, 77)
	if got := s.AddComponent("c2", p); got != old || s.Components["c2"] != old {
		t.Fatal("AddComponent on an existing ID replaced its element")
	}
	if old.Memory() != 77 {
		t.Fatalf("memory %v after replacing, want 77", old.Memory())
	}
	for _, l := range s.InteractionsOf("c2") {
		end := l.ends[0]
		if l.Components.B == "c2" {
			end = l.ends[1]
		}
		if end != old {
			t.Fatalf("link %v does not hold the live element", l.Components)
		}
	}
	if got := len(s.Dense().Edges); got != edges {
		t.Fatalf("%d dense edges after replacing c2, want %d", got, edges)
	}
	if err := checkInteractionOrder(s); err != nil {
		t.Fatal(err)
	}
}
