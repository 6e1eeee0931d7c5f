package model

import (
	"testing"
)

// testSystem builds a small 3-host, 4-component system used across tests.
//
//	hostA ── hostB ── hostC     (A–B rel 0.9 bw 100 delay 10; B–C rel 0.5 bw 50 delay 20)
//	c1–c2 freq 4 size 2; c2–c3 freq 1 size 8; c3–c4 freq 2 size 1
func testSystem(t *testing.T) *System {
	t.Helper()
	s := NewSystem()
	s.Constraints = NewConstraints()
	var hp Params
	hp.Set(ParamMemory, 100)
	s.AddHost("hostA", hp)
	s.AddHost("hostB", hp)
	s.AddHost("hostC", hp)
	var cp Params
	cp.Set(ParamMemory, 10)
	for _, c := range []ComponentID{"c1", "c2", "c3", "c4"} {
		s.AddComponent(c, cp)
	}
	mustLink := func(a, b HostID, rel, bw, delay float64) {
		t.Helper()
		var p Params
		p.Set(ParamReliability, rel)
		p.Set(ParamBandwidth, bw)
		p.Set(ParamDelay, delay)
		if _, err := s.AddLink(a, b, p); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("hostA", "hostB", 0.9, 100, 10)
	mustLink("hostB", "hostC", 0.5, 50, 20)
	mustInteract := func(a, b ComponentID, freq, size float64) {
		t.Helper()
		var p Params
		p.Set(ParamFrequency, freq)
		p.Set(ParamEventSize, size)
		if _, err := s.AddInteraction(a, b, p); err != nil {
			t.Fatal(err)
		}
	}
	mustInteract("c1", "c2", 4, 2)
	mustInteract("c2", "c3", 1, 8)
	mustInteract("c3", "c4", 2, 1)
	return s
}

func TestMakeHostPairCanonical(t *testing.T) {
	p1 := MakeHostPair("b", "a")
	p2 := MakeHostPair("a", "b")
	if p1 != p2 {
		t.Fatalf("pairs differ: %v vs %v", p1, p2)
	}
	if p1.A != "a" || p1.B != "b" {
		t.Fatalf("pair not sorted: %v", p1)
	}
}

func TestMakeComponentPairCanonical(t *testing.T) {
	p1 := MakeComponentPair("z", "a")
	p2 := MakeComponentPair("a", "z")
	if p1 != p2 || p1.A != "a" {
		t.Fatalf("pairs not canonical: %v vs %v", p1, p2)
	}
}

func TestAddLinkValidation(t *testing.T) {
	s := testSystem(t)
	if _, err := s.AddLink("hostA", "hostA", Params{}); err == nil {
		t.Fatal("self-link accepted")
	}
	if _, err := s.AddLink("hostA", "nosuch", Params{}); err == nil {
		t.Fatal("link to unknown host accepted")
	}
	if _, err := s.AddInteraction("c1", "c1", Params{}); err == nil {
		t.Fatal("self-interaction accepted")
	}
	if _, err := s.AddInteraction("c1", "ghost", Params{}); err == nil {
		t.Fatal("interaction with unknown component accepted")
	}
}

func TestLinkLookupIsUndirected(t *testing.T) {
	s := testSystem(t)
	if s.Link("hostA", "hostB") == nil || s.Link("hostB", "hostA") == nil {
		t.Fatal("link lookup should be direction-independent")
	}
	if s.Link("hostA", "hostC") != nil {
		t.Fatal("nonexistent link returned")
	}
	if s.Link("hostA", "hostA") != nil {
		t.Fatal("self link returned")
	}
	if s.Interaction("c2", "c1") == nil {
		t.Fatal("interaction lookup should be direction-independent")
	}
}

func TestReliabilityAccessor(t *testing.T) {
	s := testSystem(t)
	if got := s.Reliability("hostA", "hostA"); got != 1 {
		t.Fatalf("same-host reliability = %v, want 1", got)
	}
	if got := s.Reliability("hostA", "hostB"); got != 0.9 {
		t.Fatalf("linked reliability = %v, want 0.9", got)
	}
	if got := s.Reliability("hostA", "hostC"); got != 0 {
		t.Fatalf("disconnected reliability = %v, want 0", got)
	}
}

func TestBandwidthAndDelayAccessors(t *testing.T) {
	s := testSystem(t)
	if got := s.Bandwidth("hostA", "hostA"); got != LocalBandwidth {
		t.Fatalf("local bandwidth = %v, want %v", got, float64(LocalBandwidth))
	}
	if got := s.Bandwidth("hostB", "hostC"); got != 50 {
		t.Fatalf("link bandwidth = %v, want 50", got)
	}
	if got := s.Bandwidth("hostA", "hostC"); got != 0 {
		t.Fatalf("disconnected bandwidth = %v, want 0", got)
	}
	if got := s.Delay("hostA", "hostA"); got != 0 {
		t.Fatalf("local delay = %v, want 0", got)
	}
	if got := s.Delay("hostA", "hostB"); got != 10 {
		t.Fatalf("link delay = %v, want 10", got)
	}
}

func TestSortedIDAccessors(t *testing.T) {
	s := testSystem(t)
	hosts := s.HostIDs()
	if len(hosts) != 3 || hosts[0] != "hostA" || hosts[2] != "hostC" {
		t.Fatalf("HostIDs = %v", hosts)
	}
	comps := s.ComponentIDs()
	if len(comps) != 4 || comps[0] != "c1" || comps[3] != "c4" {
		t.Fatalf("ComponentIDs = %v", comps)
	}
	links := s.LinkKeys()
	if len(links) != 2 || links[0].A != "hostA" {
		t.Fatalf("LinkKeys = %v", links)
	}
	inters := s.InteractionKeys()
	if len(inters) != 3 || inters[0].A != "c1" {
		t.Fatalf("InteractionKeys = %v", inters)
	}
}

func TestNeighbors(t *testing.T) {
	s := testSystem(t)
	nb := s.Neighbors("hostB")
	if len(nb) != 2 || nb[0] != "hostA" || nb[1] != "hostC" {
		t.Fatalf("Neighbors(hostB) = %v", nb)
	}
	if got := s.Neighbors("hostA"); len(got) != 1 || got[0] != "hostB" {
		t.Fatalf("Neighbors(hostA) = %v", got)
	}
}

func TestInteractionsOf(t *testing.T) {
	s := testSystem(t)
	links := s.InteractionsOf("c2")
	if len(links) != 2 {
		t.Fatalf("InteractionsOf(c2) returned %d links, want 2", len(links))
	}
	if got := s.InteractionsOf("c4"); len(got) != 1 {
		t.Fatalf("InteractionsOf(c4) returned %d links, want 1", len(got))
	}
}

func TestSystemClone(t *testing.T) {
	s := testSystem(t)
	s.Constraints.Pin("c1", "hostA")
	c := s.Clone()

	// Mutating the clone must not affect the original.
	c.Hosts["hostA"].Params.Set(ParamMemory, 1)
	if s.Hosts["hostA"].Memory() != 100 {
		t.Fatal("clone shares host params with original")
	}
	c.Links[MakeHostPair("hostA", "hostB")].Params.Set(ParamReliability, 0)
	if s.Reliability("hostA", "hostB") != 0.9 {
		t.Fatal("clone shares link params with original")
	}
	c.Constraints.Pin("c2", "hostB")
	if !s.Constraints.Allows("c2", "hostC") {
		t.Fatal("clone shares constraints with original")
	}
	if !c.Constraints.Allows("c1", "hostA") || c.Constraints.Allows("c1", "hostB") {
		t.Fatal("clone lost the original pin constraint")
	}
	if len(c.Components) != 4 || len(c.Interactions()) != 3 {
		t.Fatalf("clone lost elements: %d comps, %d interacts",
			len(c.Components), len(c.Interactions()))
	}
}
