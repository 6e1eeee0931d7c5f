package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratorProducesValidDeployment(t *testing.T) {
	cfg := DefaultGeneratorConfig(5, 20)
	s, d, err := NewGenerator(cfg, 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Hosts) != 5 || len(s.Components) != 20 {
		t.Fatalf("generated %d hosts, %d components", len(s.Hosts), len(s.Components))
	}
	if err := s.Constraints.Check(s, d); err != nil {
		t.Fatalf("generated deployment invalid: %v", err)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig(4, 12)
	s1, d1, err := NewGenerator(cfg, 42).Generate()
	if err != nil {
		t.Fatal(err)
	}
	s2, d2, err := NewGenerator(cfg, 42).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Fatal("same seed produced different deployments")
	}
	for pair, l1 := range s1.Links {
		l2, ok := s2.Links[pair]
		if !ok || !l1.Params.Equal(l2.Params) {
			t.Fatalf("same seed produced different link %v", pair)
		}
	}
	// Different seeds should (overwhelmingly) differ somewhere.
	s3, _, err := NewGenerator(cfg, 43).Generate()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for pair, l1 := range s1.Links {
		l3, ok := s3.Links[pair]
		if !ok || !l1.Params.Equal(l3.Params) {
			same = false
			break
		}
	}
	if same && len(s1.Links) == len(s3.Links) {
		t.Fatal("different seeds produced identical link structure")
	}
}

func TestGeneratorHostGraphConnected(t *testing.T) {
	cfg := DefaultGeneratorConfig(10, 10)
	cfg.LinkDensity = 0 // only the spanning tree
	s, _, err := NewGenerator(cfg, 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Links) != 9 {
		t.Fatalf("spanning tree over 10 hosts has %d links, want 9", len(s.Links))
	}
	assertHostsConnected(t, s)
}

func TestGeneratorInteractionGraphConnected(t *testing.T) {
	cfg := DefaultGeneratorConfig(3, 15)
	cfg.InteractionDensity = 0
	s, _, err := NewGenerator(cfg, 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Interactions()) != 14 {
		t.Fatalf("spanning tree over 15 components has %d links, want 14", len(s.Interactions()))
	}
}

func assertHostsConnected(t *testing.T, s *System) {
	t.Helper()
	hosts := s.HostIDs()
	if len(hosts) == 0 {
		return
	}
	seen := map[HostID]bool{hosts[0]: true}
	queue := []HostID{hosts[0]}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, nb := range s.Neighbors(h) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) != len(hosts) {
		t.Fatalf("host graph disconnected: reached %d of %d", len(seen), len(hosts))
	}
}

func TestGeneratorParameterRanges(t *testing.T) {
	cfg := DefaultGeneratorConfig(6, 25)
	s, _, err := NewGenerator(cfg, 3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range s.Links {
		r := l.Reliability()
		if r < cfg.Reliability.Min || r > cfg.Reliability.Max {
			t.Fatalf("reliability %v outside range %+v", r, cfg.Reliability)
		}
		bw := l.Bandwidth()
		if bw < cfg.Bandwidth.Min || bw > cfg.Bandwidth.Max {
			t.Fatalf("bandwidth %v outside range %+v", bw, cfg.Bandwidth)
		}
	}
	for _, c := range s.Components {
		m := c.Memory()
		if m < cfg.ComponentMemory.Min || m > cfg.ComponentMemory.Max {
			t.Fatalf("component memory %v outside range %+v", m, cfg.ComponentMemory)
		}
	}
}

func TestGeneratorHeadroomGuaranteesFit(t *testing.T) {
	// Deliberately undersized hosts: headroom scaling must rescue them.
	cfg := DefaultGeneratorConfig(3, 30)
	cfg.HostMemory = Range{Min: 10, Max: 20} // far below 30 components' needs
	cfg.MemoryHeadroom = 1.3
	s, d, err := NewGenerator(cfg, 9).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Constraints.Check(s, d); err != nil {
		t.Fatalf("deployment invalid despite headroom: %v", err)
	}
}

func TestGeneratorRejectsBadCounts(t *testing.T) {
	if _, _, err := NewGenerator(DefaultGeneratorConfig(0, 5), 1).Generate(); err == nil {
		t.Fatal("0 hosts accepted")
	}
	if _, _, err := NewGenerator(DefaultGeneratorConfig(3, 0), 1).Generate(); err == nil {
		t.Fatal("0 components accepted")
	}
}

func TestGeneratorSingleHost(t *testing.T) {
	s, d, err := NewGenerator(DefaultGeneratorConfig(1, 8), 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Links) != 0 {
		t.Fatalf("single host produced %d links", len(s.Links))
	}
	for c, h := range d {
		if h != HostName(0) {
			t.Fatalf("component %s on %s, want %s", c, h, HostName(0))
		}
	}
}

func TestRangeDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Range{Min: 5, Max: 10}
	for i := 0; i < 100; i++ {
		v := r.Draw(rng)
		if v < 5 || v > 10 {
			t.Fatalf("Draw = %v outside [5,10]", v)
		}
	}
	// Degenerate range returns Min.
	if got := (Range{Min: 3, Max: 3}).Draw(rng); got != 3 {
		t.Fatalf("degenerate Draw = %v, want 3", got)
	}
	if got := (Range{Min: 3, Max: 1}).Draw(rng); got != 3 {
		t.Fatalf("inverted Draw = %v, want 3", got)
	}
	if got := (Range{Min: 2, Max: 8}).Mid(); got != 5 {
		t.Fatalf("Mid = %v, want 5", got)
	}
}

// Property: any generated architecture admits its own initial deployment.
func TestGeneratorAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, hosts, comps uint8) bool {
		h := int(hosts%8) + 1
		c := int(comps%30) + 1
		s, d, err := NewGenerator(DefaultGeneratorConfig(h, c), seed).Generate()
		if err != nil {
			return false
		}
		return s.Constraints.Check(s, d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
