package objective

import (
	"math"
	"testing"

	"dif/internal/model"
)

func TestThroughputCollocatedIsPerfect(t *testing.T) {
	s := buildSystem(t)
	d := model.Deployment{"c1": "hostA", "c2": "hostA", "c3": "hostA"}
	if got := (Throughput{}).Quantify(s, d); got != 1 {
		t.Fatalf("collocated throughput = %v, want 1", got)
	}
}

func TestThroughputWithinBandwidth(t *testing.T) {
	s := buildSystem(t)
	// c1–c2: 3/s × 10KB = 30KB/s over the 100KB/s hostA–hostB link; fits.
	d := model.Deployment{"c1": "hostA", "c2": "hostB", "c3": "hostB"}
	if got := (Throughput{}).Quantify(s, d); got != 1 {
		t.Fatalf("underloaded throughput = %v, want 1", got)
	}
}

func TestThroughputOverloadedLinkThrottles(t *testing.T) {
	s := buildSystem(t)
	link := s.Link("hostA", "hostB")
	link.Params.Set(model.ParamBandwidth, 10) // 10KB/s vs 30KB/s demand
	d := model.Deployment{"c1": "hostA", "c2": "hostB", "c3": "hostB"}
	// Demand: c1-c2 = 30 remote, c2-c3 = 20 local. Delivered: 10 + 20.
	want := (10.0 + 20.0) / 50.0
	if got := (Throughput{}).Quantify(s, d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("throttled throughput = %v, want %v", got, want)
	}
}

func TestThroughputDisconnectedDeliversNothing(t *testing.T) {
	s := buildSystem(t)
	d := model.Deployment{"c1": "hostC", "c2": "hostA", "c3": "hostA"}
	// c1–c2 (30) lost; c2–c3 (20) local.
	want := 20.0 / 50.0
	if got := (Throughput{}).Quantify(s, d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("partitioned throughput = %v, want %v", got, want)
	}
}

func TestThroughputSharedLinkContention(t *testing.T) {
	// Two interactions over the same link: their combined demand counts
	// against one bandwidth budget.
	s := model.NewSystem()
	s.AddHost("h1", model.Params{})
	s.AddHost("h2", model.Params{})
	for _, c := range []model.ComponentID{"a", "b", "x", "y"} {
		s.AddComponent(c, model.Params{})
	}
	var lp model.Params
	lp.Set(model.ParamBandwidth, 25)
	lp.Set(model.ParamReliability, 1)
	if _, err := s.AddLink("h1", "h2", lp); err != nil {
		t.Fatal(err)
	}
	var ip model.Params
	ip.Set(model.ParamFrequency, 2)
	ip.Set(model.ParamEventSize, 10) // 20KB/s each
	if _, err := s.AddInteraction("a", "b", ip); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddInteraction("x", "y", ip); err != nil {
		t.Fatal(err)
	}
	d := model.Deployment{"a": "h1", "b": "h2", "x": "h1", "y": "h2"}
	// Demand 40 over a 25KB/s link.
	want := 25.0 / 40.0
	if got := (Throughput{}).Quantify(s, d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("contended throughput = %v, want %v", got, want)
	}
}

func TestThroughputNoInteractions(t *testing.T) {
	s := model.NewSystem()
	s.AddHost("h", model.Params{})
	s.AddComponent("c", model.Params{})
	if got := (Throughput{}).Quantify(s, model.Deployment{"c": "h"}); got != 1 {
		t.Fatalf("no-interaction throughput = %v, want 1", got)
	}
}

func TestThroughputBounds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, d, err := model.NewGenerator(model.DefaultGeneratorConfig(4, 12), seed).Generate()
		if err != nil {
			t.Fatal(err)
		}
		got := (Throughput{}).Quantify(s, d)
		if got < 0 || got > 1 {
			t.Fatalf("seed %d: throughput %v outside [0,1]", seed, got)
		}
	}
}
