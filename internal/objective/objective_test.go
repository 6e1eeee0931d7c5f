package objective

import (
	"math"
	"testing"
	"testing/quick"

	"dif/internal/model"
)

// buildSystem creates the shared test fixture:
//
//	hostA ──0.8/100KBps/10ms── hostB      hostC is disconnected.
//	c1–c2 freq 3 size 10; c2–c3 freq 1 size 20
func buildSystem(t *testing.T) *model.System {
	t.Helper()
	s := model.NewSystem()
	s.Constraints = model.NewConstraints()
	var hp model.Params
	hp.Set(model.ParamMemory, 1000)
	s.AddHost("hostA", hp)
	s.AddHost("hostB", hp)
	s.AddHost("hostC", hp)
	var cp model.Params
	cp.Set(model.ParamMemory, 10)
	s.AddComponent("c1", cp)
	s.AddComponent("c2", cp)
	s.AddComponent("c3", cp)
	var lp model.Params
	lp.Set(model.ParamReliability, 0.8)
	lp.Set(model.ParamBandwidth, 100)
	lp.Set(model.ParamDelay, 10)
	if _, err := s.AddLink("hostA", "hostB", lp); err != nil {
		t.Fatal(err)
	}
	var i1 model.Params
	i1.Set(model.ParamFrequency, 3)
	i1.Set(model.ParamEventSize, 10)
	if _, err := s.AddInteraction("c1", "c2", i1); err != nil {
		t.Fatal(err)
	}
	var i2 model.Params
	i2.Set(model.ParamFrequency, 1)
	i2.Set(model.ParamEventSize, 20)
	if _, err := s.AddInteraction("c2", "c3", i2); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAvailabilityCollocated(t *testing.T) {
	s := buildSystem(t)
	d := model.Deployment{"c1": "hostA", "c2": "hostA", "c3": "hostA"}
	if got := (Availability{}).Quantify(s, d); got != 1 {
		t.Fatalf("fully collocated availability = %v, want 1", got)
	}
}

func TestAvailabilityMixed(t *testing.T) {
	s := buildSystem(t)
	// c1 on A, c2 on B (rel 0.8, freq 3), c3 on B (local, freq 1).
	d := model.Deployment{"c1": "hostA", "c2": "hostB", "c3": "hostB"}
	want := (3*0.8 + 1*1.0) / 4
	if got := (Availability{}).Quantify(s, d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("availability = %v, want %v", got, want)
	}
}

func TestAvailabilityDisconnected(t *testing.T) {
	s := buildSystem(t)
	// hostC has no links at all.
	d := model.Deployment{"c1": "hostC", "c2": "hostA", "c3": "hostA"}
	want := (3*0 + 1*1.0) / 4
	if got := (Availability{}).Quantify(s, d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("availability = %v, want %v", got, want)
	}
}

func TestAvailabilityUndeployedEndpoints(t *testing.T) {
	s := buildSystem(t)
	d := model.Deployment{"c1": "hostA"} // c2, c3 undeployed
	if got := (Availability{}).Quantify(s, d); got != 0 {
		t.Fatalf("availability with undeployed endpoints = %v, want 0", got)
	}
}

func TestAvailabilityNoInteractions(t *testing.T) {
	s := model.NewSystem()
	s.AddHost("h", model.Params{})
	s.AddComponent("c", model.Params{})
	d := model.Deployment{"c": "h"}
	if got := (Availability{}).Quantify(s, d); got != 1 {
		t.Fatalf("availability with no interactions = %v, want 1", got)
	}
}

func TestAvailabilityInUnitInterval(t *testing.T) {
	f := func(seed int64) bool {
		s, d, err := model.NewGenerator(model.DefaultGeneratorConfig(4, 10), seed).Generate()
		if err != nil {
			return false
		}
		a := (Availability{}).Quantify(s, d)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyLocalVsRemote(t *testing.T) {
	s := buildSystem(t)
	local := model.Deployment{"c1": "hostA", "c2": "hostA", "c3": "hostA"}
	remote := model.Deployment{"c1": "hostA", "c2": "hostB", "c3": "hostA"}
	l := Latency{}
	ll := l.Quantify(s, local)
	lr := l.Quantify(s, remote)
	if ll >= lr {
		t.Fatalf("local latency %v not below remote %v", ll, lr)
	}
	// Remote: c1-c2 freq 3: (10KB/100KBps)*1000ms + 10ms = 110ms each;
	// c2-c3 freq 1: (20/100)*1000 + 10 = 210.
	want := 3*110.0 + 1*210.0
	if math.Abs(lr-want) > 1e-9 {
		t.Fatalf("remote latency = %v, want %v", lr, want)
	}
}

func TestLatencyPartitionPenalty(t *testing.T) {
	s := buildSystem(t)
	d := model.Deployment{"c1": "hostC", "c2": "hostA", "c3": "hostA"}
	got := Latency{}.Quantify(s, d)
	// c1–c2 freq 3 over a partition: 3 × default penalty; c2–c3 local.
	min := 3 * float64(DefaultPartitionPenalty)
	if got < min {
		t.Fatalf("partitioned latency = %v, want ≥ %v", got, min)
	}
	custom := Latency{PartitionPenalty: 42}
	got = custom.Quantify(s, d)
	if got > 3*42+10 { // local term is sub-ms here
		t.Fatalf("custom penalty latency = %v", got)
	}
}

func TestLatencyUndeployedChargedAsPartition(t *testing.T) {
	s := buildSystem(t)
	d := model.Deployment{"c2": "hostA", "c3": "hostA"} // c1 missing
	got := Latency{PartitionPenalty: 100}.Quantify(s, d)
	if got < 300 {
		t.Fatalf("latency with undeployed endpoint = %v, want ≥ 300", got)
	}
}

func TestCommCost(t *testing.T) {
	s := buildSystem(t)
	local := model.Deployment{"c1": "hostA", "c2": "hostA", "c3": "hostA"}
	if got := (CommCost{}).Quantify(s, local); got != 0 {
		t.Fatalf("collocated comm cost = %v, want 0", got)
	}
	split := model.Deployment{"c1": "hostA", "c2": "hostB", "c3": "hostB"}
	if got := (CommCost{}).Quantify(s, split); got != 30 { // 3×10
		t.Fatalf("split comm cost = %v, want 30", got)
	}
}

func TestSecurityObjective(t *testing.T) {
	s := buildSystem(t)
	link := s.Link("hostA", "hostB")
	link.Params.Set(model.ParamSecurity, 0.5)
	collocated := model.Deployment{"c1": "hostA", "c2": "hostA", "c3": "hostA"}
	if got := (Security{}).Quantify(s, collocated); got != 1 {
		t.Fatalf("collocated security = %v, want 1", got)
	}
	split := model.Deployment{"c1": "hostA", "c2": "hostB", "c3": "hostB"}
	want := (3*0.5 + 1*1.0) / 4
	if got := (Security{}).Quantify(s, split); math.Abs(got-want) > 1e-12 {
		t.Fatalf("split security = %v, want %v", got, want)
	}
}

func TestBetterAndWorst(t *testing.T) {
	if !Better(Availability{}, 0.9, 0.5) || Better(Availability{}, 0.5, 0.9) {
		t.Fatal("Better wrong for maximize")
	}
	if !Better(Latency{}, 10, 20) || Better(Latency{}, 20, 10) {
		t.Fatal("Better wrong for minimize")
	}
	if !math.IsInf(Worst(Availability{}), -1) {
		t.Fatal("Worst for maximize should be -Inf")
	}
	if !math.IsInf(Worst(Latency{}), 1) {
		t.Fatal("Worst for minimize should be +Inf")
	}
}

func TestDirectionString(t *testing.T) {
	if Maximize.String() != "maximize" || Minimize.String() != "minimize" {
		t.Fatal("Direction.String wrong")
	}
	if Direction(99).String() == "" {
		t.Fatal("unknown direction should still render")
	}
}

func TestQuantifierNames(t *testing.T) {
	cases := map[string]Quantifier{
		"availability": Availability{},
		"latency":      Latency{},
		"commCost":     CommCost{},
		"security":     Security{},
	}
	for want, q := range cases {
		if q.Name() != want {
			t.Errorf("Name = %q, want %q", q.Name(), want)
		}
	}
}

func TestAvailabilityMonotoneInReliabilityProperty(t *testing.T) {
	// Raising any used link's reliability can only raise availability.
	f := func(seed int64, bump float64) bool {
		if math.IsNaN(bump) || math.IsInf(bump, 0) {
			return true
		}
		s, d, err := model.NewGenerator(model.DefaultGeneratorConfig(4, 10), seed).Generate()
		if err != nil {
			return false
		}
		before := (Availability{}).Quantify(s, d)
		for _, pair := range s.LinkKeys() {
			link := s.Links[pair]
			r := link.Reliability()
			link.Params.Set(model.ParamReliability, math.Min(1, r+math.Abs(bump)))
		}
		s.Touch()
		after := (Availability{}).Quantify(s, d)
		return after >= before-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
