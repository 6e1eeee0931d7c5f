package model

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestConstraintsCheckValid(t *testing.T) {
	s := testSystem(t)
	if err := s.Constraints.Check(s, testDeployment()); err != nil {
		t.Fatalf("valid deployment rejected: %v", err)
	}
}

func TestMemoryConstraint(t *testing.T) {
	s := testSystem(t)
	// Shrink hostA below the two components it carries (2×10 KB).
	s.Hosts["hostA"].Params.Set(ParamMemory, 15)
	err := s.Constraints.Check(s, testDeployment())
	var v *ViolationError
	if !errors.As(err, &v) || v.Kind != "memory" || v.Host != "hostA" {
		t.Fatalf("want memory violation on hostA, got %v", err)
	}
	// Disabling the memory check accepts the same deployment.
	s.Constraints.CheckMemory = false
	if err := s.Constraints.Check(s, testDeployment()); err != nil {
		t.Fatalf("memory check not disabled: %v", err)
	}
}

func TestLocationConstraint(t *testing.T) {
	s := testSystem(t)
	s.Constraints.Restrict("c1", "hostB", "hostC")
	err := s.Constraints.Check(s, testDeployment()) // c1 is on hostA
	var v *ViolationError
	if !errors.As(err, &v) || v.Kind != "location" || v.Component != "c1" {
		t.Fatalf("want location violation for c1, got %v", err)
	}
	d := testDeployment()
	d["c1"] = "hostB"
	if err := s.Constraints.Check(s, d); err != nil {
		t.Fatalf("allowed placement rejected: %v", err)
	}
}

func TestPinReducesAllowedHosts(t *testing.T) {
	s := testSystem(t)
	s.Constraints.Pin("c2", "hostC")
	allowed := s.Constraints.AllowedHosts(s, "c2")
	if len(allowed) != 1 || allowed[0] != "hostC" {
		t.Fatalf("AllowedHosts after Pin = %v", allowed)
	}
	// Unconstrained components may go anywhere.
	if got := s.Constraints.AllowedHosts(s, "c1"); len(got) != 3 {
		t.Fatalf("unconstrained AllowedHosts = %v", got)
	}
	// Restrict replaces a previous restriction.
	s.Constraints.Restrict("c2", "hostA")
	if got := s.Constraints.AllowedHosts(s, "c2"); len(got) != 1 || got[0] != "hostA" {
		t.Fatalf("Restrict did not replace pin: %v", got)
	}
}

func TestAllowedHostsIgnoresUnknownHosts(t *testing.T) {
	s := testSystem(t)
	s.Constraints.Restrict("c1", "hostA", "ghost")
	got := s.Constraints.AllowedHosts(s, "c1")
	if len(got) != 1 || got[0] != "hostA" {
		t.Fatalf("AllowedHosts = %v, want [hostA]", got)
	}
}

func TestMustCollocate(t *testing.T) {
	s := testSystem(t)
	s.Constraints.RequireCollocation("c1", "c3") // they are on different hosts
	err := s.Constraints.Check(s, testDeployment())
	var v *ViolationError
	if !errors.As(err, &v) || v.Kind != "collocate" {
		t.Fatalf("want collocate violation, got %v", err)
	}
	d := testDeployment()
	d["c3"] = "hostA"
	if err := s.Constraints.Check(s, d); err != nil {
		t.Fatalf("collocated deployment rejected: %v", err)
	}
}

func TestCannotCollocate(t *testing.T) {
	s := testSystem(t)
	s.Constraints.ForbidCollocation("c1", "c2") // both on hostA
	err := s.Constraints.Check(s, testDeployment())
	var v *ViolationError
	if !errors.As(err, &v) || v.Kind != "separate" {
		t.Fatalf("want separate violation, got %v", err)
	}
	d := testDeployment()
	d["c2"] = "hostB"
	if err := s.Constraints.Check(s, d); err != nil {
		t.Fatalf("separated deployment rejected: %v", err)
	}
}

func TestCheckPartialIgnoresUnplaced(t *testing.T) {
	s := testSystem(t)
	s.Constraints.RequireCollocation("c1", "c3")
	s.Constraints.ForbidCollocation("c2", "c4")
	partial := Deployment{"c1": "hostA"} // c3 unplaced: must-collocate cannot fire yet
	if err := s.Constraints.CheckPartial(s, partial); err != nil {
		t.Fatalf("partial deployment rejected: %v", err)
	}
	partial["c3"] = "hostB"
	if err := s.Constraints.CheckPartial(s, partial); err == nil {
		t.Fatal("partial collocate violation not detected")
	}
}

func TestCheckPartialMemory(t *testing.T) {
	s := testSystem(t)
	s.Hosts["hostA"].Params.Set(ParamMemory, 15)
	partial := Deployment{"c1": "hostA", "c2": "hostA"}
	if err := s.Constraints.CheckPartial(s, partial); err == nil {
		t.Fatal("partial memory violation not detected")
	}
	partial["c2"] = "hostB"
	if err := s.Constraints.CheckPartial(s, partial); err != nil {
		t.Fatalf("valid partial rejected: %v", err)
	}
}

func TestCheckPartialLocation(t *testing.T) {
	s := testSystem(t)
	s.Constraints.Pin("c1", "hostB")
	if err := s.Constraints.CheckPartial(s, Deployment{"c1": "hostA"}); err == nil {
		t.Fatal("partial location violation not detected")
	}
}

func TestViolationErrorMessages(t *testing.T) {
	cases := []struct {
		err  *ViolationError
		want string
	}{
		{&ViolationError{Kind: "memory", Host: "h", Detail: "d"}, "memory"},
		{&ViolationError{Kind: "location", Component: "c", Host: "h"}, "location"},
		{&ViolationError{Kind: "collocate", Component: "a", Other: "b"}, "must share"},
		{&ViolationError{Kind: "separate", Component: "a", Other: "b"}, "must not share"},
		{&ViolationError{Kind: "incomplete", Detail: "x"}, "incomplete"},
	}
	for _, tc := range cases {
		if !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("error %q does not mention %q", tc.err.Error(), tc.want)
		}
	}
}

func TestConstraintsCloneIndependent(t *testing.T) {
	cs := NewConstraints()
	cs.Pin("c1", "h1")
	cs.RequireCollocation("c1", "c2")
	cs.ForbidCollocation("c3", "c4")
	cl := cs.Clone()
	cl.Pin("c1", "h2")
	cl.RequireCollocation("c5", "c6")
	if !cs.Allows("c1", "h1") || cs.Allows("c1", "h2") {
		t.Fatal("clone mutated original location constraints")
	}
	if len(cs.MustCollocate) != 1 {
		t.Fatal("clone mutated original collocation list")
	}
	if len(cl.MustCollocate) != 2 || !cl.Allows("c1", "h2") {
		t.Fatal("clone did not receive its own mutations")
	}
}

func TestCPUConstraint(t *testing.T) {
	s := testSystem(t)
	s.Constraints.CheckCPU = true
	for _, h := range s.HostIDs() {
		s.Hosts[h].Params.Set(ParamCPU, 10)
	}
	s.Components["c1"].Params.Set(ParamCPU, 6)
	s.Components["c2"].Params.Set(ParamCPU, 6)
	// hostA carries c1+c2: 12 > 10.
	err := s.Constraints.Check(s, testDeployment())
	var v *ViolationError
	if !errors.As(err, &v) || v.Kind != "cpu" || v.Host != "hostA" {
		t.Fatalf("want cpu violation on hostA, got %v", err)
	}
	if !strings.Contains(err.Error(), "cpu") {
		t.Fatalf("message %q", err.Error())
	}
	// Spreading out fixes it.
	d := testDeployment()
	d["c2"] = "hostC"
	if err := s.Constraints.Check(s, d); err != nil {
		t.Fatalf("spread deployment rejected: %v", err)
	}
	// Partial check catches it too.
	partial := Deployment{"c1": "hostA", "c2": "hostA"}
	if err := s.Constraints.CheckPartial(s, partial); err == nil {
		t.Fatal("partial cpu violation not detected")
	}
	// Disabled by default.
	s.Constraints.CheckCPU = false
	if err := s.Constraints.Check(s, testDeployment()); err != nil {
		t.Fatalf("cpu check not disabled: %v", err)
	}
}

func TestCPUConstraintUnsetParamsAreFree(t *testing.T) {
	s := testSystem(t)
	s.Constraints.CheckCPU = true
	// No CPU params anywhere: demand 0 ≤ capacity 0 everywhere.
	if err := s.Constraints.Check(s, testDeployment()); err != nil {
		t.Fatalf("no-CPU-params deployment rejected: %v", err)
	}
}

func TestCheckMemoryBeforeCPU(t *testing.T) {
	s := testSystem(t)
	s.Constraints.CheckCPU = true
	for _, h := range s.HostIDs() {
		s.Hosts[h].Params.Set(ParamCPU, 10)
	}
	// CPU is over on hostA (c1+c2: 12 > 10), memory on hostB and hostC
	// (10 > 5 each): the memory violation on the lowest host comes first.
	s.Components["c1"].Params.Set(ParamCPU, 6)
	s.Components["c2"].Params.Set(ParamCPU, 6)
	s.Hosts["hostB"].Params.Set(ParamMemory, 5)
	s.Hosts["hostC"].Params.Set(ParamMemory, 5)
	err := s.Constraints.Check(s, testDeployment())
	var v *ViolationError
	if !errors.As(err, &v) || v.Kind != "memory" || v.Host != "hostB" {
		t.Fatalf("want memory violation on hostB, got %v", err)
	}
}

// checkPerHost is the per-host reference for Check's location, liveness
// and capacity verdicts: it totals each host's load with its own walk of
// the deployment.
func checkPerHost(cs Constraints, s *System, d Deployment) error {
	if err := d.Validate(s); err != nil {
		return &ViolationError{Kind: "incomplete", Detail: err.Error()}
	}
	for _, c := range s.ComponentIDs() {
		h := d[c]
		if !cs.Allows(c, h) {
			return &ViolationError{Kind: "location", Component: c, Host: h}
		}
		if host, ok := s.Hosts[h]; ok && host.Down {
			return &ViolationError{Kind: "down", Component: c, Host: h}
		}
	}
	used := func(h HostID, param string) float64 {
		total := 0.0
		for c, hh := range d {
			if hh == h {
				total += s.Components[c].Params.Get(param)
			}
		}
		return total
	}
	for _, kind := range []struct {
		on          bool
		name, param string
	}{
		{cs.CheckMemory, "memory", ParamMemory},
		{cs.CheckCPU, "cpu", ParamCPU},
	} {
		if !kind.on {
			continue
		}
		for _, h := range s.HostIDs() {
			if used(h, kind.param) > s.Hosts[h].Params.Get(kind.param) {
				return &ViolationError{Kind: kind.name, Host: h}
			}
		}
	}
	return nil
}

func TestCheckMatchesPerHostReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSystem()
	s.Constraints = NewConstraints()
	s.Constraints.CheckCPU = true
	hosts := make([]HostID, 10)
	for i := range hosts {
		hosts[i] = HostID(fmt.Sprintf("h%02d", i))
		s.AddHost(hosts[i], Params{})
	}
	comps := make([]ComponentID, 100)
	for i := range comps {
		comps[i] = ComponentID(fmt.Sprintf("c%03d", i))
		s.AddComponent(comps[i], ParamsFrom(map[string]float64{ParamMemory: float64(1 + rng.Intn(10)), ParamCPU: float64(1 + rng.Intn(10))}))
	}
	s.Constraints.Restrict(comps[7], hosts[:8]...)
	verdicts := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		// Integer loads sum exactly in any order. A random deployment
		// puts about 55 memory and 55 CPU on a host, so capacities of
		// 60–99 are violated often, by either resource or both.
		for _, h := range hosts {
			s.Hosts[h].Params = ParamsFrom(map[string]float64{ParamMemory: float64(60 + rng.Intn(40)), ParamCPU: float64(60 + rng.Intn(40))})
			s.Hosts[h].Down = false
		}
		if trial%10 == 0 {
			s.Hosts[hosts[rng.Intn(len(hosts))]].Down = true
		}
		d := NewDeployment(len(comps))
		for _, c := range comps {
			d[c] = hosts[rng.Intn(len(hosts))]
		}
		got, want := s.Constraints.Check(s, d), checkPerHost(s.Constraints, s, d)
		var gv, wv *ViolationError
		errors.As(got, &gv)
		errors.As(want, &wv)
		if (gv == nil) != (wv == nil) ||
			gv != nil && (gv.Kind != wv.Kind || gv.Host != wv.Host || gv.Component != wv.Component) {
			t.Fatalf("trial %d: Check = %v, reference = %v", trial, got, want)
		}
		if wv == nil {
			verdicts["valid"]++
		} else {
			verdicts[wv.Kind]++
		}
	}
	t.Logf("verdicts: %v", verdicts)
	for _, kind := range []string{"valid", "memory", "cpu", "location", "down"} {
		if verdicts[kind] == 0 {
			t.Errorf("no %s verdict among %v", kind, verdicts)
		}
	}
}

// BenchmarkConstraintsCheck times a full Check of a valid generated
// deployment.
func BenchmarkConstraintsCheck(b *testing.B) {
	for _, size := range [][2]int{{20, 400}, {40, 800}} {
		s, d, err := NewGenerator(DefaultGeneratorConfig(size[0], size[1]), 1).Generate()
		if err != nil {
			b.Fatal(err)
		}
		s.Constraints.CheckCPU = true
		b.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				checkSink = s.Constraints.Check(s, d)
			}
		})
	}
}

var checkSink error
