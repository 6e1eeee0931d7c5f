package desi

import (
	"testing"

	"dif/internal/model"
	"dif/internal/monitor"
	"dif/internal/prism"
)

// Params is a value held inline on each element, so a write lands only
// where it is made through the element's pointer. These cases pin the
// three writers that update a model in place — the Modifier, the
// monitor's Applier and the sensitivity probes — to show that each write
// reaches the element and the next Dense view, and that a probe's clone
// shares nothing with the live model.

func paramsSystem(t *testing.T) (*model.System, model.Deployment) {
	t.Helper()
	s := model.NewSystem()
	s.Constraints = model.NewConstraints()
	for _, h := range []model.HostID{"h1", "h2"} {
		s.AddHost(h, model.ParamsFrom(map[string]float64{model.ParamMemory: 100}))
	}
	for _, c := range []model.ComponentID{"c1", "c2", "c3"} {
		s.AddComponent(c, model.ParamsFrom(map[string]float64{model.ParamMemory: 1}))
	}
	if _, err := s.AddLink("h1", "h2", model.ParamsFrom(map[string]float64{
		model.ParamReliability: 0.9, model.ParamBandwidth: 100, model.ParamDelay: 5,
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddInteraction("c1", "c2", model.ParamsFrom(map[string]float64{
		model.ParamFrequency: 1, model.ParamEventSize: 2,
	})); err != nil {
		t.Fatal(err)
	}
	return s, model.Deployment{"c1": "h1", "c2": "h2", "c3": "h2"}
}

// edge returns the dense frequency and size of the a–b interaction.
func edge(t *testing.T, ds *model.DenseSystem, a, b model.ComponentID) (freq, size float64) {
	t.Helper()
	ai, bi := int32(ds.CompIndex(a)), int32(ds.CompIndex(b))
	for i, e := range ds.Edges {
		if (e.A == ai && e.B == bi) || (e.A == bi && e.B == ai) {
			return ds.Freq[i], ds.Size[i]
		}
	}
	t.Fatalf("no dense edge %s-%s", a, b)
	return 0, 0
}

func TestModifierWritesReachElementAndDense(t *testing.T) {
	s, _ := paramsSystem(t)
	ds := s.Dense()
	m := model.NewModifier(s)
	if err := m.SetLinkParam("h1", "h2", model.ParamReliability, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInteractionParam("c1", "c2", model.ParamFrequency, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.SetHostParam("h1", model.ParamMemory, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.SetComponentParam("c3", "owner", 3); err != nil {
		t.Fatal(err)
	}
	if got := s.Link("h1", "h2").Reliability(); got != 0.4 {
		t.Fatalf("link reliability on the element = %v, want 0.4", got)
	}
	if got := s.Hosts["h1"].Memory(); got != 50 {
		t.Fatalf("host memory on the element = %v, want 50", got)
	}
	if got := s.Components["c3"].Params.Get("owner"); got != 3 {
		t.Fatalf("extension parameter on the element = %v, want 3", got)
	}
	next := s.Dense()
	if next == ds {
		t.Fatal("Dense not rebuilt after Modifier writes")
	}
	if got := next.Rel[next.HostIndex("h1")*next.NH+next.HostIndex("h2")]; got != 0.4 {
		t.Fatalf("dense reliability = %v, want 0.4", got)
	}
	if f, _ := edge(t, next, "c1", "c2"); f != 7 {
		t.Fatalf("dense frequency = %v, want 7", f)
	}
}

func TestApplierWritesReachElementAndDense(t *testing.T) {
	s, d := paramsSystem(t)
	s.Dense()
	ap := monitor.NewApplier(s, nil)
	// Known elements only: the Applier's own Touch is all that
	// invalidates the cached view.
	rep := prism.MonitoringReport{
		Host:  "h1",
		Links: []prism.ReliabilitySample{{Peer: "h2", Probes: 10, Delivered: 6, Reliability: 0.6}},
		Interactions: []prism.InteractionSample{
			{Pair: model.MakeComponentPair("c1", "c2"), Events: 10, Frequency: 4, AvgSizeKB: 3},
		},
	}
	if n := ap.Apply(rep, d); n != 2 {
		t.Fatalf("Apply wrote %d parameters, want 2", n)
	}
	if got := s.Link("h1", "h2").Reliability(); got != 0.6 {
		t.Fatalf("link reliability on the element = %v, want 0.6", got)
	}
	ds := s.Dense()
	if got := ds.Rel[ds.HostIndex("h1")*ds.NH+ds.HostIndex("h2")]; got != 0.6 {
		t.Fatalf("dense reliability = %v, want 0.6", got)
	}
	if f, sz := edge(t, ds, "c1", "c2"); f != 4 || sz != 3 {
		t.Fatalf("dense c1-c2 = (%v, %v), want (4, 3)", f, sz)
	}

	// c2–c3 is not in the model: the Applier adds it with empty
	// parameters and then writes them.
	rep = prism.MonitoringReport{Host: "h2", Interactions: []prism.InteractionSample{
		{Pair: model.MakeComponentPair("c2", "c3"), Events: 5, Frequency: 2, AvgSizeKB: 1},
	}}
	if n := ap.Apply(rep, d); n != 1 {
		t.Fatalf("Apply wrote %d parameters, want 1", n)
	}
	if l := s.Interaction("c2", "c3"); l == nil || l.Frequency() != 2 || l.EventSize() != 1 {
		t.Fatalf("added interaction on the model = %+v", l)
	}
	if f, sz := edge(t, s.Dense(), "c2", "c3"); f != 2 || sz != 1 {
		t.Fatalf("dense c2-c3 = (%v, %v), want (2, 1)", f, sz)
	}
}

func TestSensitivityWritesReachProbeOnly(t *testing.T) {
	s, d := paramsSystem(t)
	live := s.Dense()
	m := NewModel()
	c := NewController(m)
	c.Load(s, d)
	// One remote interaction over the h1–h2 link: availability is the
	// link's reliability, so each probe's score is the value it wrote.
	rep, err := c.SensitivityToLink("h1", "h2", model.ParamReliability, []float64{0.25, 0.5}, "availability")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline != 0.9 || rep.Points[0].Score != 0.25 || rep.Points[1].Score != 0.5 {
		t.Fatalf("sensitivity = %+v, want baseline 0.9 and scores 0.25, 0.5", rep)
	}
	sys := m.System().System
	if got := sys.Link("h1", "h2").Reliability(); got != 0.9 {
		t.Fatalf("probe wrote through to the live link: reliability %v", got)
	}
	if ds := sys.Dense(); ds != live || ds.Rel[ds.HostIndex("h1")*ds.NH+ds.HostIndex("h2")] != 0.9 {
		t.Fatal("probe invalidated or changed the live dense view")
	}
}
