package desi

import (
	"testing"

	"dif/internal/model"
)

func TestSensitivityToLinkReliability(t *testing.T) {
	m, c := newLoaded(t)
	sd := m.System()
	// Find a link that some remote interaction actually uses.
	var pair model.HostPair
	found := false
	for _, l := range sd.System.Interactions() {
		p := l.Components
		ha, hb := sd.Deployment[p.A], sd.Deployment[p.B]
		if ha != hb && sd.System.Link(ha, hb) != nil {
			pair = model.MakeHostPair(ha, hb)
			found = true
			break
		}
	}
	if !found {
		t.Skip("no remote interaction in this seed")
	}
	rep, err := c.SensitivityToLink(pair.A, pair.B, model.ParamReliability,
		[]float64{0, 0.5, 1.0}, "availability")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	// Availability must be monotone in a used link's reliability.
	if rep.Points[0].Score > rep.Points[1].Score || rep.Points[1].Score > rep.Points[2].Score {
		t.Fatalf("availability not monotone in reliability: %+v", rep.Points)
	}
	if rep.Range() <= 0 {
		t.Fatal("used link shows zero sensitivity")
	}
	// The probe must not mutate the real model.
	if sd.System.Link(pair.A, pair.B).Reliability() == 0 {
		t.Fatal("sensitivity probe mutated the model")
	}
}

func TestSensitivityToUnusedParameterIsFlat(t *testing.T) {
	m, c := newLoaded(t)
	sd := m.System()
	// Perturbing a host's memory cannot change availability of a fixed
	// deployment.
	h := sd.System.HostIDs()[0]
	rep, err := c.SensitivityToHost(h, model.ParamMemory,
		[]float64{1, 1e6}, "availability")
	if err != nil {
		t.Fatal(err)
	}
	// Quantifiers iterate maps, so identical scores may differ at ULP
	// scale; anything beyond that is a real sensitivity.
	if rep.Range() > 1e-9 {
		t.Fatalf("memory perturbation changed availability: %+v", rep.Points)
	}
}

func TestSensitivityToInteractionFrequency(t *testing.T) {
	m, c := newLoaded(t)
	sd := m.System()
	pair := sd.System.InteractionKeys()[0]
	rep, err := c.SensitivityToInteraction(pair.A, pair.B, model.ParamFrequency,
		[]float64{0.1, 100}, "availability")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	if rep.Baseline <= 0 {
		t.Fatalf("baseline = %v", rep.Baseline)
	}
}

func TestSensitivityErrors(t *testing.T) {
	m := NewModel()
	c := NewController(m)
	if _, err := c.SensitivityToHost("h", model.ParamMemory, []float64{1}, "availability"); err == nil {
		t.Fatal("no system loaded accepted")
	}
	_, c2 := newLoaded(t)
	if _, err := c2.SensitivityToLink("ghost1", "ghost2", model.ParamReliability, []float64{1}, "availability"); err == nil {
		t.Fatal("unknown link accepted")
	}
	if _, err := c2.SensitivityToInteraction("g1", "g2", model.ParamFrequency, []float64{1}, "availability"); err == nil {
		t.Fatal("unknown interaction accepted")
	}
	if _, err := c2.SensitivityToHost("ghost", model.ParamMemory, []float64{1}, "availability"); err == nil {
		t.Fatal("unknown host accepted")
	}
	m2, c3 := newLoaded(t)
	h := m2.System().System.HostIDs()[0]
	if _, err := c3.SensitivityToHost(h, model.ParamMemory, []float64{1}, "nope"); err == nil {
		t.Fatal("unknown objective accepted")
	}
}
