package monitor

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dif/internal/model"
	"dif/internal/prism"
)

func TestStabilityDetectorConverges(t *testing.T) {
	d := NewStabilityDetector(0.05, 3)
	if d.Stable() {
		t.Fatal("fresh detector reports stable")
	}
	// Constant series becomes stable after 1 + Windows samples.
	for i := 0; i < 3; i++ {
		if d.Add(10) {
			t.Fatalf("stable after %d samples", i+2)
		}
	}
	if !d.Add(10) {
		t.Fatal("not stable after 4 constant samples")
	}
	if !d.Stable() {
		t.Fatal("Stable() disagrees with Add return")
	}
}

func TestStabilityDetectorResetsOnJump(t *testing.T) {
	d := NewStabilityDetector(0.05, 2)
	d.Add(10)
	d.Add(10)
	d.Add(10) // stable now
	if !d.Stable() {
		t.Fatal("precondition failed")
	}
	d.Add(20) // regime change: 100% delta
	if d.Stable() {
		t.Fatal("still stable after jump")
	}
	d.Add(20)
	d.Add(20)
	if !d.Stable() {
		t.Fatal("did not re-converge")
	}
}

func TestStabilityDetectorTolerance(t *testing.T) {
	d := NewStabilityDetector(0.10, 2)
	d.Add(100)
	d.Add(105) // 4.8% — within tolerance
	d.Add(100) // 4.8%
	if !d.Stable() {
		t.Fatal("jitter within tolerance broke stability")
	}
	d.Add(150) // 33% — outside
	if d.Stable() {
		t.Fatal("large jump tolerated")
	}
}

func TestStabilityDetectorZeroSeries(t *testing.T) {
	d := NewStabilityDetector(0.05, 2)
	d.Add(0)
	d.Add(0)
	d.Add(0)
	if !d.Stable() {
		t.Fatal("all-zero series should be stable")
	}
}

func TestStabilityDetectorDefaults(t *testing.T) {
	d := NewStabilityDetector(0, 0)
	if d.Epsilon != DefaultEpsilon || d.Windows != DefaultWindows {
		t.Fatalf("defaults = %v/%v", d.Epsilon, d.Windows)
	}
}

func TestStabilityDetectorReset(t *testing.T) {
	d := NewStabilityDetector(0.05, 2)
	for i := 0; i < 5; i++ {
		d.Add(3)
	}
	d.Reset()
	if d.Stable() || d.Samples() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestStabilityConvergenceTimeGrowsWithNoise(t *testing.T) {
	// E7's shape: noisier series take longer (or fail) to stabilize.
	converge := func(sigma float64, seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		d := NewStabilityDetector(0.05, 3)
		for i := 1; i <= 200; i++ {
			v := 0.8 + rng.NormFloat64()*sigma
			if d.Add(v) {
				return i
			}
		}
		return 201
	}
	var lowNoise, highNoise int
	for seed := int64(0); seed < 10; seed++ {
		lowNoise += converge(0.005, seed)
		highNoise += converge(0.05, seed)
	}
	if lowNoise >= highNoise {
		t.Fatalf("low-noise total %d not below high-noise total %d", lowNoise, highNoise)
	}
}

func TestStabilityDetectorNeverStableBeforeWindows(t *testing.T) {
	f := func(w uint8, vals []float64) bool {
		windows := int(w%5) + 1
		d := NewStabilityDetector(0.05, windows)
		for i, v := range vals {
			stable := d.Add(v)
			if stable && i+1 < windows+1 {
				return false // stable with too few samples
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerPerKeyIsolation(t *testing.T) {
	tr := NewTracker(0.05, 2)
	for i := 0; i < 5; i++ {
		tr.Observe("a", 1.0)
	}
	tr.Observe("b", 1.0)
	tr.Observe("b", 99.0)
	if !tr.Stable("a") {
		t.Fatal("a should be stable")
	}
	if tr.Stable("b") {
		t.Fatal("b should be unstable")
	}
	if tr.AllStable() {
		t.Fatal("AllStable with an unstable key")
	}
	if f := tr.StableFraction(); f != 0.5 {
		t.Fatalf("StableFraction = %v, want 0.5", f)
	}
}

func TestTrackerValue(t *testing.T) {
	tr := NewTracker(0, 0)
	if _, ok := tr.Value("missing"); ok {
		t.Fatal("missing key has value")
	}
	tr.Observe("k", 7)
	if v, ok := tr.Value("k"); !ok || v != 7 {
		t.Fatalf("Value = %v/%v", v, ok)
	}
}

func TestTrackerEmptyAndReset(t *testing.T) {
	tr := NewTracker(0, 0)
	if tr.AllStable() {
		t.Fatal("empty tracker reports AllStable")
	}
	if tr.StableFraction() != 0 {
		t.Fatal("empty tracker StableFraction != 0")
	}
	for i := 0; i < 5; i++ {
		tr.Observe("x", 1)
	}
	tr.Reset()
	if tr.Stable("x") {
		t.Fatal("reset did not clear detectors")
	}
}

func TestKeysAreCanonical(t *testing.T) {
	if LinkKey("b", "a") != LinkKey("a", "b") {
		t.Fatal("LinkKey not canonical")
	}
	p1 := model.MakeComponentPair("y", "x")
	p2 := model.MakeComponentPair("x", "y")
	if FreqKey(p1) != FreqKey(p2) {
		t.Fatal("FreqKey not canonical")
	}
}

func buildSys(t *testing.T) *model.System {
	t.Helper()
	s := model.NewSystem()
	s.Constraints = model.NewConstraints()
	s.AddHost("h1", model.Params{})
	s.AddHost("h2", model.Params{})
	s.AddComponent("c1", model.Params{})
	s.AddComponent("c2", model.Params{})
	var lp model.Params
	lp.Set(model.ParamReliability, 0.9)
	if _, err := s.AddLink("h1", "h2", lp); err != nil {
		t.Fatal(err)
	}
	var ip model.Params
	ip.Set(model.ParamFrequency, 1)
	if _, err := s.AddInteraction("c1", "c2", ip); err != nil {
		t.Fatal(err)
	}
	return s
}

func report(host model.HostID, comps []string, rel float64, freq float64) prism.MonitoringReport {
	rep := prism.MonitoringReport{Host: host, Components: comps}
	if rel >= 0 {
		rep.Links = []prism.ReliabilitySample{{Peer: "h2", Probes: 10, Delivered: int(rel * 10), Reliability: rel}}
	}
	if freq >= 0 {
		rep.Interactions = []prism.InteractionSample{{
			Pair: model.MakeComponentPair("c1", "c2"), Events: 10,
			Frequency: freq, AvgSizeKB: 2,
		}}
	}
	return rep
}

func TestApplierWithoutGateAppliesImmediately(t *testing.T) {
	s := buildSys(t)
	ap := NewApplier(s, nil)
	d := model.Deployment{}
	n := ap.Apply(report("h1", []string{"c1"}, 0.5, 4), d)
	if n != 2 {
		t.Fatalf("wrote %d params, want 2", n)
	}
	if s.Reliability("h1", "h2") != 0.5 {
		t.Fatal("reliability not applied")
	}
	link := s.Interaction("c1", "c2")
	if link.Frequency() != 4 || link.EventSize() != 2 {
		t.Fatal("interaction params not applied")
	}
	if d["c1"] != "h1" {
		t.Fatal("placement not applied")
	}
}

func TestApplierGateBlocksUnstableData(t *testing.T) {
	s := buildSys(t)
	tr := NewTracker(0.05, 2)
	ap := NewApplier(s, tr)
	// First two samples: not yet stable → model unchanged.
	for i := 0; i < 2; i++ {
		if n := ap.Apply(report("h1", nil, 0.5, 4), nil); n != 0 {
			t.Fatalf("unstable apply wrote %d params", n)
		}
	}
	if s.Reliability("h1", "h2") != 0.9 {
		t.Fatal("unstable data leaked into the model")
	}
	// Third sample completes the stability window.
	if n := ap.Apply(report("h1", nil, 0.5, 4), nil); n != 2 {
		t.Fatal("stable data not applied")
	}
	if s.Reliability("h1", "h2") != 0.5 {
		t.Fatal("stable reliability not written")
	}
}

func TestApplierCreatesMissingInteraction(t *testing.T) {
	s := buildSys(t)
	s.AddComponent("c3", model.Params{})
	ap := NewApplier(s, nil)
	rep := prism.MonitoringReport{
		Host: "h1",
		Interactions: []prism.InteractionSample{{
			Pair: model.MakeComponentPair("c1", "c3"), Events: 5, Frequency: 2, AvgSizeKB: 1,
		}},
	}
	if n := ap.Apply(rep, nil); n != 1 {
		t.Fatalf("wrote %d", n)
	}
	if s.Interaction("c1", "c3") == nil {
		t.Fatal("observed interaction not added to model")
	}
}

func TestApplierIgnoresUnknownEndpoints(t *testing.T) {
	s := buildSys(t)
	ap := NewApplier(s, nil)
	rep := prism.MonitoringReport{
		Host: "h1",
		Interactions: []prism.InteractionSample{{
			Pair: model.MakeComponentPair("c1", "ghost"), Events: 5, Frequency: 2,
		}},
		Links: []prism.ReliabilitySample{{Peer: "nohost", Probes: 5, Delivered: 5, Reliability: 1}},
	}
	if n := ap.Apply(rep, nil); n != 0 {
		t.Fatalf("wrote %d params for unknown elements", n)
	}
}

func TestApplierSkipsUnprobedLinks(t *testing.T) {
	s := buildSys(t)
	ap := NewApplier(s, nil)
	rep := prism.MonitoringReport{
		Host:  "h1",
		Links: []prism.ReliabilitySample{{Peer: "h2", Probes: 0}},
	}
	if n := ap.Apply(rep, nil); n != 0 {
		t.Fatal("unprobed link sample applied")
	}
	if s.Reliability("h1", "h2") != 0.9 {
		t.Fatal("unprobed sample overwrote reliability")
	}
}

func TestTrackerStalenessAgesOutSilentHosts(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	tr := NewTracker(0.05, 2)
	tr.SetClock(func() time.Time { return now })
	tr.SetMaxSampleAge(2 * time.Second)

	// Two parameters go stable; "dead" then falls silent while "live"
	// keeps reporting.
	for i := 0; i < 5; i++ {
		tr.Observe("live", 1.0)
		tr.Observe("dead", 1.0)
	}
	if !tr.Stable("live") || !tr.Stable("dead") {
		t.Fatal("both keys should be stable before the silence")
	}
	if f := tr.StableFraction(); f != 1.0 {
		t.Fatalf("StableFraction = %v, want 1", f)
	}

	now = now.Add(3 * time.Second)
	tr.Observe("live", 1.0)

	if tr.Stable("dead") {
		t.Fatal("aged-out key still counts as stable")
	}
	if _, ok := tr.Value("dead"); ok {
		t.Fatal("aged-out key still has a value")
	}
	if v, ok := tr.Value("live"); !ok || v != 1.0 {
		t.Fatalf("live key lost its value: %v/%v", v, ok)
	}
	// The stale key drops out of the denominator: the survivors' profile
	// stays fully stable.
	if !tr.AllStable() {
		t.Fatal("AllStable should ignore aged-out keys")
	}
	if f := tr.StableFraction(); f != 1.0 {
		t.Fatalf("StableFraction = %v, want 1 over the live keys", f)
	}

	removed := tr.PruneStale()
	if len(removed) != 1 || removed[0] != "dead" {
		t.Fatalf("PruneStale removed %v, want [dead]", removed)
	}
	// A pruned key starts from scratch when its host rejoins.
	if tr.Observe("dead", 1.0) {
		t.Fatal("pruned key came back pre-stabilized")
	}
}

func TestTrackerNoAgingByDefault(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	tr := NewTracker(0.05, 2)
	tr.SetClock(func() time.Time { return now })
	for i := 0; i < 5; i++ {
		tr.Observe("k", 1.0)
	}
	now = now.Add(1000 * time.Hour)
	if !tr.Stable("k") {
		t.Fatal("aging disabled but key went stale")
	}
	if tr.PruneStale() != nil {
		t.Fatal("PruneStale removed keys with aging disabled")
	}
}
