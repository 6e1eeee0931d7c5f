package analyzer

import (
	"context"
	"testing"
	"time"

	"dif/internal/algo"
	"dif/internal/model"
	"dif/internal/objective"
	"dif/internal/obs"
)

func genSystem(t testing.TB, hosts, comps int, seed int64) (*model.System, model.Deployment) {
	t.Helper()
	s, d, err := model.NewGenerator(model.DefaultGeneratorConfig(hosts, comps), seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func TestSelectAlgorithmPolicy(t *testing.T) {
	a := New(nil, Policy{})
	small, _ := genSystem(t, 4, 10, 1)
	large, _ := genSystem(t, 10, 60, 1)

	if got := a.SelectAlgorithm(small, 1.0); got != "exact" {
		t.Fatalf("small+stable → %s, want exact", got)
	}
	if got := a.SelectAlgorithm(large, 1.0); got != "avala" {
		t.Fatalf("large+stable → %s, want avala", got)
	}
	if got := a.SelectAlgorithm(small, 0.2); got != "stochastic" {
		t.Fatalf("unstable → %s, want stochastic", got)
	}
	if got := a.SelectAlgorithm(large, 0.2); got != "stochastic" {
		t.Fatalf("large+unstable → %s, want stochastic", got)
	}
}

func TestSelectAlgorithmBoundaries(t *testing.T) {
	a := New(nil, Policy{ExactMaxHosts: 5, ExactMaxComponents: 15})
	atLimit, _ := genSystem(t, 5, 15, 2)
	overHosts, _ := genSystem(t, 6, 15, 2)
	overComps, _ := genSystem(t, 5, 16, 2)
	if got := a.SelectAlgorithm(atLimit, 1.0); got != "exact" {
		t.Fatalf("at limit → %s", got)
	}
	if got := a.SelectAlgorithm(overHosts, 1.0); got != "avala" {
		t.Fatalf("over hosts → %s", got)
	}
	if got := a.SelectAlgorithm(overComps, 1.0); got != "avala" {
		t.Fatalf("over comps → %s", got)
	}
}

func TestAnalyzeAcceptsImprovement(t *testing.T) {
	s, d := genSystem(t, 4, 10, 3)
	a := New(nil, Policy{})
	dec, err := a.Analyze(context.Background(), s, d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Algorithm != "exact" {
		t.Fatalf("algorithm = %s", dec.Algorithm)
	}
	if !dec.Accepted {
		t.Fatalf("improvement rejected: %s", dec.Reason)
	}
	if dec.Result.Score <= dec.Result.InitialScore {
		t.Fatal("no improvement found on random initial deployment")
	}
	if len(a.History()) != 1 {
		t.Fatal("history not recorded")
	}
}

func TestAnalyzeRejectsTinyGain(t *testing.T) {
	s, d := genSystem(t, 4, 10, 3)
	a := New(nil, Policy{})
	// First round finds the optimum; analyzing again from the optimum
	// yields no further gain → rejected by hysteresis.
	dec1, err := a.Analyze(context.Background(), s, d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := a.Analyze(context.Background(), s, dec1.Result.Deployment, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Accepted {
		t.Fatalf("zero-gain redeployment accepted: %+v", dec2)
	}
}

// TestAnalyzeRecordsPlanDuration: every search the analyzer runs lands in
// analyzer_plan_ms{algo=...}, and the latency guard's figures are the
// same on every call for the same deployments.
func TestAnalyzeRecordsPlanDuration(t *testing.T) {
	s, d := genSystem(t, 8, 40, 5)
	reg := obs.NewRegistry()
	a := New(nil, Policy{})
	a.Instrument(reg)
	var first Decision
	for i, stability := range []float64{1.0, 0.0, 1.0} {
		dec, err := a.Analyze(context.Background(), s, d, stability)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = dec
		} else if dec.LatencyBefore != first.LatencyBefore {
			t.Fatalf("LatencyBefore %v, first round %v", dec.LatencyBefore, first.LatencyBefore)
		}
	}
	if _, err := a.Recover(context.Background(), s, d); err != nil {
		t.Fatal(err)
	}
	for algo, want := range map[string]uint64{"avala": 3, "stochastic": 1} {
		if got := reg.Histogram(obs.Name("analyzer_plan_ms", "algo", algo), nil).Count(); got != want {
			t.Errorf("analyzer_plan_ms{algo=%q} has %d samples, want %d", algo, got, want)
		}
	}
}

func TestLatencyGuard(t *testing.T) {
	// A hand-built system where availability and latency conflict: the
	// link with perfect reliability is extremely slow.
	s := model.NewSystem()
	s.Constraints = model.NewConstraints()
	var hp model.Params
	hp.Set(model.ParamMemory, 10) // each host fits exactly one component
	s.AddHost("fast", hp)
	s.AddHost("far", hp)
	s.AddHost("spare", hp)
	var cp model.Params
	cp.Set(model.ParamMemory, 10)
	s.AddComponent("c1", cp)
	s.AddComponent("c2", cp)
	addLink := func(a, b model.HostID, rel, bw, delay float64) {
		var lp model.Params
		lp.Set(model.ParamReliability, rel)
		lp.Set(model.ParamBandwidth, bw)
		lp.Set(model.ParamDelay, delay)
		if _, err := s.AddLink(a, b, lp); err != nil {
			t.Fatal(err)
		}
	}
	// fast–spare: decent reliability, fast. fast–far: perfect but glacial.
	addLink("fast", "spare", 0.9, 10_000, 1)
	addLink("fast", "far", 1.0, 1, 5000)
	var ip model.Params
	ip.Set(model.ParamFrequency, 5)
	ip.Set(model.ParamEventSize, 10)
	if _, err := s.AddInteraction("c1", "c2", ip); err != nil {
		t.Fatal(err)
	}
	current := model.Deployment{"c1": "fast", "c2": "spare"}

	a := New(nil, Policy{MaxLatencyIncrease: 0.15})
	dec, err := a.Analyze(context.Background(), s, current, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// The optimum for availability is c2 on "far" (rel 1.0 > 0.9), but
	// the latency guard must reject it.
	if dec.Result.Deployment["c2"] == "far" && dec.Accepted {
		t.Fatalf("latency-harming deployment accepted: %+v", dec)
	}
	if dec.Accepted {
		t.Fatalf("expected rejection, got accept: %s", dec.Reason)
	}
	if dec.LatencyAfter <= dec.LatencyBefore {
		t.Fatalf("test premise broken: latency %v → %v", dec.LatencyBefore, dec.LatencyAfter)
	}
}

func TestAvailabilityTrend(t *testing.T) {
	a := New(nil, Policy{})
	a.SetClock(func() time.Time { return time.Unix(0, 0) })
	if a.AvailabilityTrend(5) != 0 {
		t.Fatal("trend of empty history should be 0")
	}
	a.mu.Lock()
	for _, v := range []float64{0.5, 0.6, 0.4, 0.5} {
		a.history = append(a.history, Record{Availability: v})
	}
	a.mu.Unlock()
	want := (0.1 + 0.2 + 0.1) / 3
	if got := a.AvailabilityTrend(0); got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("trend = %v, want %v", got, want)
	}
	// Last-2 window only sees |0.5-0.4|.
	if got := a.AvailabilityTrend(2); got < 0.1-1e-9 || got > 0.1+1e-9 {
		t.Fatalf("windowed trend = %v, want 0.1", got)
	}
}

func TestResolveConflicts(t *testing.T) {
	s, d := genSystem(t, 3, 8, 5)
	d2 := d.Clone()
	// Find some different deployment.
	comps := s.ComponentIDs()
	hosts := s.HostIDs()
	for _, h := range hosts {
		if h != d2[comps[0]] {
			d2[comps[0]] = h
			break
		}
	}
	r1 := algo.Result{Algorithm: "a1", Deployment: d}
	r2 := algo.Result{Algorithm: "a2", Deployment: d2}
	rNil := algo.Result{Algorithm: "broken"}
	best, ok := ResolveConflicts(s, []algo.Result{rNil, r1, r2}, objective.Availability{})
	if !ok {
		t.Fatal("no result selected")
	}
	a1 := objective.Availability{}.Quantify(s, d)
	a2 := objective.Availability{}.Quantify(s, d2)
	wantAlg := "a1"
	if a2 > a1 {
		wantAlg = "a2"
	}
	if best.Algorithm != wantAlg {
		t.Fatalf("selected %s, want %s", best.Algorithm, wantAlg)
	}
	if _, ok := ResolveConflicts(s, []algo.Result{rNil}, objective.Availability{}); ok {
		t.Fatal("nil-only results produced a winner")
	}
}

func TestVote(t *testing.T) {
	props := []Proposal{
		{Host: "h1", Score: 0.5},
		{Host: "h2", Score: 0.9},
		{Host: "h3", Score: 0.7},
	}
	winner, ok := Vote(props, 0.5)
	if !ok || winner.Host != "h2" {
		t.Fatalf("winner = %+v ok=%v", winner, ok)
	}
	// Tie breaks toward the smaller host ID.
	tied := []Proposal{{Host: "hB", Score: 1}, {Host: "hA", Score: 1}}
	winner, ok = Vote(tied, 0.5)
	if !ok || winner.Host != "hA" {
		t.Fatalf("tie winner = %+v", winner)
	}
	if _, ok := Vote(nil, 0.5); ok {
		t.Fatal("empty vote produced a winner")
	}
}

func TestPoll(t *testing.T) {
	local := map[model.HostID]float64{"h1": 0.5, "h2": 0.6, "h3": 0.7}
	cand := map[model.HostID]float64{"h1": 0.6, "h2": 0.6, "h3": 0.5}
	// h1 improves, h2 equal, h3 worsens → 2/3 accept.
	if !Poll(local, cand, 0.6) {
		t.Fatal("2/3 accepts should pass a 0.6 quorum")
	}
	if Poll(local, cand, 0.9) {
		t.Fatal("2/3 accepts should fail a 0.9 quorum")
	}
	if Poll(nil, cand, 0.5) {
		t.Fatal("empty poll passed")
	}
}

func TestNewPolicyDefaults(t *testing.T) {
	a := New(nil, Policy{})
	p := a.Policy()
	def := DefaultPolicy()
	if p != def {
		t.Fatalf("policy = %+v, want defaults %+v", p, def)
	}
	custom := New(nil, Policy{ExactMaxHosts: 3})
	if custom.Policy().ExactMaxHosts != 3 || custom.Policy().ExactMaxComponents != def.ExactMaxComponents {
		t.Fatal("partial policy override broken")
	}
}

func TestAcceptDrainsDegradedHost(t *testing.T) {
	s, d := genSystem(t, 4, 10, 5)
	a := New(nil, Policy{})
	hosts := s.HostIDs()
	bad, good := hosts[0], hosts[1]
	s.SetHostDegraded(bad, 1)

	var moved model.ComponentID
	for c := range d {
		moved = c
		break
	}
	cur := d.Clone()
	cur[moved] = bad
	plan := cur.Clone()
	plan[moved] = good

	// Below-hysteresis gain, but the plan strictly drains the degraded
	// host: accepted.
	res := algo.Result{Deployment: plan, Score: 0.501, InitialScore: 0.5}
	ok, reason := a.accept(s, cur, res, 1.0, 1.0)
	if !ok {
		t.Fatalf("draining plan rejected: %s", reason)
	}

	// Same tiny gain without a drain: the hysteresis holds.
	res = algo.Result{Deployment: cur.Clone(), Score: 0.501, InitialScore: 0.5}
	if ok, _ := a.accept(s, cur, res, 1.0, 1.0); ok {
		t.Fatal("non-draining below-hysteresis plan accepted")
	}

	// A drain that regresses the objective is still rejected.
	res = algo.Result{Deployment: plan, Score: 0.49, InitialScore: 0.5}
	if ok, _ := a.accept(s, cur, res, 1.0, 1.0); ok {
		t.Fatal("objective-regressing drain accepted")
	}

	// The latency guard still applies to a draining plan.
	res = algo.Result{Deployment: plan, Score: 0.501, InitialScore: 0.5}
	if ok, _ := a.accept(s, cur, res, 1.0, 2.0); ok {
		t.Fatal("latency-busting drain accepted")
	}
}

func TestAnalyzeSteersOffDegradedHost(t *testing.T) {
	s, d := genSystem(t, 4, 10, 7)
	bad := s.HostIDs()[1]
	s.SetHostDegraded(bad, 1)
	a := New(nil, Policy{})
	dec, err := a.Analyze(context.Background(), s, d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for c, h := range dec.Result.Deployment {
		if h == bad && d[c] != bad {
			t.Fatalf("analyzer newly placed %s on degraded host %s", c, bad)
		}
	}
}
