package algo

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"dif/internal/model"
	"dif/internal/objective"
)

func TestStochasticDeterministicPerSeed(t *testing.T) {
	s, d := genSystem(t, 4, 12, 9)
	cfg := Config{Objective: availability(), Seed: 17, Trials: 25}
	r1 := runAll(t, &Stochastic{}, s, d, cfg)
	r2 := runAll(t, &Stochastic{}, s, d, cfg)
	if !r1.Deployment.Equal(r2.Deployment) || r1.Score != r2.Score {
		t.Fatal("same seed produced different results")
	}
}

func TestStochasticMoreTrialsNoWorse(t *testing.T) {
	s, d := genSystem(t, 4, 14, 21)
	few := runAll(t, &Stochastic{}, s, d, Config{Objective: availability(), Seed: 3, Trials: 5})
	many := runAll(t, &Stochastic{}, s, d, Config{Objective: availability(), Seed: 3, Trials: 200})
	if many.Score < few.Score {
		t.Fatalf("200 trials (%v) worse than 5 trials (%v) with the same seed stream",
			many.Score, few.Score)
	}
}

func TestStochasticRespectsTrialBudget(t *testing.T) {
	s, d := genSystem(t, 3, 8, 2)
	res := runAll(t, &Stochastic{}, s, d, Config{Objective: availability(), Seed: 1, Trials: 7})
	if res.Nodes != 7 {
		t.Fatalf("ran %d trials, want 7", res.Nodes)
	}
	if res.Evaluations > 7 {
		t.Fatalf("evaluated %d deployments from 7 trials", res.Evaluations)
	}
}

func TestStochasticDefaultTrials(t *testing.T) {
	s, d := genSystem(t, 3, 6, 2)
	res := runAll(t, &Stochastic{}, s, d, Config{Objective: availability(), Seed: 1})
	if res.Nodes != defaultStochasticTrials {
		t.Fatalf("default trials = %d, want %d", res.Nodes, defaultStochasticTrials)
	}
	custom := Stochastic{DefaultTrials: 3}
	res = runAll(t, &custom, s, d, Config{Objective: availability(), Seed: 1})
	if res.Nodes != 3 {
		t.Fatalf("custom default trials = %d, want 3", res.Nodes)
	}
}

func TestStochasticInfeasible(t *testing.T) {
	s, d := genSystem(t, 2, 4, 1)
	comps := s.ComponentIDs()
	s.Constraints.RequireCollocation(comps[0], comps[1])
	s.Constraints.ForbidCollocation(comps[0], comps[1])
	if _, err := (&Stochastic{}).Run(context.Background(), s, d,
		Config{Objective: availability(), Trials: 20}); err == nil {
		t.Fatal("infeasible problem reported success")
	}
}

func TestFillInOrderPacksEverything(t *testing.T) {
	s, _ := genSystem(t, 3, 9, 4)
	v := newSearchSpace(s, SystemConstraints{})
	assign, ok := fillInOrder(v, v.upHosts(), []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	if !ok {
		t.Fatal("fill failed on feasible system")
	}
	if err := s.Constraints.Check(s, v.ds.Deployment(assign)); err != nil {
		t.Fatalf("fill produced invalid deployment: %v", err)
	}
}

func TestFillInOrderReportsOverflow(t *testing.T) {
	s := model.NewSystem()
	s.Constraints = model.NewConstraints()
	var hp model.Params
	hp.Set(model.ParamMemory, 10)
	s.AddHost("h1", hp)
	var cp model.Params
	cp.Set(model.ParamMemory, 8)
	s.AddComponent("c1", cp)
	s.AddComponent("c2", cp)
	if _, ok := fillInOrder(newSearchSpace(s, SystemConstraints{}), []int{0}, []int{0, 1}); ok {
		t.Fatal("overflow not reported")
	}
}

func TestAvalaBeatsStochasticAtScale(t *testing.T) {
	// The paper's headline: the greedy heuristic scales to large systems
	// where randomized search degrades. (On very small systems a few
	// dozen stochastic restarts can match or beat the greedy — the
	// advantage materializes as the architecture grows.) Compare summed
	// availability over several seeds so a single unlucky draw cannot
	// flake the test.
	var avalaSum, stochSum float64
	for seed := int64(0); seed < 5; seed++ {
		s, d := genSystem(t, 10, 60, seed)
		cfg := Config{Objective: availability(), Seed: seed, Trials: 20}
		avalaSum += runAll(t, &Avala{}, s, d, cfg).Score
		stochSum += runAll(t, &Stochastic{}, s, d, cfg).Score
	}
	if avalaSum <= stochSum {
		t.Fatalf("avala total %v not above stochastic total %v", avalaSum, stochSum)
	}
}

func TestAvalaNearOptimalOnSmallSystems(t *testing.T) {
	var exactSum, avalaSum float64
	for seed := int64(0); seed < 5; seed++ {
		s, d := genSystem(t, 3, 8, seed)
		cfg := Config{Objective: availability(), Seed: seed}
		exactSum += runAll(t, &Exact{}, s, d, cfg).Score
		avalaSum += runAll(t, &Avala{}, s, d, cfg).Score
	}
	if avalaSum < 0.85*exactSum {
		t.Fatalf("avala total %v below 85%% of optimal total %v", avalaSum, exactSum)
	}
	if avalaSum > exactSum+1e-9 {
		t.Fatalf("avala total %v exceeds optimal %v — exact is broken", avalaSum, exactSum)
	}
}

func TestAvalaDeterministic(t *testing.T) {
	s, d := genSystem(t, 4, 15, 6)
	cfg := Config{Objective: availability()}
	r1 := runAll(t, &Avala{}, s, d, cfg)
	r2 := runAll(t, &Avala{}, s, d, cfg)
	if !r1.Deployment.Equal(r2.Deployment) {
		t.Fatal("avala is not deterministic")
	}
}

// firstHostScores is every host's hostScore toward all the others, the
// criterion nextBestHost picks the first host by.
func firstHostScores(s *model.System) []float64 {
	ds := s.Dense()
	maxBW, maxMem := hostScales(s, ds)
	score := make([]float64, ds.NH)
	for hi := range score {
		score[hi] = hostScore(s, ds, hi, nil, maxBW, maxMem)
	}
	return score
}

// TestHostScoresIgnoreLinksOrder: the best-host scores sum each host's
// links in dense index order, so their bits repeat from call to call
// and do not depend on the order the Links map was filled in.
func TestHostScoresIgnoreLinksOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s, _ := genSystem(t, 20, 40, seed)
		want, wantFirst := firstHostScores(s), nextBestHost(s, nil)
		same := func(what string) {
			t.Helper()
			got := firstHostScores(s)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d, %s: host %d scores %v, first call %v", seed, what, i, got[i], want[i])
				}
			}
			if got := nextBestHost(s, nil); got != wantFirst {
				t.Fatalf("seed %d, %s: first host %d, first call %d", seed, what, got, wantFirst)
			}
		}
		for i := 0; i < 20; i++ {
			same("repeated call")
		}
		pairs := make([]model.HostPair, 0, len(s.Links))
		for p := range s.Links {
			pairs = append(pairs, p)
		}
		slices.SortFunc(pairs, func(a, b model.HostPair) int {
			if a.A != b.A {
				return -strings.Compare(string(a.A), string(b.A))
			}
			return -strings.Compare(string(a.B), string(b.B))
		})
		rebuilt := make(map[model.HostPair]*model.PhysicalLink, len(pairs))
		for _, p := range pairs {
			rebuilt[p] = s.Links[p]
		}
		s.Links = rebuilt
		s.Touch()
		same("Links rebuilt in reverse order")
	}
}

func TestAvalaRepairPlacesConstrainedComponent(t *testing.T) {
	s, d := genSystem(t, 4, 10, 8)
	comps := s.ComponentIDs()
	hosts := s.HostIDs()
	// Force one component onto the worst-ranked host; the greedy pass
	// may skip it, the repair pass must still place it there.
	worst, worstScore := hosts[0], math.Inf(1)
	for hi, score := range firstHostScores(s) {
		if score <= worstScore {
			worst, worstScore = hosts[hi], score
		}
	}
	s.Constraints.Pin(comps[0], worst)
	res := runAll(t, &Avala{}, s, d, Config{Objective: availability()})
	if res.Deployment[comps[0]] != worst {
		t.Fatalf("pinned component on %s, want %s", res.Deployment[comps[0]], worst)
	}
}

func TestAvalaInfeasible(t *testing.T) {
	s, d := genSystem(t, 2, 3, 1)
	s.Constraints.Restrict(s.ComponentIDs()[0]) // nowhere to go
	if _, err := (&Avala{}).Run(context.Background(), s, d,
		Config{Objective: availability()}); err == nil {
		t.Fatal("infeasible problem reported success")
	}
}

func TestSwapNeverDegrades(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		s, d := genSystem(t, 4, 12, seed)
		init := availability().Quantify(s, d)
		res := runAll(t, &Swap{}, s, d, Config{Objective: availability(), Seed: seed})
		if res.Score < init-1e-12 {
			t.Fatalf("seed %d: swap degraded %v → %v", seed, init, res.Score)
		}
		// Quantifiers iterate model maps, so repeated evaluations may
		// differ at ULP scale; compare with tolerance.
		if diff := res.InitialScore - init; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("seed %d: initial score misreported: %v vs %v", seed, res.InitialScore, init)
		}
	}
}

func TestSwapReachesLocalOptimum(t *testing.T) {
	s, d := genSystem(t, 3, 8, 12)
	res := runAll(t, &Swap{}, s, d, Config{Objective: availability()})
	// Running swap again from its own output must find nothing.
	res2 := runAll(t, &Swap{}, s, res.Deployment, Config{Objective: availability()})
	if res2.Score > res.Score+1e-12 {
		t.Fatalf("second swap pass improved %v → %v; first pass stopped early",
			res.Score, res2.Score)
	}
}

func TestSwapRequiresValidInitial(t *testing.T) {
	s, _ := genSystem(t, 3, 6, 1)
	if _, err := (&Swap{}).Run(context.Background(), s, nil,
		Config{Objective: availability()}); err == nil {
		t.Fatal("nil initial accepted")
	}
	bad := model.Deployment{"nope": "nowhere"}
	if _, err := (&Swap{}).Run(context.Background(), s, bad,
		Config{Objective: availability()}); err == nil {
		t.Fatal("invalid initial accepted")
	}
}

func TestSwapImprovesLatencyToo(t *testing.T) {
	s, d := genSystem(t, 4, 10, 14)
	init := objective.Latency{}.Quantify(s, d)
	res := runAll(t, &Swap{}, s, d, Config{Objective: objective.Latency{}})
	if res.Score > init+1e-9 {
		t.Fatalf("swap increased latency %v → %v", init, res.Score)
	}
}
