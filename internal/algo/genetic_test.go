package algo

import (
	"context"
	"testing"

	"dif/internal/objective"
)

func TestGeneticImprovesAvailability(t *testing.T) {
	var improved int
	for seed := int64(0); seed < 4; seed++ {
		s, d := genSystem(t, 4, 12, seed)
		res := runAll(t, &Genetic{}, s, d, Config{
			Objective: availability(), Seed: seed, Trials: 40,
		})
		if res.Score >= availability().Quantify(s, d) {
			improved++
		}
		if res.Score < 0 || res.Score > 1 {
			t.Fatalf("seed %d: availability %v out of range", seed, res.Score)
		}
	}
	if improved < 3 {
		t.Fatalf("genetic improved only %d of 4 seeds", improved)
	}
}

func TestGeneticDeterministicPerSeed(t *testing.T) {
	s, d := genSystem(t, 4, 10, 5)
	cfg := Config{Objective: availability(), Seed: 7, Trials: 20}
	r1 := runAll(t, &Genetic{}, s, d, cfg)
	r2 := runAll(t, &Genetic{}, s, d, cfg)
	if !r1.Deployment.Equal(r2.Deployment) || r1.Score != r2.Score {
		t.Fatal("same seed produced different results")
	}
}

func TestGeneticRespectsConstraints(t *testing.T) {
	s, _ := genSystem(t, 4, 10, 3)
	comps := s.ComponentIDs()
	hosts := s.HostIDs()
	s.Constraints.Pin(comps[0], hosts[2])
	s.Constraints.ForbidCollocation(comps[1], comps[2])
	res := runAll(t, &Genetic{}, s, nil, Config{Objective: availability(), Seed: 1, Trials: 25})
	if res.Deployment[comps[0]] != hosts[2] {
		t.Fatal("pin constraint violated")
	}
	if res.Deployment[comps[1]] == res.Deployment[comps[2]] {
		t.Fatal("separation constraint violated")
	}
}

func TestGeneticNearExactOnSmallSystems(t *testing.T) {
	var exactSum, geneticSum float64
	for seed := int64(0); seed < 3; seed++ {
		s, d := genSystem(t, 3, 8, seed)
		cfg := Config{Objective: availability(), Seed: seed, Trials: 60}
		exactSum += runAll(t, &Exact{}, s, d, cfg).Score
		geneticSum += runAll(t, &Genetic{}, s, d, cfg).Score
	}
	if geneticSum < 0.9*exactSum {
		t.Fatalf("genetic total %v below 90%% of optimal %v", geneticSum, exactSum)
	}
	if geneticSum > exactSum+1e-9 {
		t.Fatal("genetic exceeded the optimum — exact is broken")
	}
}

func TestGeneticMoreGenerationsNoWorse(t *testing.T) {
	s, d := genSystem(t, 5, 16, 9)
	few := runAll(t, &Genetic{}, s, d, Config{Objective: availability(), Seed: 3, Trials: 5})
	many := runAll(t, &Genetic{}, s, d, Config{Objective: availability(), Seed: 3, Trials: 80})
	if many.Score < few.Score-1e-9 {
		t.Fatalf("80 generations (%v) worse than 5 (%v)", many.Score, few.Score)
	}
}

func TestGeneticInfeasible(t *testing.T) {
	s, d := genSystem(t, 2, 4, 1)
	comps := s.ComponentIDs()
	s.Constraints.RequireCollocation(comps[0], comps[1])
	s.Constraints.ForbidCollocation(comps[0], comps[1])
	if _, err := (&Genetic{}).Run(context.Background(), s, d,
		Config{Objective: availability(), Trials: 10}); err == nil {
		t.Fatal("infeasible problem reported success")
	}
}

func TestGeneticCancellation(t *testing.T) {
	s, d := genSystem(t, 4, 12, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Genetic{}).Run(ctx, s, d,
		Config{Objective: availability(), Trials: 1000}); err == nil {
		t.Fatal("cancelled context ignored")
	}
}

func TestGeneticMinimizesLatencyToo(t *testing.T) {
	s, d := genSystem(t, 4, 10, 11)
	init := objective.Latency{}.Quantify(s, d)
	res := runAll(t, &Genetic{}, s, d, Config{Objective: objective.Latency{}, Seed: 2, Trials: 40})
	if res.Score > init {
		t.Fatalf("genetic increased latency %v → %v", init, res.Score)
	}
}

func TestGeneticInRegistry(t *testing.T) {
	r := NewRegistry()
	a, err := r.New("genetic")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "genetic" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestCrossoverPreservesParents(t *testing.T) {
	s, d := genSystem(t, 3, 6, 1)
	comps := s.ComponentIDs()
	d2 := d.Clone()
	// Every gene of the child must come from one of the parents.
	cfg := Config{Objective: availability(), Seed: 4}
	rng := cfg.rng()
	for i := 0; i < 20; i++ {
		child := crossover(rng, comps, d, d2)
		for _, c := range comps {
			if child[c] != d[c] && child[c] != d2[c] {
				t.Fatalf("child gene %s=%s from neither parent", c, child[c])
			}
		}
		if err := child.Validate(s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepairDeployment(t *testing.T) {
	s, d := genSystem(t, 3, 8, 6)
	comps := s.ComponentIDs()
	hosts := s.HostIDs()
	s.Constraints.Pin(comps[0], hosts[0])
	bad := d.Clone()
	bad[comps[0]] = hosts[1] // violates the pin
	cfg := Config{Objective: availability(), Seed: 9}
	if !repairDeployment(newSearchSpace(s, SystemConstraints{}), cfg.rng(), bad) {
		t.Fatal("repair failed on a repairable deployment")
	}
	if err := s.Constraints.Check(s, bad); err != nil {
		t.Fatalf("repaired deployment still invalid: %v", err)
	}
}
