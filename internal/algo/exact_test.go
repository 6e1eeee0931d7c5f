package algo

import (
	"context"
	"math"
	"testing"

	"dif/internal/model"
	"dif/internal/objective"
)

// bruteForceBest exhaustively evaluates every valid deployment without any
// pruning, as an oracle for the Exact algorithm.
func bruteForceBest(s *model.System, q objective.Quantifier) (float64, bool) {
	hosts := s.HostIDs()
	comps := s.ComponentIDs()
	d := model.NewDeployment(len(comps))
	best := objective.Worst(q)
	found := false
	var walk func(i int)
	walk = func(i int) {
		if i == len(comps) {
			if s.Constraints.Check(s, d) != nil {
				return
			}
			score := q.Quantify(s, d)
			if !found || objective.Better(q, score, best) {
				best = score
				found = true
			}
			return
		}
		for _, h := range hosts {
			d[comps[i]] = h
			walk(i + 1)
			delete(d, comps[i])
		}
	}
	walk(0)
	return best, found
}

func TestExactMatchesBruteForceAvailability(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		s, d := genSystem(t, 3, 6, seed)
		want, ok := bruteForceBest(s, objective.Availability{})
		if !ok {
			t.Fatalf("seed %d: no valid deployment", seed)
		}
		res, err := (&Exact{}).Run(context.Background(), s, d,
			Config{Objective: objective.Availability{}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(res.Score-want) > 1e-12 {
			t.Fatalf("seed %d: exact = %v, brute force = %v", seed, res.Score, want)
		}
	}
}

func TestExactMatchesBruteForceLatency(t *testing.T) {
	// Latency has no incremental fast path, exercising the generic leaf
	// evaluation.
	s, d := genSystem(t, 3, 5, 2)
	want, ok := bruteForceBest(s, objective.Latency{})
	if !ok {
		t.Fatal("no valid deployment")
	}
	res, err := (&Exact{}).Run(context.Background(), s, d,
		Config{Objective: objective.Latency{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Score-want) > 1e-9 {
		t.Fatalf("exact latency = %v, brute force = %v", res.Score, want)
	}
}

func TestExactHonorsConstraints(t *testing.T) {
	s, d := genSystem(t, 3, 6, 5)
	comps := s.ComponentIDs()
	hosts := s.HostIDs()
	s.Constraints.Pin(comps[0], hosts[2])
	s.Constraints.RequireCollocation(comps[1], comps[2])
	res, err := (&Exact{}).Run(context.Background(), s, d,
		Config{Objective: objective.Availability{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deployment[comps[0]] != hosts[2] {
		t.Fatal("pin constraint violated")
	}
	if res.Deployment[comps[1]] != res.Deployment[comps[2]] {
		t.Fatal("collocation constraint violated")
	}
	// The constrained optimum must match the constrained brute force.
	want, _ := bruteForceBest(s, objective.Availability{})
	if math.Abs(res.Score-want) > 1e-12 {
		t.Fatalf("constrained exact = %v, brute force = %v", res.Score, want)
	}
}

func TestExactInfeasible(t *testing.T) {
	s, d := genSystem(t, 2, 4, 1)
	comps := s.ComponentIDs()
	// Contradictory constraints: must collocate but also must separate.
	s.Constraints.RequireCollocation(comps[0], comps[1])
	s.Constraints.ForbidCollocation(comps[0], comps[1])
	if _, err := (&Exact{}).Run(context.Background(), s, d,
		Config{Objective: objective.Availability{}}); err == nil {
		t.Fatal("infeasible problem reported success")
	}
}

func TestExactEmptyAllowedSet(t *testing.T) {
	s, d := genSystem(t, 2, 3, 1)
	s.Constraints.Restrict(s.ComponentIDs()[0]) // no host allowed
	if _, err := (&Exact{}).Run(context.Background(), s, d,
		Config{Objective: objective.Availability{}}); err == nil {
		t.Fatal("empty allowed set reported success")
	}
}

func TestExactPruningCountsNodes(t *testing.T) {
	s, d := genSystem(t, 3, 7, 4)
	res, err := (&Exact{}).Run(context.Background(), s, d,
		Config{Objective: objective.Availability{}})
	if err != nil {
		t.Fatal(err)
	}
	full := 1
	for i := 0; i < 7; i++ {
		full *= 3
	}
	if res.Nodes <= 0 {
		t.Fatal("node counter not maintained")
	}
	// With bound pruning the tree should be well below the 3^7 leaves ×
	// tree overhead; assert it at least did not exceed the unpruned size.
	unprunedNodes := 0
	acc := 1
	for i := 0; i <= 7; i++ {
		unprunedNodes += acc
		acc *= 3
	}
	if res.Nodes > unprunedNodes {
		t.Fatalf("visited %d nodes, more than unpruned %d", res.Nodes, unprunedNodes)
	}
}

func TestAvailStateIncrementalMatchesDirect(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s, d := genSystem(t, 4, 9, seed)
		st := newAvailState(s)
		assign := s.Dense().Assign(d)
		for ci, hi := range assign {
			st.place(ci, hi)
		}
		direct := objective.Availability{}.Quantify(s, d)
		if math.Abs(st.score()-direct) > 1e-12 {
			t.Fatalf("seed %d: incremental %v != direct %v", seed, st.score(), direct)
		}
		// Unplace everything; score must return to the empty state.
		for ci := range assign {
			st.unplace(ci)
		}
		if math.Abs(st.num) > 1e-9 {
			t.Fatalf("seed %d: num after full unplace = %v", seed, st.num)
		}
		if math.Abs(st.pendingFreq-st.den) > 1e-9 {
			t.Fatalf("seed %d: pending %v != den %v", seed, st.pendingFreq, st.den)
		}
	}
}

func TestAvailStateOptimisticIsAdmissible(t *testing.T) {
	s, d := genSystem(t, 4, 8, 3)
	st := newAvailState(s)
	final := objective.Availability{}.Quantify(s, d)
	for ci, hi := range s.Dense().Assign(d) {
		if st.optimistic() < final-1e-12 {
			t.Fatalf("optimistic bound %v below achievable %v", st.optimistic(), final)
		}
		st.place(ci, hi)
	}
	if math.Abs(st.score()-final) > 1e-12 {
		t.Fatal("final incremental score mismatch")
	}
}
