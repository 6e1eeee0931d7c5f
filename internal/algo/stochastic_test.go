package algo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dif/internal/model"
	"dif/internal/objective"
)

// checkedStochastic is the reference for Stochastic's trial rule: every
// fill becomes a Deployment, is checked, and is scored by Quantify,
// in a serial sweep where the first strictly better trial wins. It also
// counts the fills Check rejected.
func checkedStochastic(s *model.System, cfg Config) (res Result, rejected int, err error) {
	check := cfg.checker()
	v := newSearchSpace(s, check)
	hosts := v.upHosts()
	res = Result{Algorithm: "stochastic", InitialScore: objective.Worst(cfg.Objective)}
	var best float64
	for trial := 0; trial < cfg.Trials; trial++ {
		rng := deriveRNG(cfg.Seed, trial)
		hostOrder := make([]int, len(hosts))
		for i, p := range rng.Perm(len(hosts)) {
			hostOrder[i] = hosts[p]
		}
		res.Nodes++
		assign, ok := fillInOrder(v, hostOrder, rng.Perm(len(v.ds.Comps)))
		if !ok {
			continue
		}
		d := v.ds.Deployment(assign)
		if check.Check(s, d) != nil {
			rejected++
			continue
		}
		res.Evaluations++
		if score := cfg.Objective.Quantify(s, d); res.Deployment == nil || objective.Better(cfg.Objective, score, best) {
			best, res.Deployment = score, d
		}
	}
	if res.Deployment == nil {
		return res, rejected, ErrNoValidDeployment
	}
	res.Score = best
	return res, rejected, nil
}

// checkedSeeds is the reference for Genetic's first generation: every
// fill is checked on its own.
func checkedSeeds(v *searchSpace, rng *rand.Rand, initial model.Deployment, popSize int) []model.Deployment {
	seeds := make([]model.Deployment, 0, popSize)
	if initial != nil && v.check.Check(v.s, initial) == nil {
		seeds = append(seeds, initial.Clone())
	}
	hosts := v.upHosts()
	for tries := 0; len(seeds) < popSize && tries < popSize*10; tries++ {
		hostOrder := make([]int, len(hosts))
		for i, p := range rng.Perm(len(hosts)) {
			hostOrder[i] = hosts[p]
		}
		if assign, ok := fillInOrder(v, hostOrder, rng.Perm(len(v.ds.Comps))); ok {
			if d := v.ds.Deployment(assign); v.check.Check(v.s, d) == nil {
				seeds = append(seeds, d)
			}
		}
	}
	return seeds
}

// deriveRNG is the references' per-trial source: a fresh one, where
// Stochastic re-seeds its worker's.
func deriveRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, idx)))
}

// fillInOrder is the references' fill: a fresh arena for every fill.
func fillInOrder(v *searchSpace, hosts, comps []int) ([]int, bool) {
	return new(fillArena).fillInOrder(v, hosts, comps)
}

// denseTrialSystems builds the systems the dense-trial tests run on:
// randomConstrainedSystem's location pins, collocation pairs, memory and
// CPU checks and down host; on two systems in three (most of the others
// admit no fill), raised host capacities, an up host added to every
// location row and no component kept apart from itself; a degraded host
// on most;
// and, on every tenth, a collocation pair naming a component the system
// lacks. Such a
// pair is invisible to the incremental checker and gives Check one
// verdict on every complete deployment: "ghost" must share a host with a
// real component (always violated), must not share one with itself
// (always violated: both read as undeployed), or must not share one with
// a real component (never violated).
func denseTrialSystems(n int) []*model.System {
	rng := rand.New(rand.NewSource(37))
	out := make([]*model.System, n)
	for i := range out {
		s := randomConstrainedSystem(rng)
		hosts, comps := s.HostIDs(), s.ComponentIDs()
		if i%3 != 0 {
			m := model.NewModifier(s)
			for _, h := range hosts {
				for _, p := range []string{model.ParamMemory, model.ParamCPU} {
					m.SetHostParam(h, p, s.Hosts[h].Params.Get(p)*(1.2+rng.Float64()))
				}
			}
			up := s.UpHostIDs()
			for _, row := range s.Constraints.Location {
				row[up[rng.Intn(len(up))]] = true
			}
			apart := s.Constraints.CannotCollocate[:0]
			for _, p := range s.Constraints.CannotCollocate {
				if p.A != p.B {
					apart = append(apart, p)
				}
			}
			s.Constraints.CannotCollocate = apart
		}
		if rng.Intn(4) != 0 {
			s.SetHostDegraded(hosts[rng.Intn(len(hosts))], 0.5)
		}
		if i%10 == 9 {
			switch ghost := model.ComponentID("ghost"); i / 10 % 3 {
			case 0:
				s.Constraints.RequireCollocation(ghost, comps[0])
			case 1:
				s.Constraints.ForbidCollocation(ghost, ghost)
			default:
				s.Constraints.ForbidCollocation(ghost, comps[0])
			}
		}
		out[i] = s
	}
	return out
}

// randomDeployment places every component on a random host, valid or
// not: a Current for DegradationAware and an initial for Genetic.
func randomDeployment(rng *rand.Rand, s *model.System) model.Deployment {
	hosts := s.HostIDs()
	d := model.NewDeployment(len(s.Components))
	for _, c := range s.ComponentIDs() {
		d[c] = hosts[rng.Intn(len(hosts))]
	}
	return d
}

// TestStochasticDenseMatchesChecked holds Stochastic, whose incremental
// trials are scored as assignments and whose winner alone is checked, to
// the per-trial reference on 300 random systems, under the stock
// checker, DegradationAware with and without a current deployment, and
// DegradationAware wrapping DegradationAware, with one worker and with
// two: the deployment, the score's bits, the search statistics and the
// error must all be identical.
func TestStochasticDenseMatchesChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	outcomes := map[string]int{}
	for i, s := range denseTrialSystems(300) {
		checkers := []ConstraintChecker{
			SystemConstraints{},
			DegradationAware{},
			DegradationAware{Current: randomDeployment(rng, s)},
			DegradationAware{Inner: DegradationAware{}},
		}
		for k, check := range checkers {
			cfg := Config{Objective: availability(), Constraints: check, Seed: int64(i), Trials: 12}
			want, rejected, wantErr := checkedStochastic(s, cfg)
			for _, workers := range []int{1, 2} {
				cfg.Workers = workers
				got, err := (&Stochastic{}).Run(context.Background(), s, nil, cfg)
				got.Elapsed = 0
				if fmt.Sprint(err) != fmt.Sprint(wantErr) ||
					!reflect.DeepEqual(got.Deployment, want.Deployment) ||
					math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
					math.Float64bits(got.InitialScore) != math.Float64bits(want.InitialScore) ||
					got.Nodes != want.Nodes || got.Evaluations != want.Evaluations {
					t.Fatalf("system %d, checker %d (%T), %d workers:\n got %+v, %v\nwant %+v, %v",
						i, k, check, workers, got, err, want, wantErr)
				}
			}
			switch {
			case rejected > 0:
				// Only a ghost pair makes Check reject a fill.
				outcomes["rejected by Check"]++
			case wantErr == nil:
				outcomes["valid"]++
			default:
				outcomes["no fill"]++
			}
		}
	}
	t.Logf("outcomes: %v", outcomes)
	if outcomes["valid"] < 300 || outcomes["no fill"] < 100 || outcomes["rejected by Check"] < 20 {
		t.Fatalf("too little coverage: %v", outcomes)
	}
}

// TestGeneticSeedsDenseMatchChecked holds Genetic's first generation,
// whose incremental fills are confirmed by one Check, to the reference
// that checks every fill: the same seeds, and the RNG left in the same
// state whenever there is a seed to go on with.
func TestGeneticSeedsDenseMatchChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seeded, dropped := 0, 0
	for i, s := range denseTrialSystems(300) {
		var initial model.Deployment
		if i%3 != 0 {
			initial = randomDeployment(rng, s)
		}
		for _, check := range []ConstraintChecker{SystemConstraints{}, DegradationAware{Current: initial}} {
			v := newSearchSpace(s, check)
			got, want := rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
			seeds, ref := seedPopulation(v, got, initial, 8), checkedSeeds(v, want, initial, 8)
			if !reflect.DeepEqual(seeds, ref) {
				t.Fatalf("system %d under %T: %d seeds, reference %d", i, check, len(seeds), len(ref))
			}
			sameRNG := got.Int63() == want.Int63()
			switch {
			case len(seeds) > 0 && !sameRNG:
				t.Fatalf("system %d under %T: RNG state differs from the reference", i, check)
			case len(seeds) > 0:
				seeded++
			case !sameRNG:
				// A full set of fills was dropped on its first one's
				// verdict: Genetic stops here, so the RNG is moot.
				dropped++
			}
		}
	}
	t.Logf("%d populations seeded, %d dropped on one Check", seeded, dropped)
	if seeded < 200 || dropped < 5 {
		t.Fatal("too little coverage")
	}
}

// TestStochasticArenaDeterministic holds the per-worker arena to what a
// fresh trial would do: permInto draws rand.Perm's permutation and leaves
// the source where Perm leaves it, into a new, a short or a dirty buffer;
// and Stochastic's Result is the same for 1, 2 and 4 workers and for a
// second Run of the same value, under the stock checker and
// DegradationAware.
func TestStochasticArenaDeterministic(t *testing.T) {
	var buf []int
	for seed := int64(0); seed < 5; seed++ {
		for _, up := range []bool{true, false} {
			for k := 0; k <= 64; k++ {
				n := k
				if !up {
					n = 64 - k
				}
				ref, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := ref.Perm(n)
				if buf = permInto(rng, buf, n); !slices.Equal(buf, want) {
					t.Fatalf("seed %d: permInto(%d) = %v, rand.Perm = %v", seed, n, buf, want)
				}
				if rng.Int63() != ref.Int63() {
					t.Fatalf("seed %d: permInto(%d) left the source elsewhere than rand.Perm", seed, n)
				}
			}
		}
	}

	s, _ := genSystem(t, 10, 100, 4)
	for _, check := range []ConstraintChecker{SystemConstraints{}, DegradationAware{}} {
		for _, q := range []objective.Quantifier{objective.Availability{}, objective.Latency{}} {
			a := &Stochastic{}
			var want Result
			for i, workers := range []int{1, 2, 4, 4} {
				res, err := a.Run(context.Background(), s, nil, Config{Objective: q, Constraints: check, Seed: 9, Trials: 24, Workers: workers})
				if err != nil {
					t.Fatalf("%T, %s, %d workers: %v", check, q.Name(), workers, err)
				}
				if i == 0 {
					want = res
				} else if !sameResult(res, want) {
					t.Fatalf("%T, %s, run %d on %d workers: %+v, want %+v", check, q.Name(), i, workers, res, want)
				}
			}
		}
	}
}
