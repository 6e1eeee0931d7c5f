package algo

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"time"

	"dif/internal/model"
	"dif/internal/objective"
)

// Genetic is the evolutionary algorithm body the paper names as an
// example main body alongside the greedy one (DSN'04 §4.3, Figure 7:
// "the algorithm's approach (e.g., greedy algorithm, genetic algorithm,
// etc.)"). A population of valid deployments evolves through tournament
// selection, single-point crossover over the sorted component list, and
// mutation (random re-placement of a component); constraint-violating
// offspring are repaired or discarded.
//
// Offspring are produced serially from a single seeded RNG (so the
// population sequence is reproducible), then scored in parallel across
// Config.Workers goroutines. Scoring is pure and lands at fixed slice
// indices, so results are bit-identical for any worker count.
//
// Config.Trials bounds the number of generations (default
// DefaultGenerations); the population size is fixed.
type Genetic struct {
	// PopulationSize is the number of deployments per generation
	// (default 30).
	PopulationSize int
	// MutationRate is the per-offspring probability of a mutation
	// (default 0.3).
	MutationRate float64
	// Elite is how many best deployments survive unchanged (default 2).
	Elite int
}

var _ Algorithm = (*Genetic)(nil)

// Genetic defaults.
const (
	DefaultGenerations    = 60
	defaultPopulationSize = 30
	defaultMutationRate   = 0.3
	defaultElite          = 2
)

// Name implements Algorithm.
func (*Genetic) Name() string { return "genetic" }

type individual struct {
	d     model.Deployment
	score float64
}

// Run implements Algorithm.
func (g *Genetic) Run(ctx context.Context, s *model.System, initial model.Deployment, cfg Config) (Result, error) {
	start := time.Now()
	res := Result{
		Algorithm:    g.Name(),
		InitialScore: scoreInitial(cfg.Objective, s, initial),
	}
	rng := cfg.rng()

	popSize := g.PopulationSize
	if popSize <= 0 {
		popSize = defaultPopulationSize
	}
	mutRate := g.MutationRate
	if mutRate <= 0 {
		mutRate = defaultMutationRate
	}
	elite := g.Elite
	if elite <= 0 {
		elite = defaultElite
	}
	if elite > popSize/2 {
		elite = popSize / 2
	}
	generations := cfg.Trials
	if generations <= 0 {
		generations = DefaultGenerations
	}

	// The per-component allowed hosts are honored by mutation and repair
	// too, so no variation step escapes the checker's Allowed set
	// (crossover only recombines assignments that already passed it).
	v := newSearchSpace(s, cfg.checker())
	comps := v.ds.Comps

	// scoreAll evaluates deployments in parallel; results land at fixed
	// indices so they are independent of worker scheduling. On
	// cancellation only the individuals actually scored are returned.
	scoreAll := func(ds []model.Deployment) ([]individual, error) {
		out := make([]individual, len(ds))
		scored := make([]bool, len(ds))
		err := parallelFor(ctx, cfg.workerCount(), len(ds), func(_, i int) {
			out[i] = individual{d: ds[i], score: cfg.Objective.Quantify(s, ds[i])}
			scored[i] = true
		})
		if err != nil {
			kept := out[:0]
			for i := range out {
				if scored[i] {
					kept = append(kept, out[i])
				}
			}
			out = kept
		}
		res.Evaluations += len(out)
		return out, err
	}

	population, err := scoreAll(seedPopulation(v, rng, initial, popSize))
	if len(population) == 0 {
		res.Elapsed = time.Since(start)
		if err != nil {
			return res, errors.Join(err, ErrNoValidDeployment)
		}
		return res, ErrNoValidDeployment
	}

	better := func(a, b individual) bool { return objective.Better(cfg.Objective, a.score, b.score) }
	rank := func() {
		sort.SliceStable(population, func(i, j int) bool { return better(population[i], population[j]) })
	}
	rank()
	if err != nil {
		res.Deployment = population[0].d
		res.Score = population[0].score
		res.Elapsed = time.Since(start)
		return res, err
	}

	tournament := func() individual {
		best := population[rng.Intn(len(population))]
		for i := 0; i < 2; i++ {
			if cand := population[rng.Intn(len(population))]; better(cand, best) {
				best = cand
			}
		}
		return best
	}

	for gen := 0; gen < generations; gen++ {
		select {
		case <-ctx.Done():
			res.Deployment = population[0].d
			res.Score = population[0].score
			res.Elapsed = time.Since(start)
			return res, ctx.Err()
		default:
		}
		res.Nodes++
		// Produce the offspring serially (selection depends only on the
		// previous, already-scored generation), then score them together.
		children := make([]model.Deployment, 0, popSize-elite)
		for len(children) < popSize-elite {
			parentA := tournament()
			parentB := tournament()
			child := crossover(rng, comps, parentA.d, parentB.d)
			if rng.Float64() < mutRate {
				mutate(rng, v, child)
			}
			if !repairDeployment(v, rng, child) {
				continue
			}
			children = append(children, child)
		}
		offspring, err := scoreAll(children)
		next := make([]individual, 0, popSize)
		next = append(next, population[:elite]...)
		next = append(next, offspring...)
		population = next
		rank()
		if err != nil {
			res.Deployment = population[0].d
			res.Score = population[0].score
			res.Elapsed = time.Since(start)
			return res, err
		}
	}

	res.Deployment = population[0].d
	res.Score = population[0].score
	res.Elapsed = time.Since(start)
	return res, nil
}

// seedPopulation returns the first generation: the initial deployment
// (when valid) plus randomized fills, at most popSize in all and at most
// popSize*10 fills tried.
func seedPopulation(v *searchSpace, rng *rand.Rand, initial model.Deployment, popSize int) []model.Deployment {
	seeds := make([]model.Deployment, 0, popSize)
	if initial != nil && v.check.Check(v.s, initial) == nil {
		seeds = append(seeds, initial.Clone())
	}
	firstFill := len(seeds)
	hosts := v.upHosts()
	f := fillArena{rng: rng}
	for tries := 0; len(seeds) < popSize && tries < popSize*10; tries++ {
		if assign, ok := f.fillRandom(v, hosts); ok {
			seeds = append(seeds, v.ds.Deployment(assign))
		}
	}
	// The fills share one verdict: the first one's.
	if len(seeds) > firstFill && !v.confirmFill(seeds[firstFill]) {
		seeds = seeds[:firstFill]
	}
	return seeds
}

// crossover splices two parents at a random point over the sorted
// component list.
func crossover(rng *rand.Rand, comps []model.ComponentID, a, b model.Deployment) model.Deployment {
	cut := rng.Intn(len(comps) + 1)
	child := model.NewDeployment(len(comps))
	for i, c := range comps {
		if i < cut {
			child[c] = a[c]
		} else {
			child[c] = b[c]
		}
	}
	return child
}

// mutate re-places one random component on a random host drawn from its
// allowed set.
func mutate(rng *rand.Rand, v *searchSpace, d model.Deployment) {
	ci := rng.Intn(len(v.ds.Comps))
	if hs := v.allowed[ci]; len(hs) > 0 {
		d[v.ds.Comps[ci]] = v.ds.Hosts[hs[rng.Intn(len(hs))]]
	}
}

// repairDeployment reports whether d satisfies the checker, first
// trying to fix a constraint-violating d by re-placing components onto
// random allowed hosts.
func repairDeployment(v *searchSpace, rng *rand.Rand, d model.Deployment) bool {
	for attempt := 0; attempt < 3*len(v.ds.Comps); attempt++ {
		if v.check.Check(v.s, d) == nil {
			return true
		}
		ci := rng.Intn(len(v.ds.Comps))
		hs := v.allowed[ci]
		if len(hs) == 0 {
			return false
		}
		d[v.ds.Comps[ci]] = v.ds.Hosts[hs[rng.Intn(len(hs))]]
	}
	return v.check.Check(v.s, d) == nil
}
