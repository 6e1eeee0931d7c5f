package algo

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/objective"
)

// Stochastic randomly orders all hosts and all components, then, going in
// order, assigns as many components to a given host as fit while all
// constraints stay satisfied; once the host is full it proceeds with the
// next host and the remaining components until every component is
// deployed (DSN'04 §5.1). The process repeats for a configurable number
// of trials and the best deployment obtained is selected. Because every
// trial must evaluate the objective over all interactions, the complexity
// is O(n²) per trial.
//
// A trial stays in dense form: its fill is scored as an assignment by
// the sum Quantify runs, and only the best becomes a Deployment.
// A fill is valid by construction, so the winner alone is checked and
// its verdict stands for every trial (see confirmFill).
//
// Trials are independent, so they fan out across Config.Workers
// goroutines. Each trial draws from a math/rand source seeded with
// splitmix64(Config.Seed, trialIndex), and ties between equal-scoring
// trials break toward the lowest trial index, so the result is
// bit-identical for any worker count. Each worker keeps one fillArena for
// the whole run: its source is re-seeded per trial, which gives the
// trial the stream a fresh source would, and its orders, assignment,
// remaining list and per-host loads are rewritten in place. Only a new
// best trial's assignment is copied out, under the lock.
type Stochastic struct {
	// DefaultTrials is used when Config.Trials is zero.
	DefaultTrials int
}

var _ Algorithm = (*Stochastic)(nil)

// defaultStochasticTrials matches the scale the paper's DeSi environment
// used for its unbiased baseline.
const defaultStochasticTrials = 100

// Name implements Algorithm.
func (*Stochastic) Name() string { return "stochastic" }

// Run implements Algorithm.
func (a *Stochastic) Run(ctx context.Context, s *model.System, initial model.Deployment, cfg Config) (Result, error) {
	start := time.Now()
	res := Result{
		Algorithm:    a.Name(),
		InitialScore: scoreInitial(cfg.Objective, s, initial),
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = a.DefaultTrials
	}
	if trials <= 0 {
		trials = defaultStochasticTrials
	}
	met := cfg.metrics(a.Name())
	// The allowed sets and constraint tables are built once and shared,
	// read-only, by every trial.
	v := newSearchSpace(s, cfg.checker())
	hosts := v.upHosts()

	var (
		mu         sync.Mutex
		best       float64
		bestAssign []int
		bestTrial  = -1
	)
	workers := cfg.workerCount()
	arenas := make([]fillArena, workers)
	err := parallelFor(ctx, workers, trials, func(w, trial int) {
		f := &arenas[w]
		if f.rng == nil {
			f.rng = rand.New(rand.NewSource(0))
		}
		f.rng.Seed(deriveSeed(cfg.Seed, trial))
		assign, ok := f.fillRandom(v, hosts)
		var score float64
		if ok {
			score = objective.QuantifyDense(cfg.Objective, s, v.ds, assign)
		}
		mu.Lock()
		defer mu.Unlock()
		res.Nodes++
		if !ok {
			return
		}
		res.Evaluations++
		// Keep the strictly best score; among equal scores the lowest
		// trial index wins, matching a serial sweep exactly.
		if bestTrial < 0 || objective.Better(cfg.Objective, score, best) ||
			(score == best && trial < bestTrial) {
			best, bestTrial = score, trial
			bestAssign = append(bestAssign[:0], assign...)
		}
	})
	if bestTrial >= 0 {
		res.Deployment = v.ds.Deployment(bestAssign)
		if !v.confirmFill(res.Deployment) {
			// Every trial shares the winner's verdict.
			res.Deployment, res.Evaluations = nil, 0
		}
	}
	met.iterations.Add(float64(res.Nodes))
	met.accepted.Add(float64(res.Evaluations))
	met.rejected.Add(float64(res.Nodes - res.Evaluations))
	res.Elapsed = time.Since(start)
	if res.Deployment == nil {
		// No trial produced a valid deployment — either the problem is
		// infeasible or the context was cancelled before any trial
		// finished. Never report an infinite score with a nil deployment.
		if err != nil {
			return res, errors.Join(err, ErrNoValidDeployment)
		}
		return res, ErrNoValidDeployment
	}
	res.Score = best
	return res, err
}

// fillArena is the scratch one goroutine's fills reuse over one
// searchSpace: the source and the host and component orders a random fill
// is drawn with, and the incremental checker (assignment and per-host
// loads) and remaining list the fill packs with.
type fillArena struct {
	rng                             *rand.Rand
	hostOrder, compOrder, remaining []int
	p                               *incChecker
}

// fillRandom fills in a random order of hosts and one of all of v's
// components, drawn from the arena's source with exactly rand.Perm's
// draws, hosts first.
func (f *fillArena) fillRandom(v *searchSpace, hosts []int) ([]int, bool) {
	f.hostOrder = permInto(f.rng, f.hostOrder, len(hosts))
	for i, p := range f.hostOrder {
		f.hostOrder[i] = hosts[p]
	}
	f.compOrder = permInto(f.rng, f.compOrder, len(v.ds.Comps))
	return f.fillInOrder(v, f.hostOrder, f.compOrder)
}

// permInto returns rand.Perm(n) written into dst's storage, grown if it
// is short: the same draws from rng give the same permutation.
func permInto(rng *rand.Rand, dst []int, n int) []int {
	m := slices.Grow(dst[:0], n)[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// fillInOrder walks hosts in order, packing components in order onto the
// current host while the constraints hold. A component that does not fit
// the current host is retried on later hosts, and a component rejected
// by every host fails the fill (nil, false). Hosts and components are
// dense indices of v's system, and so is the assignment returned
// (component index → host index), which the arena's next fill rewrites.
func (f *fillArena) fillInOrder(v *searchSpace, hosts, comps []int) ([]int, bool) {
	if f.p == nil {
		f.p = v.begin(nil)
	} else {
		f.p.reset()
	}
	remaining := append(f.remaining[:0], comps...)
	f.remaining = remaining
	for _, hi := range hosts {
		next := remaining[:0]
		for _, ci := range remaining {
			// The checker's Allowed set is a first-class variation point:
			// honor it even where CheckPartial alone would admit the
			// placement (wrappers like DegradationAware are stricter in
			// Allowed than in Check).
			if v.allows(ci, hi) && f.p.canPlace(ci, hi) {
				f.p.place(ci, hi)
				continue
			}
			next = append(next, ci)
		}
		remaining = next
		if len(remaining) == 0 {
			break
		}
	}
	if len(remaining) > 0 {
		return nil, false
	}
	return f.p.assign, true
}
