package algo

import (
	"context"
	"errors"
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
// the sum QuantifyFast runs, and only the best becomes a Deployment.
// Under an incremental checker a fill is valid by construction, so the
// winner alone is checked and its verdict stands for every trial (see
// fillValid); any other checker checks every fill.
//
// Trials are independent, so they fan out across Config.Workers
// goroutines. Each trial's RNG is derived from splitmix64(Config.Seed,
// trialIndex) and ties between equal-scoring trials break toward the
// lowest trial index, so the result is bit-identical for any worker
// count.
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
	nc := len(v.ds.Comps)

	var (
		mu         sync.Mutex
		best       float64
		bestAssign []int
		bestTrial  int
	)
	err := parallelFor(ctx, cfg.workerCount(), trials, func(trial int) {
		rng := deriveRNG(cfg.Seed, trial)
		hostOrder := make([]int, len(hosts))
		for i, p := range rng.Perm(len(hosts)) {
			hostOrder[i] = hosts[p]
		}
		assign, ok := fillInOrder(v, hostOrder, rng.Perm(nc))
		ok = ok && v.fillValid(assign)
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
		if bestAssign == nil || objective.Better(cfg.Objective, score, best) ||
			(score == best && trial < bestTrial) {
			best, bestAssign, bestTrial = score, assign, trial
		}
	})
	if bestAssign != nil {
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

// fillInOrder walks hosts in order, packing components in order onto the
// current host while the constraints hold. A component that does not fit
// the current host is retried on later hosts, and a component rejected
// by every host fails the fill (nil, false). Hosts and components are
// dense indices of v's system, and so is the assignment returned
// (component index → host index).
func fillInOrder(v *searchSpace, hosts, comps []int) ([]int, bool) {
	p := v.begin(nil)
	remaining := append([]int(nil), comps...)
	for _, hi := range hosts {
		next := remaining[:0]
		for _, ci := range remaining {
			// The checker's Allowed set is a first-class variation point:
			// honor it even where CheckPartial alone would admit the
			// placement (wrappers like DegradationAware are stricter in
			// Allowed than in Check).
			if v.allows(ci, hi) && p.canPlace(ci, hi) {
				p.place(ci, hi)
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
	return p.assignment(), true
}
