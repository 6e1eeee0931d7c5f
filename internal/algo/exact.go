package algo

import (
	"context"
	"time"

	"dif/internal/model"
	"dif/internal/objective"
)

// Exact tries every possible deployment and selects the one that results
// in the best objective value while satisfying all constraints (DSN'04
// §5.1). It guarantees an optimal deployment when any valid deployment
// exists. Its complexity in the general case is O(k^n) for k hosts and n
// components; fixing m components to hosts via location constraints
// reduces it to O(k^(n-m)).
//
// Two prunings keep the search practical at the paper's "very small"
// scales (≈5 hosts, ≈15 components): partial-constraint pruning (memory /
// location / collocation violations cut subtrees) and, for the
// availability objective, branch-and-bound with an admissible optimistic
// bound.
type Exact struct{}

var _ Algorithm = (*Exact)(nil)

// Name implements Algorithm.
func (*Exact) Name() string { return "exact" }

// Run implements Algorithm.
func (e *Exact) Run(ctx context.Context, s *model.System, initial model.Deployment, cfg Config) (Result, error) {
	start := time.Now()
	res := Result{
		Algorithm:    e.Name(),
		InitialScore: scoreInitial(cfg.Objective, s, initial),
	}
	v := newSearchSpace(s, cfg.checker())

	// Order components by descending memory so capacity violations prune
	// early, then by ID for determinism.
	ids := s.ComponentIDs()
	sortByMemoryDesc(s, ids)
	order := make([]int, len(ids))
	for i, c := range ids {
		order[i] = v.ds.CompIndex(c)
		if len(v.allowed[order[i]]) == 0 {
			res.Elapsed = time.Since(start)
			return res, ErrNoValidDeployment
		}
	}

	search := &exactSearch{
		searchSpace: v,
		cfg:         cfg,
		order:       order,
		p:           v.begin(nil),
		partial:     model.NewDeployment(len(order)),
		best:        objective.Worst(cfg.Objective),
	}
	if supportsIncremental(cfg.Objective) {
		search.avail = newAvailState(s)
	}

	err := search.walk(ctx, 0)
	res.Evaluations = search.evals
	res.Nodes = search.nodes
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Deployment = search.bestD
		res.Score = search.best
		return res, err
	}
	if search.bestD == nil {
		return res, ErrNoValidDeployment
	}
	res.Deployment = search.bestD
	res.Score = search.best
	return res, nil
}

type exactSearch struct {
	*searchSpace
	cfg   Config
	order []int // component indices, in assignment order

	p       *incChecker
	partial model.Deployment // p's assignment as a Deployment, for scoring and Check
	avail   *availState      // non-nil for availability fast path

	best  float64
	bestD model.Deployment
	evals int
	nodes int
}

// walk recursively assigns order[i:]; it checks ctx every few thousand
// nodes so cancellation stays cheap.
func (x *exactSearch) walk(ctx context.Context, i int) error {
	x.nodes++
	if x.nodes&0xfff == 1 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	if i == len(x.order) {
		x.evals++
		var score float64
		if x.avail != nil {
			score = x.avail.score()
		} else {
			score = x.cfg.Objective.Quantify(x.s, x.partial)
		}
		if x.bestD == nil || objective.Better(x.cfg.Objective, score, x.best) {
			// Full-constraint recheck guards against checkers whose
			// complete-deployment rules are stricter than the partial ones.
			if err := x.check.Check(x.s, x.partial); err == nil {
				x.best = score
				x.bestD = x.partial.Clone()
			}
		}
		return nil
	}
	ci := x.order[i]
	c := x.ds.Comps[ci]
	for _, hi := range x.allowed[ci] {
		if !x.p.canPlace(ci, hi) {
			continue
		}
		x.p.place(ci, hi)
		x.partial[c] = x.ds.Hosts[hi]
		if x.avail != nil {
			x.avail.place(ci, hi)
			// Branch-and-bound: prune when even a perfect completion
			// cannot beat the incumbent.
			if x.bestD != nil && x.avail.optimistic() <= x.best {
				x.avail.unplace(ci)
				x.p.unplace(ci)
				delete(x.partial, c)
				continue
			}
		}
		if err := x.walk(ctx, i+1); err != nil {
			return err
		}
		if x.avail != nil {
			x.avail.unplace(ci)
		}
		x.p.unplace(ci)
		delete(x.partial, c)
	}
	return nil
}

// sortByMemoryDesc orders components by descending memory requirement,
// breaking ties by ID.
func sortByMemoryDesc(s *model.System, comps []model.ComponentID) {
	memOf := func(c model.ComponentID) float64 { return s.Components[c].Memory() }
	sortComponentsBy(comps, func(a, b model.ComponentID) bool {
		ma, mb := memOf(a), memOf(b)
		if ma != mb {
			return ma > mb
		}
		return a < b
	})
}

func sortComponentsBy(comps []model.ComponentID, less func(a, b model.ComponentID) bool) {
	// Insertion sort keeps this dependency-free and stable; component
	// slices here are small relative to the search cost.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && less(comps[j], comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
}
