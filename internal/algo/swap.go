package algo

import (
	"context"
	"time"

	"dif/internal/model"
	"dif/internal/objective"
)

// Swap is a local-search improver provided as a framework extension (an
// ablation baseline for the greedy heuristics): starting from the initial
// deployment it repeatedly applies the best single-component move or
// two-component exchange until no move improves the objective, or the
// trial budget (Config.Trials, interpreted as maximum passes) is spent.
//
// Candidates are scored through the objective's incremental delta
// evaluator (objective.BeginDelta), so trying a move costs O(deg) in the
// component's interactions rather than a full re-quantification, and are
// validated in O(partners) by the incremental checker compiled from the
// configured checker.
//
// Unlike the constructive algorithms, Swap requires a valid initial
// deployment; it is typically chained after Stochastic or Avala.
type Swap struct{}

var _ Algorithm = (*Swap)(nil)

// defaultSwapPasses bounds the improvement loop when Config.Trials is 0.
const defaultSwapPasses = 50

// Name implements Algorithm.
func (*Swap) Name() string { return "swap" }

// Run implements Algorithm.
func (a *Swap) Run(ctx context.Context, s *model.System, initial model.Deployment, cfg Config) (Result, error) {
	start := time.Now()
	res := Result{Algorithm: a.Name()}
	check := cfg.checker()
	if initial == nil {
		return res, ErrNoValidDeployment
	}
	if err := check.Check(s, initial); err != nil {
		res.Elapsed = time.Since(start)
		return res, ErrNoValidDeployment
	}

	passes := cfg.Trials
	if passes <= 0 {
		passes = defaultSwapPasses
	}
	met := cfg.metrics(a.Name())
	evals := met.eval(cfg.Objective)
	st := objective.BeginDelta(cfg.Objective, s, initial)
	best := st.Score()
	res.InitialScore = best
	// Candidate moves are gated by the checker's Allowed sets too:
	// wrappers like DegradationAware constrain Allowed more tightly than
	// Check, and local search must not escape through the Check path.
	v := newSearchSpace(s, check)
	p := v.begin(initial)
	assign := p.assign
	comps, hosts := v.ds.Comps, v.upHosts()

	for pass := 0; pass < passes; pass++ {
		met.iterations.Inc()
		select {
		case <-ctx.Done():
			res.Deployment = v.ds.Deployment(assign)
			res.Score = best
			res.Elapsed = time.Since(start)
			return res, ctx.Err()
		default:
		}
		improved := false

		// Best single-component relocation.
		for ci := range comps {
			from := assign[ci]
			for _, hi := range hosts {
				if hi == from || !v.allows(ci, hi) {
					continue
				}
				res.Nodes++
				if !p.canMove(ci, hi) {
					continue
				}
				res.Evaluations++
				evals.Inc()
				score := st.Move(comps[ci], v.ds.Hosts[hi])
				if objective.Better(cfg.Objective, score, best) {
					st.Commit()
					p.move(ci, hi)
					best = score
					from = hi
					improved = true
					met.accepted.Inc()
				} else {
					st.Revert()
					met.rejected.Inc()
				}
			}
		}

		// Best pairwise exchange (covers moves blocked by tight memory).
		for i := range comps {
			for j := i + 1; j < len(comps); j++ {
				hi, hj := assign[i], assign[j]
				if hi == hj || !v.allows(i, hj) || !v.allows(j, hi) {
					continue
				}
				res.Nodes++
				if !p.canSwap(i, j) {
					continue
				}
				res.Evaluations++
				evals.Inc()
				score := st.SwapPair(comps[i], comps[j])
				if objective.Better(cfg.Objective, score, best) {
					st.Commit()
					p.swap(i, j)
					best = score
					improved = true
					met.accepted.Inc()
				} else {
					st.Revert()
					met.rejected.Inc()
				}
			}
		}
		if !improved {
			break
		}
	}
	res.Deployment = v.ds.Deployment(assign)
	res.Score = best
	res.Elapsed = time.Since(start)
	return res, nil
}
