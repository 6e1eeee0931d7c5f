// Package algo implements the Algorithm component of the deployment
// improvement framework (DSN'04 §3.1, §4.3): pluggable deployment
// estimation algorithms parameterized by the three variation points the
// paper identifies — the objective function (an objective.Quantifier), the
// constraints (a ConstraintChecker), and, for decentralized algorithms,
// the coordination protocol (see subpackage decap).
//
// Three centralized algorithms from the paper's §5.1 are provided:
//
//   - Exact: exhaustive search with constraint and bound pruning, O(k^n);
//     optimal but usable only for very small architectures.
//   - Stochastic: repeated randomized greedy fill, O(n²) per trial.
//   - Avala: greedy best-host/best-component assignment, O(n³).
//
// A Swap local-search improver is included as an extension (ablation
// baseline for the greedy heuristics).
package algo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dif/internal/model"
	"dif/internal/objective"
	"dif/internal/obs"
)

// ErrNoValidDeployment is returned when an algorithm cannot find any
// deployment satisfying the constraints.
var ErrNoValidDeployment = errors.New("no valid deployment found")

// ConstraintChecker is the constraint variation point. The default
// implementation delegates to the system's model.Constraints.
//
// The searches place, move and swap through the tables Incremental
// compiles, which admit exactly what CheckPartial admits, with each
// component's hosts narrowed to Allowed. Check is the final guard every
// search applies: Avala's final check, Exact's leaf, Stochastic's
// winning fill, Genetic's seeds and children, and Swap's initial
// deployment.
type ConstraintChecker interface {
	// Check validates a complete deployment.
	Check(s *model.System, d model.Deployment) error
	// CheckPartial validates an in-progress deployment (only placed
	// components are judged).
	CheckPartial(s *model.System, d model.Deployment) error
	// Allowed returns the hosts a component may occupy, sorted.
	Allowed(s *model.System, c model.ComponentID) []model.HostID
	// Incremental returns the checker's constraints over s's dense
	// indices, with every component's Allowed hosts compiled in. It
	// never returns nil.
	Incremental(s *model.System) *DenseConstraints
}

// SystemConstraints adapts a system's own model.Constraints to the
// ConstraintChecker interface.
type SystemConstraints struct{}

var _ ConstraintChecker = SystemConstraints{}

// Check implements ConstraintChecker.
func (SystemConstraints) Check(s *model.System, d model.Deployment) error {
	return s.Constraints.Check(s, d)
}

// CheckPartial implements ConstraintChecker.
func (SystemConstraints) CheckPartial(s *model.System, d model.Deployment) error {
	return s.Constraints.CheckPartial(s, d)
}

// Allowed implements ConstraintChecker.
func (SystemConstraints) Allowed(s *model.System, c model.ComponentID) []model.HostID {
	return s.Constraints.AllowedHosts(s, c)
}

// Incremental implements ConstraintChecker.
func (SystemConstraints) Incremental(s *model.System) *DenseConstraints {
	return newDenseConstraints(s)
}

// Config parameterizes an algorithm run.
type Config struct {
	// Objective is the quantifier to optimize. Required.
	Objective objective.Quantifier
	// Constraints is the constraint checker; nil selects SystemConstraints.
	Constraints ConstraintChecker
	// Seed drives any randomized choices; the same seed reproduces the
	// same run.
	Seed int64
	// Trials bounds randomized algorithms (Stochastic restarts, Swap
	// passes). Zero selects each algorithm's default.
	Trials int
	// Workers bounds the goroutines parallelized algorithms (Stochastic,
	// Genetic) fan their independent work units across. Zero selects all
	// cores (runtime.GOMAXPROCS); 1 forces serial execution. Per-unit
	// RNGs are derived from splitmix64(Seed, unitIndex), so results are
	// bit-identical for any worker count.
	Workers int
	// Obs receives the run's search counters (algo_*_total{algo=...});
	// nil disables instrumentation.
	Obs *obs.Registry
}

// algoMetrics bundles the counters an instrumented algorithm run feeds.
// All handles no-op when Config.Obs is nil.
type algoMetrics struct {
	iterations *obs.Counter
	accepted   *obs.Counter
	rejected   *obs.Counter
	deltaEvals *obs.Counter
	fullEvals  *obs.Counter
}

func (c Config) metrics(algorithm string) algoMetrics {
	if c.Obs == nil {
		return algoMetrics{}
	}
	n := func(base string) *obs.Counter {
		return c.Obs.Counter(obs.Name(base, "algo", algorithm))
	}
	return algoMetrics{
		iterations: n("algo_iterations_total"),
		accepted:   n("algo_candidates_accepted_total"),
		rejected:   n("algo_candidates_rejected_total"),
		deltaEvals: n("algo_delta_evals_total"),
		fullEvals:  n("algo_full_evals_total"),
	}
}

// eval returns the counter tracking scored candidates: incremental
// delta re-quantifications when the objective supports them, full
// re-quantifications otherwise.
func (m algoMetrics) eval(q objective.Quantifier) *obs.Counter {
	if _, ok := q.(objective.DeltaQuantifier); ok {
		return m.deltaEvals
	}
	return m.fullEvals
}

func (c Config) checker() ConstraintChecker {
	if c.Constraints == nil {
		return SystemConstraints{}
	}
	return c.Constraints
}

func (c Config) rng() *rand.Rand {
	return rand.New(rand.NewSource(c.Seed))
}

// Result reports an algorithm's outcome: the best deployment found, its
// score, the score of the initial deployment it started from, and search
// statistics. These populate DeSi's AlgoResultData.
type Result struct {
	Algorithm    string
	Deployment   model.Deployment
	Score        float64
	InitialScore float64
	Evaluations  int // deployments scored
	Nodes        int // search-tree nodes visited (exact) or candidates tried
	Elapsed      time.Duration
}

// Improvement returns Score-InitialScore signed so that positive is
// better, regardless of objective direction.
func (r Result) Improvement(q objective.Quantifier) float64 {
	if q.Direction() == objective.Minimize {
		return r.InitialScore - r.Score
	}
	return r.Score - r.InitialScore
}

// Algorithm is a deployment estimation algorithm. Run searches for a
// deployment of s improving on initial under cfg.Objective while
// satisfying cfg's constraints. Implementations must honor ctx
// cancellation, returning the best deployment found so far together with
// ctx.Err().
type Algorithm interface {
	Name() string
	Run(ctx context.Context, s *model.System, initial model.Deployment, cfg Config) (Result, error)
}

// Registry maps algorithm names to factories, enabling DeSi's pluggable
// AlgorithmContainer to add and remove algorithms at run time.
type Registry struct {
	factories map[string]func() Algorithm
}

// NewRegistry returns a registry pre-populated with the built-in
// algorithms (exact, stochastic, avala, swap, genetic).
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]func() Algorithm)}
	r.Register("exact", func() Algorithm { return &Exact{} })
	r.Register("stochastic", func() Algorithm { return &Stochastic{} })
	r.Register("avala", func() Algorithm { return &Avala{} })
	r.Register("swap", func() Algorithm { return &Swap{} })
	r.Register("genetic", func() Algorithm { return &Genetic{} })
	return r
}

// Register adds (or replaces) a named algorithm factory.
func (r *Registry) Register(name string, factory func() Algorithm) {
	r.factories[name] = factory
}

// Unregister removes a named algorithm factory.
func (r *Registry) Unregister(name string) {
	delete(r.factories, name)
}

// New instantiates a registered algorithm.
func (r *Registry) New(name string) (Algorithm, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	return f(), nil
}

// Names returns the registered algorithm names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scoreInitial evaluates the initial deployment, tolerating an invalid or
// incomplete one (algorithms may be asked to construct a deployment from
// scratch).
func scoreInitial(q objective.Quantifier, s *model.System, initial model.Deployment) float64 {
	if initial == nil {
		return objective.Worst(q)
	}
	return q.Quantify(s, initial)
}
