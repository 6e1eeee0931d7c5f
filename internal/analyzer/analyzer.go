// Package analyzer implements the framework's Analyzer component (DSN'04
// §3.1, §5.1): the meta-level logic that decides when to re-examine the
// deployment architecture, which algorithm to run, whether to accept the
// result, and how to resolve multiple objectives.
//
// The selection policy follows the paper's §5.1 rules:
//
//   - Architecture size: Exact is selected only for very small systems
//     (on the order of 5 hosts and 15 components).
//   - Stability profile: a stable system affords a more expensive
//     algorithm (Avala, or Exact when feasible); an unstable system gets
//     the cheap Stochastic pass for immediate improvement.
//   - Latency guard: a solution that significantly increases the
//     system's overall latency is rejected even if it improves
//     availability.
package analyzer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dif/internal/algo"
	"dif/internal/model"
	"dif/internal/objective"
	"dif/internal/obs"
)

// Policy holds the analyzer's decision thresholds.
type Policy struct {
	// ExactMaxHosts and ExactMaxComponents bound the Exact algorithm's
	// applicability (§5.1: "on the order of 5" hosts, "on the order of
	// 15" components).
	ExactMaxHosts      int
	ExactMaxComponents int
	// StableThreshold is the minimum stable fraction of monitored
	// parameters for the system to count as stable.
	StableThreshold float64
	// StableTrials and UnstableTrials budget the randomized algorithms
	// in each regime.
	StableTrials   int
	UnstableTrials int
	// MaxLatencyIncrease is the largest tolerated relative latency
	// regression (e.g. 0.15 = +15%) for an otherwise-improving solution.
	MaxLatencyIncrease float64
	// MinImprovement is the smallest availability gain worth a
	// redeployment (hysteresis against churn).
	MinImprovement float64
}

// DefaultPolicy returns the paper-calibrated policy.
func DefaultPolicy() Policy {
	return Policy{
		ExactMaxHosts:      5,
		ExactMaxComponents: 15,
		StableThreshold:    0.8,
		StableTrials:       200,
		UnstableTrials:     25,
		MaxLatencyIncrease: 0.15,
		MinImprovement:     0.01,
	}
}

// Decision reports one analysis round.
type Decision struct {
	Algorithm     string
	Result        algo.Result
	Accepted      bool
	Reason        string
	LatencyBefore float64
	LatencyAfter  float64
	Stability     float64
	When          time.Time
}

// Record is one history entry in the analyzer's execution profile.
type Record struct {
	When         time.Time
	Availability float64
	Stability    float64
	Algorithm    string
	Accepted     bool
	Improvement  float64
}

// Analyzer selects and runs algorithms, applies acceptance guards, and
// keeps the system's execution profile.
type Analyzer struct {
	registry *algo.Registry
	policy   Policy
	now      func() time.Time
	obs      *obs.Registry

	mu      sync.Mutex
	history []Record
}

// New returns an analyzer over the registry (nil selects the built-in
// registry) with the given policy (zero-value fields inherit defaults).
func New(registry *algo.Registry, policy Policy) *Analyzer {
	if registry == nil {
		registry = algo.NewRegistry()
	}
	def := DefaultPolicy()
	if policy.ExactMaxHosts == 0 {
		policy.ExactMaxHosts = def.ExactMaxHosts
	}
	if policy.ExactMaxComponents == 0 {
		policy.ExactMaxComponents = def.ExactMaxComponents
	}
	if policy.StableThreshold == 0 {
		policy.StableThreshold = def.StableThreshold
	}
	if policy.StableTrials == 0 {
		policy.StableTrials = def.StableTrials
	}
	if policy.UnstableTrials == 0 {
		policy.UnstableTrials = def.UnstableTrials
	}
	if policy.MaxLatencyIncrease == 0 {
		policy.MaxLatencyIncrease = def.MaxLatencyIncrease
	}
	if policy.MinImprovement == 0 {
		policy.MinImprovement = def.MinImprovement
	}
	return &Analyzer{registry: registry, policy: policy, now: time.Now}
}

// Policy returns the analyzer's active policy.
func (a *Analyzer) Policy() Policy { return a.policy }

// SetClock overrides the analyzer's time source (tests).
func (a *Analyzer) SetClock(now func() time.Time) { a.now = now }

// Instrument routes the algorithms' iteration/evaluation counters and
// the analyzer_plan_ms{algo=...} search-duration histogram to reg (nil
// disables instrumentation). Call before Start/Analyze.
func (a *Analyzer) Instrument(reg *obs.Registry) { a.obs = reg }

// SelectAlgorithm applies the §5.1 policy: Exact for very small systems
// that are stable, Avala for stable systems, Stochastic for unstable
// ones.
func (a *Analyzer) SelectAlgorithm(s *model.System, stability float64) string {
	stable := stability >= a.policy.StableThreshold
	if !stable {
		return "stochastic"
	}
	if len(s.Hosts) <= a.policy.ExactMaxHosts && len(s.Components) <= a.policy.ExactMaxComponents {
		return "exact"
	}
	return "avala"
}

// Analyze runs one analysis round: select an algorithm by the stability
// profile, run it for availability, and accept or reject the result
// under the latency guard and the minimum-improvement hysteresis.
func (a *Analyzer) Analyze(ctx context.Context, s *model.System, current model.Deployment, stability float64) (Decision, error) {
	name := a.SelectAlgorithm(s, stability)
	alg, err := a.registry.New(name)
	if err != nil {
		return Decision{}, err
	}
	trials := a.policy.StableTrials
	if stability < a.policy.StableThreshold {
		trials = a.policy.UnstableTrials
	}
	cfg := algo.Config{
		Objective: objective.Availability{},
		// Degradation-aware constraints steer new placements off limping
		// hosts without force-migrating the components they still serve.
		Constraints: algo.DegradationAware{Current: current},
		Seed:        int64(a.Rounds()) + 1,
		Trials:      trials,
		Obs:         a.obs,
	}
	dec := Decision{Algorithm: name, Stability: stability, When: a.now()}
	var res algo.Result
	obs.Profile(ctx, "plan", func(ctx context.Context) {
		res, err = a.run(ctx, alg, s, current, cfg)
	})
	if err != nil {
		return dec, fmt.Errorf("analyzer: %s: %w", name, err)
	}
	dec.Result = res
	dec.LatencyBefore, dec.LatencyAfter = latencies(s, current, res.Deployment)
	dec.Accepted, dec.Reason = a.accept(s, current, res, dec.LatencyBefore, dec.LatencyAfter)

	a.mu.Lock()
	a.history = append(a.history, Record{
		When:         dec.When,
		Availability: res.InitialScore,
		Stability:    stability,
		Algorithm:    name,
		Accepted:     dec.Accepted,
		Improvement:  res.Score - res.InitialScore,
	})
	a.mu.Unlock()
	return dec, nil
}

// Recover runs an out-of-band recovery round after a host death. Unlike
// Analyze it bypasses the churn hysteresis and the latency guard: when
// components have been lost with their host, any valid deployment on the
// survivors beats waiting for the next periodic round, so the best
// solution found is accepted unconditionally (it can only fail if no
// valid deployment exists on the surviving hosts). The round is recorded
// in the execution profile under the "+recovery" suffix.
func (a *Analyzer) Recover(ctx context.Context, s *model.System, current model.Deployment) (Decision, error) {
	// Recovery always runs the stable-regime algorithm at the full trial
	// budget: the system just lost a host, and the quality of the replan
	// determines availability until the host rejoins.
	name := a.SelectAlgorithm(s, 1.0)
	alg, err := a.registry.New(name)
	if err != nil {
		return Decision{}, err
	}
	cfg := algo.Config{
		Objective: objective.Availability{},
		// The replan avoids limping survivors too — resurrecting a dead
		// host's components onto a gray one trades one outage for another.
		Constraints: algo.DegradationAware{Current: current},
		Seed:        int64(a.Rounds()) + 1,
		Trials:      a.policy.StableTrials,
		Obs:         a.obs,
	}
	dec := Decision{Algorithm: name + "+recovery", Stability: 1.0, When: a.now()}
	var res algo.Result
	obs.Profile(ctx, "replan", func(ctx context.Context) {
		res, err = a.run(ctx, alg, s, current, cfg)
	})
	if err != nil {
		return dec, fmt.Errorf("analyzer: recovery %s: %w", name, err)
	}
	dec.Result = res
	dec.LatencyBefore, dec.LatencyAfter = latencies(s, current, res.Deployment)
	dec.Accepted, dec.Reason = true, "recovery: accepted unconditionally"

	a.mu.Lock()
	a.history = append(a.history, Record{
		When:         dec.When,
		Availability: res.InitialScore,
		Stability:    1.0,
		Algorithm:    dec.Algorithm,
		Accepted:     true,
		Improvement:  res.Score - res.InitialScore,
	})
	a.mu.Unlock()
	return dec, nil
}

// run runs one search and records its duration in the
// analyzer_plan_ms{algo=...} histogram.
func (a *Analyzer) run(ctx context.Context, alg algo.Algorithm, s *model.System, current model.Deployment, cfg algo.Config) (algo.Result, error) {
	t0 := time.Now()
	res, err := alg.Run(ctx, s, current, cfg)
	if a.obs != nil {
		a.obs.Histogram(obs.Name("analyzer_plan_ms", "algo", alg.Name()), nil).Observe(float64(time.Since(t0)) / 1e6)
	}
	return res, err
}

// latencies scores the latency guard's before and after deployments on
// the dense model, which sums in a fixed order: the guard gives the same
// verdict every time it sees the same pair.
func latencies(s *model.System, before, after model.Deployment) (float64, float64) {
	return objective.Latency{}.Quantify(s, before), objective.Latency{}.Quantify(s, after)
}

// accept applies the improvement hysteresis and the latency guard. The
// hysteresis has one degradation-aware exception: a plan whose gain is
// below the churn threshold is still worth enacting when it strictly
// drains placements off gray-degraded hosts without regressing the
// objective — waiting for a bigger win keeps components on a limping
// host.
func (a *Analyzer) accept(s *model.System, current model.Deployment, res algo.Result, latBefore, latAfter float64) (bool, string) {
	reason := "accepted"
	gain := res.Score - res.InitialScore
	if gain < a.policy.MinImprovement {
		before, after := degradedPlacements(s, current), degradedPlacements(s, res.Deployment)
		if gain < 0 || after >= before {
			return false, fmt.Sprintf("gain %.4f below minimum %.4f", gain, a.policy.MinImprovement)
		}
		reason = fmt.Sprintf("accepted: drains degraded hosts (%d → %d placements)", before, after)
	}
	if latBefore > 0 {
		increase := (latAfter - latBefore) / latBefore
		if increase > a.policy.MaxLatencyIncrease {
			return false, fmt.Sprintf("latency would increase %.1f%% (limit %.1f%%)",
				increase*100, a.policy.MaxLatencyIncrease*100)
		}
	}
	return true, reason
}

// degradedPlacements counts components the deployment places on hosts
// carrying a gray-failure penalty.
func degradedPlacements(s *model.System, d model.Deployment) int {
	n := 0
	for _, h := range d {
		if s.HostDegraded(h) > 0 {
			n++
		}
	}
	return n
}

// History returns a copy of the execution profile.
func (a *Analyzer) History() []Record {
	return a.lastRecords(0)
}

// Rounds returns how many rounds the execution profile records.
func (a *Analyzer) Rounds() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.history)
}

// lastRecords returns a copy of the last n records (every record when
// n <= 0).
func (a *Analyzer) lastRecords(n int) []Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := a.history
	if n > 0 && len(h) > n {
		h = h[len(h)-n:]
	}
	return append([]Record(nil), h...)
}

// AvailabilityTrend returns the mean absolute change in availability over
// the last n history records — the analyzer's own fluctuation signal.
func (a *Analyzer) AvailabilityTrend(n int) float64 {
	h := a.lastRecords(n)
	if len(h) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(h); i++ {
		d := h[i].Availability - h[i-1].Availability
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / float64(len(h)-1)
}

// ResolveConflicts picks the best of several algorithm results under a
// composite utility — the analyzer's duty when multiple objectives (or
// multiple algorithms) produce competing deployments. Results with nil
// deployments are skipped; ok is false when nothing remains.
func ResolveConflicts(s *model.System, results []algo.Result, utility objective.Quantifier) (algo.Result, bool) {
	best := algo.Result{}
	bestScore := 0.0
	found := false
	for _, r := range results {
		if r.Deployment == nil {
			continue
		}
		score := utility.Quantify(s, r.Deployment)
		if !found || objective.Better(utility, score, bestScore) {
			best = r
			bestScore = score
			found = true
		}
	}
	return best, found
}
