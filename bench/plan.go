package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"dif/internal/algo"
	"dif/internal/analyzer"
	"dif/internal/effector"
	"dif/internal/model"
	"dif/internal/objective"
	"dif/internal/obs"
)

// planSize is one model size of the sweep: models distinct systems are
// generated from the seed; every one is planned (Avala), the first
// replans of them are also replanned (Stochastic), and each is repeated
// reps times. Planning time depends on the generated system — Avala's
// varies by about ±15 % between 20×400 systems — so a run's figure is a
// median over many systems, not over repetitions of one; repetitions
// exist only to check that a plan is reproducible. The counts are
// written for the nominal budget. 40×800 is past the 20×400 ceiling of
// the repository's earlier scaling tables, so that the knee shows.
type planSize struct {
	hosts, comps, models, replans, reps int
}

var planSizes = []planSize{{10, 100, 6, 6, 3}, {20, 400, 30, 20, 1}, {40, 800, 1, 1, 1}}

func (p planSize) String() string { return fmt.Sprintf("%dx%d", p.hosts, p.comps) }

type planModel struct {
	size    planSize
	index   int
	sys     *model.System
	initial model.Deployment
}

// generateModels makes every system of the sweep from the seed.
func generateModels(e *env) ([][]planModel, error) {
	out := make([][]planModel, len(planSizes))
	for k, sz := range planSizes {
		for i := 0; i < e.count(sz.models, 1); i++ {
			gen := model.NewGenerator(model.DefaultGeneratorConfig(sz.hosts, sz.comps), e.seed*1000+int64(i))
			sys, dep, err := gen.Generate()
			if err != nil {
				return nil, fmt.Errorf("generate %v #%d: %w", sz, i, err)
			}
			out[k] = append(out[k], planModel{sz, i, sys, dep})
		}
	}
	return out, nil
}

// planOutcome is what one Analyze + ComputePlan produced; reps of one
// seed must agree on all of it.
type planOutcome struct {
	score float64
	moves int
}

// planRun is one timed Analyze + ComputePlan.
type planRun struct {
	ms         float64 // Analyze start → ComputePlan returned
	searchMS   float64 // the search's own clock (Result.Elapsed)
	overheadMS float64 // Analyze minus the search it wraps
	diffUS     float64 // ComputePlan alone
	out        planOutcome
	algorithm  string
	evals      int // Result.Evaluations: deployments the search scored
	nodes      int // Result.Nodes: candidates it tried
}

// planOnce runs the path cmd/deployer and the framework run for one
// decision: Analyze on a fresh analyzer, then ComputePlan on its result.
// stability 1.0 selects Avala, 0.0 selects Stochastic with 25 trials.
func planOnce(e *env, m planModel, stability float64, op string) (run planRun, err error) {
	m.sys.Touch() // drop the dense-model cache: every plan pays for its own view of the model
	a := analyzer.New(nil, analyzer.Policy{})
	a.Instrument(e.reg)
	t0 := time.Now()
	dec, err := a.Analyze(context.Background(), m.sys, m.initial, stability)
	t1 := time.Now()
	if err != nil {
		return run, err
	}
	plan, err := effector.ComputePlan(m.sys, m.initial, dec.Result.Deployment)
	t2 := time.Now()
	if err != nil {
		return run, err
	}
	run = planRun{
		ms:         float64(t2.Sub(t0)) / 1e6,
		searchMS:   float64(dec.Result.Elapsed) / 1e6,
		overheadMS: float64(t1.Sub(t0)-dec.Result.Elapsed) / 1e6,
		diffUS:     float64(t2.Sub(t1)) / 1e3,
		out:        planOutcome{dec.Result.Score, len(plan.Moves)},
		algorithm:  dec.Algorithm,
		evals:      dec.Result.Evaluations,
		nodes:      dec.Result.Nodes,
	}
	// Output checks, outside the timed interval.
	if err := m.sys.Constraints.Check(m.sys, dec.Result.Deployment); err != nil {
		return run, fmt.Errorf("%s: plan violates constraints: %w", op, err)
	}
	t3 := time.Now()
	scratch := objective.Availability{}.Quantify(m.sys, dec.Result.Deployment)
	t4 := time.Now()
	if math.Abs(scratch-dec.Result.Score) > 1e-9 {
		return run, fmt.Errorf("%s: reported score %.12f, from scratch %.12f", op, dec.Result.Score, scratch)
	}
	if dec.Result.Score < dec.Result.InitialScore {
		return run, fmt.Errorf("%s: score %.6f below initial %.6f", op, dec.Result.Score, dec.Result.InitialScore)
	}
	if e.traced() {
		root := e.rec.add(0, op, "bench", "plan_journey", t0, t2)
		an := e.rec.add(root, op, "analyzer", "analyze", t0, t1)
		// The search is the analyzer's only timed child visible from
		// outside: Result.Elapsed is the algorithm's own clock.
		e.rec.add(an, op, "algo", dec.Algorithm, t0, t0.Add(dec.Result.Elapsed))
		e.rec.add(root, op, "effector", "compute_plan", t1, t2)
		chk := e.rec.add(0, op+"/check", "bench", "plan_check", t2, t4)
		e.rec.add(chk, op+"/check", "model", "constraints_check", t2, t3)
		e.rec.add(chk, op+"/check", "objective", "quantify", t3, t4)
	}
	return run, nil
}

// planTimes collects one size's timings.
type planTimes struct {
	plan, replan, search, overhead, diffUS []float64
}

var planKinds = []struct {
	name      string
	stability float64
}{{"plan", 1.0}, {"replan", 0.0}}

// sweep plans every system of every size and checks reproducibility.
// limit caps how many systems of a size are used (0 = all).
func sweep(e *env, models [][]planModel, limit int) ([]planTimes, error) {
	// Untimed warm-up: one plan and one replan at the two smaller sizes.
	for k := 0; k < 2; k++ {
		for _, kind := range planKinds {
			if _, err := planOnce(e.untraced(), models[k][0], kind.stability, "warm"); err != nil {
				return nil, err
			}
		}
	}
	times := make([]planTimes, len(models))
	for k := range models {
		var scores [2]float64
		var moves [2]int
		for _, m := range models[k] {
			if limit > 0 && m.index >= limit {
				break
			}
			// The first 20×400 system is planned twice so that the
			// reproducibility check covers the standard size too.
			reps := m.size.reps
			if k == 1 && m.index == 0 {
				reps = 2
			}
			for j, kind := range planKinds {
				if j == 1 && m.index >= e.count(m.size.replans, 1) {
					continue
				}
				var first planOutcome
				for i := 0; i < reps; i++ {
					op := fmt.Sprintf("%v/m%d/%s%d", m.size, m.index, kind.name, i)
					run, err := planOnce(e, m, kind.stability, op)
					if err != nil {
						e.res.violate("%v", err)
						e.res.ops(1, 1)
						continue
					}
					e.res.ops(1, 0)
					e.res.add("algo."+run.algorithm+"_evaluations", float64(run.evals))
					e.res.add("algo."+run.algorithm+"_nodes", float64(run.nodes))
					if i == 0 {
						first = run.out
						scores[j] += run.out.score
						moves[j] += run.out.moves
					} else if run.out.moves != first.moves || math.Abs(run.out.score-first.score) > 1e-9 {
						e.res.violate("%s: score %.12f, %d moves; first rep had %.12f, %d", op, run.out.score, run.out.moves, first.score, first.moves)
					}
					t := &times[k]
					if j == 0 {
						t.plan = append(t.plan, run.ms)
						t.search = append(t.search, run.searchMS)
						t.overhead = append(t.overhead, run.overheadMS)
						t.diffUS = append(t.diffUS, run.diffUS)
					} else {
						t.replan = append(t.replan, run.ms)
					}
				}
			}
		}
		sz := planSizes[k].String()
		e.res.set("plan.score_sum_"+sz, scores[0])
		e.res.set("plan.moves_"+sz, float64(moves[0]))
		e.res.set("replan.score_sum_"+sz, scores[1])
		e.res.set("replan.moves_"+sz, float64(moves[1]))
		e.res.note("%s: plan %v ms; replan %v ms", sz, summarize(times[k].plan), summarize(times[k].replan))
	}
	return times, nil
}

// runPlanScale is planning only: CPU-bound, no sockets.
func runPlanScale(e *env) error {
	models, setup, err := medianSetup(3, func() ([][]planModel, error) { return generateModels(e) }, func([][]planModel) {})
	if err != nil {
		return err
	}
	e.res.set("setup_s", setup)
	if e.traced() {
		return tracedPlanScale(e, models)
	}
	times, err := sweep(e, models, 0)
	if err != nil {
		return err
	}
	e.res.set("plan_small_ms_p50", median(times[0].plan))
	e.res.set("plan_ms_p50", median(times[1].plan))
	e.res.set("replan_ms_p50", median(times[1].replan))
	e.res.set("plan_large_ms_p50", median(times[2].plan))
	e.res.set("replan_large_ms_p50", median(times[2].replan))

	e.res.set("journey_ms_p50", median(times[1].plan))
	e.res.set("ops_per_s", 1000/median(times[1].replan))
	return nil
}

// tracedPlanScale is the traced run of plan_scale: an untraced baseline
// on a few 20×400 systems, the sweep over fewer systems with the
// algorithms' counters wired, then the probes of model, objective and
// algo on their own.
func tracedPlanScale(e *env, models [][]planModel) error {
	const few = 5
	plain := e.untraced()
	var base []float64
	for _, m := range models[1][:min(few, len(models[1]))] {
		run, err := planOnce(plain, m, 1.0, "baseline")
		if err != nil {
			return err
		}
		base = append(base, run.ms)
	}
	times, err := sweep(e, models, few)
	if err != nil {
		return err
	}
	e.res.set("journey.plan_ms_p50", median(times[1].plan))
	e.res.set("journey.replan_ms_p50", median(times[1].replan))
	e.res.set("journey.plan_large_ms_p50", median(times[2].plan))
	e.res.set("bench.trace_overhead_pct", (median(times[1].plan)-median(base))/median(base)*100)
	e.res.set("analyzer.overhead_ms", median(times[1].overhead))
	e.res.set("effector.compute_plan_us_400", median(times[1].diffUS))
	e.res.set("effector.compute_plan_us_800", median(times[2].diffUS))
	for k := range models {
		probeModel(e, models[k][0])
	}
	probeObjective(e, models[1][0])
	for _, k := range []int{1, 2} {
		// Avala is single-threaded, so the sweep already timed it alone.
		e.res.set("algo.avala_ms_"+planSizes[k].String(), median(times[k].search))
		if err := probeAlgos(e, models[k][0]); err != nil {
			return err
		}
	}
	return nil
}

// probeModel times the model layer's own work at one size.
func probeModel(e *env, m planModel) {
	sz := m.size.String()
	t0 := time.Now()
	_, _, _ = model.NewGenerator(model.DefaultGeneratorConfig(m.size.hosts, m.size.comps), e.seed*1000).Generate()
	e.res.set("model.generate_ms_"+sz, float64(time.Since(t0))/1e6)
	ns, _ := timeOp(e.count(5, 2), func() { m.sys.Touch(); probeSink = m.sys.Dense() })
	e.res.set("model.dense_build_ms_"+sz, ns/1e6)
	ns, _ = timeOp(e.count(50, 5), func() { probeSink = m.sys.Constraints.Check(m.sys, m.initial) })
	e.res.set("model.constraints_check_us_"+sz, ns/1e3)
}

// probeObjective times full and incremental quantification at 20×400.
func probeObjective(e *env, m planModel) {
	full, _ := timeOp(e.count(20, 3), func() { probeSink = objective.Availability{}.Quantify(m.sys, m.initial) })
	e.res.set("objective.availability_quantify_us", full/1e3)
	ns, _ := timeOp(e.count(20, 3), func() { probeSink = objective.Latency{}.Quantify(m.sys, m.initial) })
	e.res.set("objective.latency_quantify_us", ns/1e3)
	st := objective.BeginDelta(objective.Availability{}, m.sys, m.initial.Clone())
	comps, hosts := m.sys.ComponentIDs(), m.sys.HostIDs()
	rng := e.rng(7)
	ns, _ = timeOp(e.count(200000, 1000), func() {
		probeSink = st.Move(comps[rng.Intn(len(comps))], hosts[rng.Intn(len(hosts))])
		st.Revert()
	})
	e.res.set("objective.delta_move_ns", ns)
	e.res.set("objective.delta_full_ratio", ns/full)
}

// probeAlgos runs Stochastic and Swap once on their own with Workers 1.
// Stochastic gets the configuration the analyzer gives it. Swap is not
// on the analyzer's path; it runs 3 passes under the stock constraints,
// because under DegradationAware it leaves its incremental checker and
// one pass at 20×400 takes 12.6 s instead of 94 ms (README, finding 7).
func probeAlgos(e *env, m planModel) error {
	sz := m.size.String()
	reg := algo.NewRegistry()
	aware := algo.DegradationAware{Current: m.initial}
	timeRun := func(name string, check algo.ConstraintChecker, trials, workers int) (float64, error) {
		alg, err := reg.New(name)
		if err != nil {
			return 0, err
		}
		m.sys.Touch()
		cfg := algo.Config{Objective: objective.Availability{}, Constraints: check, Seed: 1, Trials: trials, Workers: workers, Obs: e.reg}
		t0 := time.Now()
		_, err = alg.Run(context.Background(), m.sys, m.initial, cfg)
		return float64(time.Since(t0)) / 1e6, err
	}
	policy := analyzer.DefaultPolicy()
	for _, a := range []struct {
		name   string
		check  algo.ConstraintChecker
		trials int
	}{{"stochastic", aware, policy.UnstableTrials}, {"swap", nil, 3}} {
		ms, err := timeRun(a.name, a.check, a.trials, 1)
		if err != nil {
			return fmt.Errorf("%s at %s: %w", a.name, sz, err)
		}
		e.res.set("algo."+a.name+"_ms_"+sz, ms)
	}
	// Of the searches only Swap feeds the Config.Obs counters today.
	e.res.set("algo.swap_iterations", e.reg.Counter(obs.Name("algo_iterations_total", "algo", "swap")).Value())
	e.res.set("algo.swap_delta_evals", e.reg.Counter(obs.Name("algo_delta_evals_total", "algo", "swap")).Value())
	if m.size.comps == 400 {
		all, err := timeRun("stochastic", aware, policy.UnstableTrials, runtime.NumCPU())
		if err != nil {
			return err
		}
		e.res.set("algo.stochastic_parallel_speedup", e.res.values["algo.stochastic_ms_"+sz]/all)
	}
	return nil
}
