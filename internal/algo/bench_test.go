package algo

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dif/internal/model"
	"dif/internal/objective"
)

func benchSystem(b *testing.B, hosts, comps int) (*model.System, model.Deployment) {
	b.Helper()
	cfg := model.DefaultGeneratorConfig(hosts, comps)
	avg := cfg.ComponentMemory.Mid()
	fair := avg * float64(comps) / float64(hosts)
	cfg.HostMemory = model.Range{Min: fair, Max: fair * 1.5}
	cfg.MemoryHeadroom = 1.2
	s, d, err := model.NewGenerator(cfg, 1).Generate()
	if err != nil {
		b.Fatal(err)
	}
	return s, d
}

func BenchmarkExactSmall(b *testing.B) {
	s, d := benchSystem(b, 4, 10)
	cfg := Config{Objective: objective.Availability{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Exact{}).Run(context.Background(), s, d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStochastic(b *testing.B) {
	for _, size := range []struct{ h, c int }{{5, 50}, {10, 100}} {
		b.Run(fmt.Sprintf("%dx%d", size.h, size.c), func(b *testing.B) {
			s, d := benchSystem(b, size.h, size.c)
			cfg := Config{Objective: objective.Availability{}, Seed: 1, Trials: 20}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&Stochastic{}).Run(context.Background(), s, d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAvala times one search. The two small sizes run the tight
// benchSystem under the stock checker; 20x400 and 40x800 run Avala as
// the analyzer runs a first plan (plan_scale's journey): the default
// generated system under DegradationAware, with Touch before each run
// so every op rebuilds the dense values.
func BenchmarkAvala(b *testing.B) {
	for _, size := range []struct {
		h, c     int
		analyzer bool
	}{{5, 50, false}, {10, 100, false}, {20, 400, true}, {40, 800, true}} {
		b.Run(fmt.Sprintf("%dx%d", size.h, size.c), func(b *testing.B) {
			cfg := Config{Objective: objective.Availability{}}
			var s *model.System
			var d model.Deployment
			if size.analyzer {
				s, d = genSystem(b, size.h, size.c, 1)
				cfg.Constraints = DegradationAware{Current: d}
			} else {
				s, d = benchSystem(b, size.h, size.c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if size.analyzer {
					s.Touch()
				}
				if _, err := (&Avala{}).Run(context.Background(), s, d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAvailabilityQuantify(b *testing.B) {
	s, d := benchSystem(b, 10, 100)
	q := objective.Availability{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Quantify(s, d)
	}
}

// swapFullBaseline is the pre-delta Swap inner loop — full constraint
// Check and full re-Quantify per candidate — kept test-only as the
// baseline BenchmarkSwapDelta measures the incremental evaluator against.
func swapFullBaseline(s *model.System, initial model.Deployment, cfg Config, passes int) (model.Deployment, float64) {
	check := cfg.checker()
	d := initial.Clone()
	best := cfg.Objective.Quantify(s, initial)
	comps := s.ComponentIDs()
	hosts := s.HostIDs()
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, c := range comps {
			from := d[c]
			for _, h := range hosts {
				if h == from {
					continue
				}
				d[c] = h
				if err := check.Check(s, d); err != nil {
					d[c] = from
					continue
				}
				score := cfg.Objective.Quantify(s, d)
				if objective.Better(cfg.Objective, score, best) {
					best = score
					from = h
					improved = true
				} else {
					d[c] = from
				}
			}
			d[c] = from
		}
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				ci, cj := comps[i], comps[j]
				hi, hj := d[ci], d[cj]
				if hi == hj {
					continue
				}
				d[ci], d[cj] = hj, hi
				if err := check.Check(s, d); err != nil {
					d[ci], d[cj] = hi, hj
					continue
				}
				score := cfg.Objective.Quantify(s, d)
				if objective.Better(cfg.Objective, score, best) {
					best = score
					improved = true
				} else {
					d[ci], d[cj] = hi, hj
				}
			}
		}
		if !improved {
			break
		}
	}
	return d, best
}

// BenchmarkSwapDelta compares one bounded Swap improvement run through
// the incremental delta evaluator ("delta") against the full
// check-and-requantify loop it replaced ("full") on a 10-host/50-component
// architecture.
func BenchmarkSwapDelta(b *testing.B) {
	s, d := benchSystem(b, 10, 50)
	cfg := Config{Objective: objective.Availability{}, Trials: 3}
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&Swap{}).Run(context.Background(), s, d, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			swapFullBaseline(s, d, cfg, 3)
		}
	})
}

// BenchmarkStochasticParallel measures the same trial budget executed
// serially and across all cores; the resulting deployments are
// bit-identical by construction.
func BenchmarkStochasticParallel(b *testing.B) {
	s, d := benchSystem(b, 20, 200)
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	} else {
		// Single-core machine: measure pool overhead instead of speedup.
		workerCounts = append(workerCounts, 4)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{Objective: objective.Availability{}, Seed: 1, Trials: 64, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := (&Stochastic{}).Run(context.Background(), s, d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantify times Availability's Quantify at 20×400 on a cached
// dense view, and right after a Touch, which makes it re-read the view's
// values.
func BenchmarkQuantify(b *testing.B) {
	s, d := benchSystem(b, 20, 400)
	q := objective.Availability{}
	b.Run("cached", func(b *testing.B) {
		s.Dense() // build outside the timed loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Quantify(s, d)
		}
	})
	b.Run("touched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Touch()
			q.Quantify(s, d)
		}
	})
}

// BenchmarkSwapDegradationAware runs three Swap passes at 20×200 under
// the stock checker and under DegradationAware with no degraded host.
// The wrapper reaches the incremental checker through its inner
// checker, so the two should cost about the same.
func BenchmarkSwapDegradationAware(b *testing.B) {
	s, d := benchSystem(b, 20, 200)
	for _, c := range []struct {
		name  string
		check ConstraintChecker
	}{{"stock", nil}, {"aware", DegradationAware{Current: d}}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{Objective: objective.Availability{}, Constraints: c.check, Trials: 3}
			for i := 0; i < b.N; i++ {
				if _, err := (&Swap{}).Run(context.Background(), s, d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
