package analyzer

import (
	"context"
	"fmt"
	"testing"

	"dif/internal/effector"
)

// BenchmarkReplan times one replan as it follows a monitor cycle: Touch
// (the dense values are re-read), Analyze at stability 0 (Stochastic
// under DegradationAware, on a fresh analyzer) and ComputePlan of its
// result — the op behind plan_scale's ops_per_s.
func BenchmarkReplan(b *testing.B) {
	for _, sz := range []struct{ hosts, comps int }{{20, 400}, {40, 800}} {
		b.Run(fmt.Sprintf("%dx%d", sz.hosts, sz.comps), func(b *testing.B) {
			s, d := genSystem(b, sz.hosts, sz.comps, 1)
			s.Dense() // a monitor cycle leaves the shape built; only Touch is timed
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Touch()
				dec, err := New(nil, Policy{}).Analyze(context.Background(), s, d, 0.0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := effector.ComputePlan(s, d, dec.Result.Deployment); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
