package main

import (
	"fmt"
	"sort"
)

// tailMinBeyond is the evidence rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const tailMinBeyond = 10

// tailSteps are the candidate tail percentiles, highest first.
var tailSteps = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// dist summarises one timing series: its median, and the highest
// percentile that still has tailMinBeyond samples beyond it.
type dist struct {
	N     int
	P50   float64
	P90   float64
	P99   float64
	Tail  float64 // value at TailP
	TailP float64 // 0.5 when the series is too short for any tail step
	Max   float64
}

// percentile returns the p-quantile of sorted by the nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailPercentile picks the highest step of tailSteps with at least
// tailMinBeyond samples beyond it; 0.5 when none qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailSteps {
		if float64(n)*(1-p) >= tailMinBeyond-1e-9 { // 100·(1−0.9) is 9.999…, not 10
			return p
		}
	}
	return 0.5
}

// summarize sorts a copy of samples and applies the reporting rule.
func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return dist{N: len(s), P50: percentile(s, 0.5), P90: percentile(s, 0.9), P99: percentile(s, 0.99), Tail: percentile(s, p), TailP: p, Max: s[len(s)-1]}
}

// median returns the nearest-rank median of samples (unsorted input).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func (d dist) String() string {
	return fmt.Sprintf("p50 %.4g  p%g %.4g  max %.4g  (n=%d)", d.P50, d.TailP*100, d.Tail, d.Max, d.N)
}
