package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dif/internal/obs"
)

// nominalSeconds is the measuring time every phase length in this
// package is written for; -seconds rescales them all by seconds/nominal.
const nominalSeconds = 20.0

// env is what one workload run gets: its seed, its time budget, where it
// may write, and — in a traced run only — the observability handles.
type env struct {
	seed  int64
	scale float64 // seconds / nominalSeconds
	dir   string  // scratch directory for WALs, inside the checkout
	// Traced-run handles; all nil in an end-to-end run.
	reg    *obs.Registry
	tracer *obs.Tracer
	rec    *recorder

	res *result
}

func newEnv(seed int64, scale float64, dir string, traced bool) *env {
	e := &env{seed: seed, scale: scale, dir: dir, res: newResult()}
	if traced {
		e.reg, e.tracer, e.rec = obs.NewRegistry(), obs.NewTracer(), newRecorder()
	}
	return e
}

func (e *env) traced() bool { return e.rec != nil }

// span scales a nominal phase length to the run's budget.
func (e *env) span(nominal time.Duration) time.Duration {
	return time.Duration(float64(nominal) * e.scale)
}

// count scales a nominal operation count, never below min.
func (e *env) count(nominal, min int) int {
	n := int(float64(nominal)*e.scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// warmup is the untimed lead-in of every phase.
func (e *env) warmup() time.Duration {
	if e.scale >= 1 {
		return 500 * time.Millisecond
	}
	return time.Duration(float64(500*time.Millisecond) * e.scale)
}

func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// tempDir makes a fresh directory under the run's scratch directory.
func (e *env) tempDir(name string) (string, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.dir, name+"-")
}

// result accumulates what a run measured and what it found wrong.
type result struct {
	attempted  int64
	failed     int64
	violations []string
	values     map[string]float64
	order      []string
	notes      []string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = v
}

// add accumulates into a count metric.
func (r *result) add(name string, v float64) { r.set(name, r.values[name]+v) }

func (r *result) has(name string) bool {
	_, ok := r.values[name]
	return ok
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// violate records a correctness violation; any violation fails the run.
func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// ops counts operations attempted and, of those, failed.
func (r *result) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// medianSetup runs build n times, tearing down all but the last result,
// and returns the last build and the median build time in seconds.
// Set-up is milliseconds of work here, so a single timing would be
// mostly noise.
func medianSetup[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, median(times), nil
}

// allocCounter measures heap allocations between two points.
type allocCounter struct{ m0 runtime.MemStats }

func startAllocs() *allocCounter {
	a := &allocCounter{}
	runtime.ReadMemStats(&a.m0)
	return a
}

func (a *allocCounter) stop() (mallocs, bytes float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - a.m0.Mallocs), float64(m1.TotalAlloc - a.m0.TotalAlloc)
}

// buildDir is where everything the benchmark writes goes: inside the
// checkout, and named in .gitignore.
const buildDir = ".bench_build"
