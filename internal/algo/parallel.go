package algo

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Deterministic parallelism support. Randomized algorithms fan their
// independent units of work (Stochastic trials, Genetic population
// scoring) across a worker pool. Determinism for any worker count rests
// on two rules: every unit derives its RNG from splitmix64(seed, index)
// rather than sharing a sequential stream, and aggregation uses a total
// order (objective score, then lowest index) so the winner is independent
// of completion order.

// splitmix64 is the output function of Steele et al.'s SplitMix64
// generator: a bijective avalanche mix with good statistical properties,
// here used to derive independent per-index seeds from a base seed.
func splitmix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deriveSeed returns the RNG seed for unit `idx` of a run with base seed
// `seed`: the splitmix64 output at the (idx+1)-th state of a stream
// seeded with `seed`. Distinct indices give statistically independent
// streams, and the mapping depends only on (seed, idx) — never on which
// worker runs the unit.
func deriveSeed(seed int64, idx int) int64 {
	return int64(splitmix64(uint64(seed) + (uint64(idx)+1)*0x9E3779B97F4A7C15))
}

// workerCount resolves Config.Workers: zero (or negative) selects all
// available cores.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(w, i) for every i in [0, n) on up to `workers`
// goroutines, handing out indices through a shared counter; w is the
// calling goroutine's number in [0, workers), so fn may keep per-worker
// buffers. When ctx is cancelled it stops issuing new indices, waits for
// in-flight calls to drain, and returns ctx.Err(); indices not yet
// started are skipped. With workers <= 1 it runs inline with no
// goroutines.
func parallelFor(ctx context.Context, workers, n int, fn func(w, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
