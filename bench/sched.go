package main

import (
	"runtime"
	"time"
)

// schedule is an open-loop arrival schedule: operation i is due at
// start + i·interval whether or not earlier operations have finished, so
// a stall in the system shows up as latency on the operations behind it
// instead of as a lower offered rate.
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
}

func newSchedule(start time.Time, perSecond float64, length time.Duration) schedule {
	iv := time.Duration(float64(time.Second) / perSecond)
	return schedule{start: start, interval: iv, n: int(length / iv)}
}

// due is when operation i should be issued.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// lateness accounts for how far behind its schedule a generator ran.
type lateness struct {
	max time.Duration
	n   int
}

func (l *lateness) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > l.max {
		l.max = d
	}
	l.n++
}

func (l lateness) maxMS() float64 { return float64(l.max) / 1e6 }

// run issues every operation of the schedule from the calling goroutine:
// it waits until operation i is due, records how late it was issued, and
// calls op(i). When the generator falls behind it issues
// back-to-back until it has caught up — due times never move. Sleeps
// are used for waits above a millisecond and yields below, because the
// runtime's timer granularity is coarser than the intervals used here.
func (s schedule) run(op func(i int)) lateness {
	var late lateness
	for i := 0; i < s.n; i++ {
		due := s.due(i)
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			if wait > time.Millisecond {
				time.Sleep(wait - 500*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		late.add(time.Since(due))
		op(i)
	}
	return late
}
