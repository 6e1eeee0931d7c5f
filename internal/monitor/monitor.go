// Package monitor implements the platform-independent half of the
// framework's Monitor component (DSN'04 §3.1): it interprets the raw data
// the platform-dependent monitors (package prism) extract from a running
// system, decides when that data is stable enough to be passed on to the
// model, and applies it to the model.
//
// Stability follows the paper's rule: monitoring is performed in short
// intervals of adjustable duration, and the monitored data is stable once
// the difference in the data across a desired number of consecutive
// intervals is less than an adjustable value ε.
package monitor

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// StabilityDetector watches one scalar series sampled at interval
// boundaries and reports stability once the relative change across
// Windows consecutive samples stays below Epsilon.
type StabilityDetector struct {
	// Epsilon is the maximum relative delta considered stable.
	Epsilon float64
	// Windows is the number of consecutive stable deltas required.
	Windows int

	last       float64
	hasLast    bool
	stableRuns int
	samples    int
}

// DefaultEpsilon and DefaultWindows are the paper-inspired defaults: 5%
// tolerance over 3 consecutive intervals.
const (
	DefaultEpsilon = 0.05
	DefaultWindows = 3
)

// NewStabilityDetector returns a detector with the given tolerance; zero
// values select the defaults.
func NewStabilityDetector(epsilon float64, windows int) *StabilityDetector {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	if windows <= 0 {
		windows = DefaultWindows
	}
	return &StabilityDetector{Epsilon: epsilon, Windows: windows}
}

// Add feeds the next interval's sample and returns whether the series is
// now stable.
func (d *StabilityDetector) Add(v float64) bool {
	d.samples++
	if !d.hasLast {
		d.last = v
		d.hasLast = true
		return false
	}
	if relDelta(d.last, v) < d.Epsilon {
		d.stableRuns++
	} else {
		d.stableRuns = 0
	}
	d.last = v
	return d.Stable()
}

// Stable reports whether the last Windows deltas were all below Epsilon.
func (d *StabilityDetector) Stable() bool {
	return d.stableRuns >= d.Windows
}

// Samples returns how many samples the detector has seen.
func (d *StabilityDetector) Samples() int { return d.samples }

// Value returns the most recent sample.
func (d *StabilityDetector) Value() float64 { return d.last }

// Reset clears the detector (a regime change was acted upon).
func (d *StabilityDetector) Reset() {
	d.hasLast = false
	d.stableRuns = 0
	d.samples = 0
	d.last = 0
}

func relDelta(a, b float64) float64 {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 0
	}
	return math.Abs(a/denom - b/denom)
}

// Tracker multiplexes stability detectors over named parameters (one per
// monitored model parameter instance, e.g. "rel:hostA|hostB" or
// "freq:c1|c2"), gating which measurements are stable enough for the
// model.
type Tracker struct {
	mu        sync.Mutex
	epsilon   float64
	windows   int
	detectors map[string]*StabilityDetector
	// Staleness: when maxAge > 0, a parameter whose last sample is older
	// than maxAge stops counting as stable (and drops out of the stable
	// fraction) — readings from a crashed or partitioned host must not
	// keep vouching for the links and interactions it can no longer see.
	maxAge time.Duration
	now    func() time.Time
	lastAt map[string]time.Time

	// Nil-safe metric handles, wired by Instrument.
	samplesTotal *obs.Counter
	prunesTotal  *obs.Counter
	stableFrac   *obs.Gauge
}

// NewTracker returns a tracker with the given stability parameters (zero
// selects the defaults).
func NewTracker(epsilon float64, windows int) *Tracker {
	return &Tracker{
		epsilon:   epsilon,
		windows:   windows,
		detectors: make(map[string]*StabilityDetector),
		now:       time.Now,
		lastAt:    make(map[string]time.Time),
	}
}

// SetMaxSampleAge bounds how long a sample keeps a parameter eligible for
// stability; zero (the default) disables aging.
func (t *Tracker) SetMaxSampleAge(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxAge = d
}

// SetClock overrides the tracker's time source (tests).
func (t *Tracker) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// Instrument registers the tracker's sample and staleness counters plus
// a stable-fraction gauge in reg (nil disables instrumentation).
func (t *Tracker) Instrument(reg *obs.Registry) {
	t.mu.Lock()
	t.samplesTotal = reg.Counter("monitor_samples_total")
	t.prunesTotal = reg.Counter("monitor_stale_prunes_total")
	t.stableFrac = reg.Gauge("monitor_stable_fraction")
	t.mu.Unlock()
}

// stale reports whether the key's last sample has aged out. Caller holds
// t.mu.
func (t *Tracker) stale(key string, now time.Time) bool {
	if t.maxAge <= 0 {
		return false
	}
	at, ok := t.lastAt[key]
	return !ok || now.Sub(at) > t.maxAge
}

// Observe feeds a sample for the named parameter and returns whether that
// parameter is stable.
func (t *Tracker) Observe(key string, v float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.detectors[key]
	if !ok {
		d = NewStabilityDetector(t.epsilon, t.windows)
		t.detectors[key] = d
	}
	t.lastAt[key] = t.now()
	t.samplesTotal.Inc()
	return d.Add(v)
}

// Stable reports whether the named parameter is currently stable. A
// parameter whose last sample has aged out is never stable.
func (t *Tracker) Stable(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.detectors[key]
	return ok && d.Stable() && !t.stale(key, t.now())
}

// Value returns the latest sample for the named parameter; aged-out
// samples report not-present.
func (t *Tracker) Value(key string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.detectors[key]
	if !ok || d.Samples() == 0 || t.stale(key, t.now()) {
		return 0, false
	}
	return d.Value(), true
}

// AllStable reports whether every live (non-stale) parameter is stable
// (and at least one live parameter has been observed).
func (t *Tracker) AllStable() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	live := 0
	for key, d := range t.detectors {
		if t.stale(key, now) {
			continue
		}
		live++
		if !d.Stable() {
			return false
		}
	}
	return live > 0
}

// StableFraction returns the fraction of live (non-stale) parameters that
// are stable — the analyzer's system-stability signal. Aged-out
// parameters are excluded from the denominator: a dead host's silence
// should neither stabilize nor destabilize the survivors' profile.
func (t *Tracker) StableFraction() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	live, stable := 0, 0
	for key, d := range t.detectors {
		if t.stale(key, now) {
			continue
		}
		live++
		if d.Stable() {
			stable++
		}
	}
	if live == 0 {
		t.stableFrac.Set(0)
		return 0
	}
	frac := float64(stable) / float64(live)
	t.stableFrac.Set(frac)
	return frac
}

// PruneStale removes every aged-out parameter outright and returns the
// removed keys (sorted order not guaranteed). A no-op when aging is
// disabled.
func (t *Tracker) PruneStale() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxAge <= 0 {
		return nil
	}
	now := t.now()
	var removed []string
	for key := range t.detectors {
		if t.stale(key, now) {
			delete(t.detectors, key)
			delete(t.lastAt, key)
			removed = append(removed, key)
		}
	}
	t.prunesTotal.Add(float64(len(removed)))
	return removed
}

// Reset clears every detector.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.detectors = make(map[string]*StabilityDetector)
	t.lastAt = make(map[string]time.Time)
}

// Keys for tracker entries.

// LinkKey names the reliability series of a host pair.
func LinkKey(a, b model.HostID) string {
	p := model.MakeHostPair(a, b)
	return fmt.Sprintf("rel:%s|%s", p.A, p.B)
}

// FreqKey names the frequency series of a component pair.
func FreqKey(pair model.ComponentPair) string {
	return fmt.Sprintf("freq:%s|%s", pair.A, pair.B)
}

// Applier folds monitoring reports into the system model: observed
// interaction frequencies and event sizes update logical links, observed
// link reliabilities update physical links, and the reported component
// placements update the deployment. Only parameters the tracker deems
// stable are written (unstable data stays pending, per §3.1 "Monitor").
type Applier struct {
	sys     *model.System
	tracker *Tracker
}

// NewApplier returns an applier over the system using the tracker's
// stability gate. A nil tracker applies everything immediately.
func NewApplier(sys *model.System, tracker *Tracker) *Applier {
	return &Applier{sys: sys, tracker: tracker}
}

// Apply folds one host's report into the model and deployment. It
// returns the number of parameters written.
func (ap *Applier) Apply(rep prism.MonitoringReport, d model.Deployment) int {
	written := 0
	// Placement: authoritative, no stability gate (it is discrete).
	if d != nil {
		for _, comp := range rep.Components {
			d[model.ComponentID(comp)] = rep.Host
		}
	}
	// Link reliabilities.
	for _, ls := range rep.Links {
		if ls.Probes == 0 {
			continue
		}
		key := LinkKey(rep.Host, ls.Peer)
		if ap.tracker != nil && !ap.tracker.Observe(key, ls.Reliability) {
			continue
		}
		if link := ap.sys.Link(rep.Host, ls.Peer); link != nil {
			link.Params.Set(model.ParamReliability, ls.Reliability)
			written++
		}
	}
	// Interaction frequencies and sizes.
	for _, is := range rep.Interactions {
		key := FreqKey(is.Pair)
		if ap.tracker != nil && !ap.tracker.Observe(key, is.Frequency) {
			continue
		}
		link := ap.sys.Interaction(is.Pair.A, is.Pair.B)
		if link == nil {
			var err error
			link, err = ap.sys.AddInteraction(is.Pair.A, is.Pair.B, model.Params{})
			if err != nil {
				continue // endpoints unknown to the model
			}
		}
		link.Params.Set(model.ParamFrequency, is.Frequency)
		link.Params.Set(model.ParamEventSize, is.AvgSizeKB)
		written++
	}
	if written > 0 {
		// The writes above bypass the Modifier, so the system's cached
		// dense scoring matrices must be invalidated by hand.
		ap.sys.Touch()
	}
	return written
}
