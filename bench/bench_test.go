package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule itself: at least tailMinBeyond samples lie beyond.
		if p := tailPercentile(c.n); p > 0.5 && float64(c.n)*(1-p) < tailMinBeyond-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", c.n, p*100, tailMinBeyond)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	d := summarize(samples)
	if d.N != 1000 || d.P50 != 500 || d.P90 != 900 || d.P99 != 990 || d.TailP != 0.99 || d.Tail != 990 || d.Max != 1000 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
	if samples[0] != 1000 {
		t.Error("summarize reordered its input")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(v, n=4) → (q3-q1)/median, computed with Python 3.
	v := []float64{1.0, 2.5, 3.1, 4.7, 5.2, 6.9, 7.3, 8.8, 9.1, 10.4}
	if got, want := quartileSpread(v), 0.9793388429752065; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestScheduleIsOpenLoop(t *testing.T) {
	start := time.Now().Add(2 * time.Millisecond)
	s := newSchedule(start, 1000, 50*time.Millisecond)
	if s.n != 50 || s.interval != time.Millisecond {
		t.Fatalf("schedule = %+v", s)
	}
	var dues []time.Time
	stall := 10 * time.Millisecond
	late := s.run(func(i int) {
		dues = append(dues, s.due(i))
		if i == 10 {
			time.Sleep(stall) // the system stalls; the schedule must not move
		}
	})
	if len(dues) != s.n {
		t.Fatalf("issued %d of %d", len(dues), s.n)
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * time.Millisecond); !d.Equal(want) {
			t.Fatalf("op %d due %v, want %v: due times drifted", i, d, want)
		}
	}
	// Operation 11 was due 1 ms into the stall, so the generator was at
	// least stall-1ms late for it, and lateness accounting must say so.
	if late.max < stall-time.Millisecond {
		t.Errorf("max lateness %v after a %v stall", late.max, stall)
	}
	if late.n != s.n {
		t.Errorf("lateness counted %d ops, want %d", late.n, s.n)
	}
	if end := time.Since(start); end > 200*time.Millisecond {
		t.Errorf("schedule of 50 ms took %v: it did not catch up after the stall", end)
	}
}

func TestLatenessNeverNegative(t *testing.T) {
	var l lateness
	l.add(-time.Second)
	l.add(3 * time.Millisecond)
	if l.max != 3*time.Millisecond || l.n != 2 {
		t.Errorf("lateness = %+v", l)
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	render := func(seed int64) string {
		e := &env{seed: seed, scale: 0.02, res: newResult()}
		var b bytes.Buffer
		for _, p := range newPayloadPool(e) {
			b.Write(p)
		}
		models, err := generateModels(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range models {
			for _, m := range size {
				for _, c := range m.sys.ComponentIDs() {
					fmt.Fprintf(&b, "%s@%s %v;", c, m.initial[c], m.sys.Components[c].Params)
				}
				for _, k := range m.sys.LinkKeys() {
					fmt.Fprintf(&b, "%v %v;", k, m.sys.Link(k.A, k.B).Params)
				}
				for _, k := range m.sys.InteractionKeys() {
					fmt.Fprintf(&b, "%v %v;", k, m.sys.Interaction(k.A, k.B).Params)
				}
			}
		}
		fmt.Fprint(&b, e.rng(3).Int63(), e.rng(3).Int63())
		return b.String()
	}
	a, b, c := render(7), render(7), render(8)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated the same inputs")
	}
}

func TestSeqSet(t *testing.T) {
	var s seqSet
	for _, seq := range []uint64{1, 2, 5, 4, 3, 7} {
		if !s.add(seq) {
			t.Errorf("add(%d) reported a duplicate", seq)
		}
	}
	for _, seq := range []uint64{2, 5, 7} {
		if s.add(seq) {
			t.Errorf("add(%d) accepted a duplicate", seq)
		}
	}
	if s.floor != 5 || len(s.above) != 1 || s.complete(7) {
		t.Errorf("set = %+v", s)
	}
	s.add(6)
	if !s.complete(7) {
		t.Errorf("set %+v is not complete at 7", s)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := newRecorder()
	at := func(us int) time.Time { return r.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := r.add(0, "op", "bench", "root", at(0), at(100))
	r.add(root, "op", "l1", "a", at(10), at(40))
	r.add(root, "op", "l2", "b", at(30), at(60))  // overlaps a: the union counts once
	r.add(root, "op", "l3", "c", at(90), at(130)) // runs past the parent: clipped
	spans := r.finish()
	if got := spans[0].SelfUS; math.Abs(got-40) > 1e-6 {
		t.Errorf("root self time %.3f us, want 40 (100 - [10,60] - [90,100])", got)
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	r.add(0, "op", "bench", "second_root", at(0), at(1))
	if checkSpans(r.finish()) == nil {
		t.Error("two roots in one op went unnoticed")
	}
}

// TestManifest keeps BENCHMARK.json and the catalogue in step and inside
// the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want, err := manifest(int(nominalSeconds))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]metricInfo(nil), endToEnd...), perLayer...) {
		if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 || m.bound > 0.25 {
			t.Errorf("metric %+v breaks a limit or repeats a name", m)
		}
		seen[m.name] = true
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload, end to end and traced, at 1/50 of its
// nominal length, and checks that each prints every metric BENCHMARK.json
// names for that kind of run. The eight runs go concurrently from plain
// goroutines: half of them mostly sleep (failover waits out lease
// timeouts), and t.Parallel would cap them at GOMAXPROCS at a time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	type job struct {
		name   string
		errs   []string
		finish chan struct{}
	}
	var jobs []*job
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			j := &job{name: fmt.Sprintf("%s/traced=%v", w.name, traced), finish: make(chan struct{})}
			jobs = append(jobs, j)
			go func(w workloadInfo, traced bool, dir string) {
				defer close(j.finish)
				j.errs = smoke(w, traced, dir)
			}(w, traced, t.TempDir())
		}
	}
	for _, j := range jobs {
		<-j.finish
		for _, e := range j.errs {
			t.Errorf("%s: %s", j.name, e)
		}
	}
}

// smoke runs one workload at 1/50 scale and returns what is wrong with it.
func smoke(w workloadInfo, traced bool, dir string) (errs []string) {
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	e := newEnv(1, 0.02, dir, traced)
	if err := w.run(e); err != nil {
		fail("%v", err)
		return errs
	}
	if traced {
		if err := checkSpans(e.rec.finish()); err != nil {
			fail("%v", err)
		}
	}
	var out bytes.Buffer
	code := report(&out, e, traced)
	for _, v := range e.res.violations {
		fail("violation: %s", v)
	}
	if code != 0 {
		fail("exit code %d (failed ops %d of %d)", code, e.res.failed, e.res.attempted)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var got outcome
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		fail("last line is not the result object: %v", err)
		return errs
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(got.Metrics) != len(want) {
		fail("%d metrics in the result line, want %d", len(got.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := got.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			fail("metric %s: printed %v (present %v), want unit %q", m.name, v, ok, m.unit)
		}
		if traced && m.measuredBy(w.name) && !e.res.has(m.name) {
			fail("layer metric %s belongs to %s but was not measured", m.name, w.name)
		}
		if !traced && v.Value <= 0 {
			fail("end-to-end metric %s = %v, must be positive", m.name, v.Value)
		}
	}
	return errs
}
