// Command bench is this repository's benchmark: four workloads over the
// three journeys (application event, redeployment, failover) and
// planning, with named end-to-end and per-layer metrics, output checks,
// and a separate traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// value is one metric in the machine-readable result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed of every generated input: models, placement, payload bytes, move choice")
		seconds  = flag.Float64("seconds", nominalSeconds, "measuring time; every phase length scales with seconds/20")
		scale    = flag.Float64("scale", 0, "alternative to -seconds: fraction of the nominal 20 s")
		trace    = flag.Int("trace", 0, "1 repeats the workload with obs.Registry, obs.Tracer and the benchmark's spans wired, and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace_<workload>.jsonl)")
		doList   = flag.Bool("list", false, "print every metric with unit, kind, workload and bound")
		doManif  = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
		repeatN  = flag.Int("repeat", 0, "run two sets of this many runs per workload (all, or the one named by -workload) and judge them against the bounds")
	)
	flag.Parse()
	switch {
	case *doList:
		list(os.Stdout)
		return 0
	case *doManif:
		out, err := manifest(int(nominalSeconds))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		os.Stdout.Write(out)
		return 0
	}
	if *repeatN > 0 {
		return repeat(*repeatN, *seconds, *workload)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, workloadNames())
		return 2
	}
	if *scale <= 0 {
		*scale = *seconds / nominalSeconds
	}
	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	e := newEnv(*seed, *scale, filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())), *trace != 0)
	defer os.RemoveAll(e.dir)
	fmt.Printf("# workload %s seed %d seconds %g trace %d\n", w.name, e.seed, e.scale*nominalSeconds, *trace)
	fmt.Printf("# %s, NumCPU %d, GOMAXPROCS %d; TCP loopback, not a real link; netsim time-scale %g\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), fabricTimeScale)
	// A run the data path has wedged must still end: the contract gives a
	// run 180 s, and nothing here legitimately needs more than 60.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s; giving up")
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := w.run(e); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if e.traced() {
		spans := e.rec.finish()
		path := *traceOut
		if path == "" {
			path = filepath.Join(buildDir, "trace_"+w.name+".jsonl")
		}
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := checkSpans(spans); err != nil {
			e.res.violate("trace: %v", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), path)
		printSelfTimes(spans)
	}
	return report(os.Stdout, e, *trace != 0)
}

// report prints what the run measured, then the result line, and returns
// the exit code: non-zero on any correctness violation.
func report(w io.Writer, e *env, traced bool) int {
	for _, n := range e.res.notes {
		fmt.Fprintln(w, "#", n)
	}
	units := make(map[string]string)
	for _, m := range append(append([]metricInfo(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	for _, name := range e.res.order {
		fmt.Fprintf(w, "%-46s %14.6g %s\n", name, e.res.values[name], units[name])
	}
	out := outcome{Correct: len(e.res.violations) == 0, Attempted: e.res.attempted, Failed: e.res.failed, Metrics: make(map[string]value)}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		v, ok := e.res.values[m.name]
		if !ok && !traced {
			e.res.violate("end-to-end metric %s was not measured", m.name)
			out.Correct = false
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	for _, v := range e.res.violations {
		fmt.Fprintln(os.Stderr, "bench: VIOLATION:", v)
	}
	if out.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", out.Failed, out.Attempted)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

// checkSpans verifies the shape of a trace: every operation has exactly
// one root span, and every non-root span's parent exists in its operation.
func checkSpans(spans []span) error {
	roots := make(map[string]int)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Op]++
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent].Op != s.Op {
			return fmt.Errorf("span %d (%s) of op %s has its parent in op %q", s.ID, s.Name, s.Op, byID[s.Parent].Op)
		}
		if roots[s.Op] != 1 {
			return fmt.Errorf("op %s has %d root spans", s.Op, roots[s.Op])
		}
	}
	return nil
}

// printSelfTimes prints the median self time of every span name: where
// the time of an operation went, layer by layer.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# self time  %-16s %-18s %12.1f us (median of %d)\n", self[n].layer, n, self[n].medianUS, self[n].n)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
