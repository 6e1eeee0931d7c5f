package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := pyMedian(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// pyMedian is statistics.median: the mean of the middle two for an even
// count (the benchmark's own median is nearest-rank). values need not be
// sorted.
func pyMedian(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runSelf re-executes this binary for one run and parses its result line.
func runSelf(workload string, seed int64, seconds float64, trace int) (outcome, error) {
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return out, fmt.Errorf("%s seed %d: no result line (%v, exit: %v)", workload, seed, err, runErr)
	}
	return out, nil
}

// exactCounts are the layer metrics that must repeat exactly for a seed.
var exactCounts = []string{
	"prism.codec.wire_bytes_per_event",
	"algo.avala_evaluations", "algo.avala_nodes", "algo.stochastic_evaluations", "algo.stochastic_nodes",
	"algo.swap_iterations", "algo.swap_delta_evals",
}

// repeat runs two sets of n end-to-end runs of every workload (seeds
// 1..n in both) and reports, per end-to-end metric, both medians, their
// relative gap, each set's quartile spread, and pass/fail against the
// metric's bound. It also runs each workload traced once per set and
// compares the exact-count layer metrics. This is the check the driver
// applies to the benchmark itself.
func repeat(n int, seconds float64, only string) int {
	fail := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		var sets [2]map[string][]float64
		var traced [2]outcome
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 1; i <= n; i++ {
				out, err := runSelf(w.name, int64(i), seconds, 0)
				if err != nil || !out.Correct || out.Failed > 0 {
					fmt.Printf("%-14s set %d seed %d: FAILED run (%v, failed ops %d)\n", w.name, s+1, i, err, out.Failed)
					fail++
					continue
				}
				for name, v := range out.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
			var err error
			if traced[s], err = runSelf(w.name, 1, seconds, 1); err != nil || !traced[s].Correct {
				fmt.Printf("%-14s set %d: FAILED traced run (%v)\n", w.name, s+1, err)
				fail++
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := pyMedian(a), pyMedian(b)
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "PASS"
			if worse > m.bound || (m.name != "setup_s" && (sa > m.bound || sb > m.bound)) {
				verdict = "FAIL"
				fail++
			}
			fmt.Printf("%-14s %-16s median %12.6g | %12.6g %s  second worse by %+6.2f%%  spread %5.2f%% | %5.2f%%  bound %2.0f%%  %s\n",
				w.name, m.name, ma, mb, m.unit, worse*100, sa*100, sb*100, m.bound*100, verdict)
			fmt.Printf("%-14s %-16s   set 1 %s\n%-14s %-16s   set 2 %s\n", "", "", compact(a), "", "", compact(b))
		}
		for _, name := range exactCounts {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			if a == 0 && b == 0 {
				continue
			}
			verdict := "PASS"
			if a != b {
				verdict = "FAIL"
				fail++
			}
			fmt.Printf("%-14s %-42s exact %14.6g | %14.6g  %s\n", w.name, name, a, b, verdict)
		}
	}
	if fail > 0 {
		fmt.Printf("%d check(s) failed\n", fail)
		return 1
	}
	return 0
}

func compact(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
