package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The experiment generators are exercised end to end at small scale; the
// assertions pin the *shapes* the paper reports, not absolute numbers.

func TestE1ShapesHold(t *testing.T) {
	rows, err := RunE1(E1Config{Sizes: [][2]int{{4, 10}}, Seeds: 3, Trials: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Exact < r.Avala-1e-9 {
			t.Fatalf("seed %d: exact %.4f below avala %.4f — exact is not optimal",
				r.Seed, r.Exact, r.Avala)
		}
		if r.Exact < r.Stochastic-1e-9 {
			t.Fatalf("seed %d: exact %.4f below stochastic %.4f", r.Seed, r.Exact, r.Stochastic)
		}
		if r.AvalaSwap < r.Avala-1e-9 {
			t.Fatalf("seed %d: swap degraded avala %.4f → %.4f", r.Seed, r.Avala, r.AvalaSwap)
		}
		if r.Exact <= r.Initial {
			t.Fatalf("seed %d: no improvement over initial", r.Seed)
		}
	}
	var buf bytes.Buffer
	PrintE1(&buf, rows)
	if !strings.Contains(buf.String(), "4x10") {
		t.Fatalf("E1 table missing size row:\n%s", buf.String())
	}
}

func TestE3AwarenessShape(t *testing.T) {
	rows, err := RunE3(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Full awareness must not do worse than the lowest awareness level.
	if rows[3].DecAp < rows[0].DecAp-0.02 {
		t.Fatalf("full awareness %.4f below partial %.4f", rows[3].DecAp, rows[0].DecAp)
	}
	for _, r := range rows {
		if r.DecAp < r.Initial-1e-9 {
			t.Fatalf("awareness %.2f: decap degraded availability", r.Awareness)
		}
	}
	var buf bytes.Buffer
	PrintE3(&buf, rows)
	if !strings.Contains(buf.String(), "awareness") {
		t.Fatal("E3 table malformed")
	}
}

func TestE4RoutingPairMeasures(t *testing.T) {
	rows, err := RunE4Routing(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Monitors || !rows[1].Monitors {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.NsPerEvent <= 0 {
			t.Fatalf("ns/event = %v", r.NsPerEvent)
		}
	}
	var buf bytes.Buffer
	PrintE4(&buf, rows)
	if !strings.Contains(buf.String(), "routing overhead") {
		t.Fatalf("E4 summary missing:\n%s", buf.String())
	}
}

func TestE5CostGrowsWithMoves(t *testing.T) {
	rows, err := RunE5([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Moves != 1 || rows[1].Moves != 4 {
		t.Fatalf("moves = %d, %d", rows[0].Moves, rows[1].Moves)
	}
	if rows[1].BytesKB <= rows[0].BytesKB {
		t.Fatal("bytes did not grow with moves")
	}
	if rows[1].EstimatedMS <= rows[0].EstimatedMS {
		t.Fatal("estimate did not grow with moves")
	}
	var buf bytes.Buffer
	PrintE5(&buf, rows)
	if !strings.Contains(buf.String(), "moves") {
		t.Fatal("E5 table malformed")
	}
}

func TestE6GuardedLatency(t *testing.T) {
	rows, err := RunE6(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AvailAfter < r.AvailBefore {
			t.Fatalf("seed %d: availability degraded", r.Seed)
		}
		if r.Accepted {
			// The guard bounds accepted latency regressions to +15%.
			if r.LatencyBefore > 0 && r.LatencyAfter > r.LatencyBefore*1.151 {
				t.Fatalf("seed %d: accepted despite latency %+.1f%%",
					r.Seed, (r.LatencyAfter/r.LatencyBefore-1)*100)
			}
		}
		// The dedicated latency optimizer can only improve on the initial.
		if r.LatencyOptimized > r.LatencyBefore+1e-6 {
			t.Fatalf("seed %d: latency optimizer regressed", r.Seed)
		}
	}
	var buf bytes.Buffer
	PrintE6(&buf, rows)
	if !strings.Contains(buf.String(), "latency") {
		t.Fatal("E6 table malformed")
	}
}

func TestE7NoiseShape(t *testing.T) {
	rows := RunE7()
	// At fixed ε, more noise must not converge faster (totals comparison).
	byEps := map[float64][]E7Row{}
	for _, r := range rows {
		byEps[r.Epsilon] = append(byEps[r.Epsilon], r)
	}
	for eps, group := range byEps {
		for i := 1; i < len(group); i++ {
			if group[i].NoiseSigma > group[i-1].NoiseSigma &&
				group[i].MeanIntervals < group[i-1].MeanIntervals-1 {
				t.Fatalf("ε=%.2f: more noise converged meaningfully faster (%v → %v)",
					eps, group[i-1].MeanIntervals, group[i].MeanIntervals)
			}
		}
	}
	var buf bytes.Buffer
	PrintE7(&buf, rows)
	if !strings.Contains(buf.String(), "epsilon") {
		t.Fatal("E7 table malformed")
	}
}

func TestE9BothInstantiationsImprove(t *testing.T) {
	rows, err := RunE9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AvailAfter < r.AvailBefore-1e-9 {
			t.Fatalf("%s degraded availability %.4f → %.4f",
				r.Instantiation, r.AvailBefore, r.AvailAfter)
		}
	}
	// The decentralized protocol needs more coordination messages.
	if rows[1].CoordMsgs <= rows[0].CoordMsgs {
		t.Fatalf("decentralized coordination (%d msgs) not above centralized (%d)",
			rows[1].CoordMsgs, rows[0].CoordMsgs)
	}
	var buf bytes.Buffer
	PrintE9(&buf, rows)
	if !strings.Contains(buf.String(), "centralized") {
		t.Fatal("E9 table malformed")
	}
}

// TestE2ScalingShape pins E2's growth on deterministic node counts only:
// Exact is exponential in the component count, Avala polynomial, and
// Stochastic visits one node per trial at every size.
func TestE2ScalingShape(t *testing.T) {
	rows, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]int{}
	for _, r := range rows {
		nodes[fmt.Sprintf("%s %dx%d", r.Algorithm, r.Hosts, r.Comps)] = r.Nodes
		if r.Algorithm == "stochastic" && r.Nodes != 20 {
			t.Errorf("stochastic at %dx%d visited %d nodes, want its 20 trials", r.Hosts, r.Comps, r.Nodes)
		}
	}
	if small, large := nodes["exact 4x10"], nodes["exact 4x12"]; small == 0 || large < 10*small {
		t.Errorf("exact nodes %d at 10 components, %d at 12: want at least ×10", small, large)
	}
	if small, large := nodes["avala 5x50"], nodes["avala 20x400"]; small == 0 || large < 8*small || large > 512*small {
		t.Errorf("avala nodes %d at 5x50, %d at 20x400: want between ×8 and ×512", small, large)
	}
}
