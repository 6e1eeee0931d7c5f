// Adaptive demonstrates continuous autonomic operation: the network's
// link reliabilities fluctuate over time (random-walk jitter plus abrupt
// regime changes), the monitors' ε-stability detector gates when data
// reaches the model, and the analyzer picks cheaper algorithms while the
// system is unstable and better ones once it settles — redeploying only
// when the gain clears its hysteresis and the latency guard.
package main

import (
	"context"
	"fmt"
	"log"

	"dif/internal/analyzer"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/monitor"
	"dif/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := model.DefaultGeneratorConfig(5, 15)
	cfg.Reliability = model.Range{Min: 0.5, Max: 0.95}
	// Tight hosts: each holds only a few components, so no single-host
	// refuge exists and the placement problem stays interesting.
	cfg.HostMemory = model.Range{Min: 2048, Max: 3072}
	cfg.MemoryHeadroom = 1.2
	sys, initial, err := model.NewGenerator(cfg, 21).Generate()
	if err != nil {
		return err
	}

	world, err := framework.NewWorld(sys, initial, framework.WorldConfig{Seed: 5, Monitors: true})
	if err != nil {
		return err
	}
	defer world.Close()

	cent := framework.NewCentralized(world, analyzer.Policy{})
	// Reliability probes are Bernoulli samples: batch them generously so
	// sampling noise does not drown the ε-stability signal, and give the
	// tracker a tolerance matched to the remaining noise.
	world.SetProbes(400)
	cent.Tracker = monitor.NewTracker(0.12, 2)
	fluct := netsim.NewFluctuator(world.Fabric, 9)
	fluct.RegimeProb = 0 // quiet by default; we inject shocks explicitly
	fluct.WalkSigma = 0.01

	fmt.Println("epoch  stability  algorithm   accepted  avail(before→after)  note")
	shockAt := map[int]bool{4: true, 8: true}
	const calmAfter = 9 // the network settles for the final epochs
	for epoch := 1; epoch <= 14; epoch++ {
		note := ""
		if shockAt[epoch] {
			fluct.RegimeProb = 1
			fluct.Step()
			fluct.RegimeProb = 0
			note = "network regime change"
		}
		if epoch <= calmAfter {
			fluct.Step() // background jitter
		} else {
			note = "calm network"
		}
		world.StepN(10)

		rep, err := cent.Cycle(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %9.2f  %-10s  %-8v  %.4f → %.4f      %s\n",
			epoch, rep.Stability, rep.Decision.Algorithm, rep.Decision.Accepted,
			rep.AvailabilityBefore, rep.AvailabilityAfter, note)
	}

	hist := cent.Analyzer.History()
	accepted := 0
	for _, r := range hist {
		if r.Accepted {
			accepted++
		}
	}
	fmt.Printf("\n%d analysis rounds, %d redeployments; availability trend %.4f\n",
		len(hist), accepted, cent.Analyzer.AvailabilityTrend(0))
	return nil
}
