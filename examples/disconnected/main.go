// Disconnected demonstrates queuing of remote calls (DSN'04 §6 lists it
// among the strategies that complement redeployment) with the mechanism
// that already does the job: a field unit's PDA loses its link to base,
// its stamped reports stay in the delivery layer's send window instead
// of vanishing, and once the link returns the delivery clock retransmits
// them and base handles each exactly once.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"dif/internal/model"
	"dif/internal/netsim"
	"dif/internal/prism"
)

// reportSink counts field reports received at base.
type reportSink struct {
	prism.BaseComponent
	received atomic.Int64
}

func newSink(id string) *reportSink {
	return &reportSink{BaseComponent: prism.NewBaseComponent(id)}
}

func (s *reportSink) Handle(e prism.Event) {
	if e.Kind == 0 || e.Kind == prism.KindApplication {
		s.received.Add(1)
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fabric := netsim.NewFabric(1)
	defer fabric.Close()
	link := netsim.LinkState{Reliability: 1, BandwidthKB: 500, Delay: 20 * time.Millisecond}
	if err := netsim.BuildChain(fabric, link, "field", "base"); err != nil {
		return err
	}

	newHost := func(h model.HostID) (*prism.Architecture, *prism.DistributionConnector, error) {
		arch := prism.NewArchitecture(h, nil)
		tr, err := prism.NewNetsimTransport(fabric, h)
		if err != nil {
			return nil, nil, err
		}
		bus, err := arch.AddDistributionConnector("bus", tr)
		if err != nil {
			return nil, nil, err
		}
		return arch, bus, nil
	}
	fieldArch, fieldBus, err := newHost("field")
	if err != nil {
		return err
	}
	baseArch, baseBus, err := newHost("base")
	if err != nil {
		return err
	}

	reporter := newSink("reporter") // emits; receives nothing
	if err := fieldArch.AddComponent(reporter); err != nil {
		return err
	}
	if err := fieldArch.Weld("reporter", "bus"); err != nil {
		return err
	}
	sink := newSink("sink")
	if err := baseArch.AddComponent(sink); err != nil {
		return err
	}
	if err := baseArch.Weld("sink", "bus"); err != nil {
		return err
	}

	monitor := prism.NewNetworkReliabilityMonitor(fieldBus)
	monitor.ProbesPerMeasurement = 10

	send := func(n int) {
		for i := 0; i < n; i++ {
			reporter.Emit(prism.Event{Name: "position-report", Target: "sink", SizeKB: 2})
		}
	}
	await := func(want int64) {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if sink.received.Load() >= want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// ticks beats the delivery clock a live process runs from its admin's
	// pump — base flushes its acks, the field unit retransmits what is
	// still unacked — up to n times, until the send window is empty. A
	// beat outlasts a round trip on the 20 ms link.
	ticks := func(n int) {
		for ; n > 0 && fieldBus.PendingAppEvents() > 0; n-- {
			baseBus.DeliveryTick()
			fieldBus.DeliveryTick()
			time.Sleep(60 * time.Millisecond)
		}
	}
	status := func() {
		fmt.Printf("  base handled %d reports, %d unacked in the field unit's send window\n",
			sink.received.Load(), fieldBus.PendingAppEvents())
	}

	fmt.Println("phase 1: connected — reports flow and are acknowledged")
	send(5)
	await(5)
	ticks(50)
	status()

	fmt.Println("phase 2: partition — reports wait in the send window")
	if err := fabric.SetPartitioned("field", "base", true); err != nil {
		return err
	}
	send(8)
	ticks(3) // retransmissions into the partition fail and stay pending
	status()
	sample := monitor.MeasureOnce()
	fmt.Printf("  reliability monitor sees base at %.2f\n", sample[0].Reliability)

	fmt.Println("phase 3: link returns — the next ticks deliver the backlog exactly once")
	if err := fabric.SetPartitioned("field", "base", false); err != nil {
		return err
	}
	sample = monitor.MeasureOnce()
	fmt.Printf("  reliability monitor sees base at %.2f\n", sample[0].Reliability)
	ticks(50)
	await(13)
	status()
	fmt.Println("  (5 live + 8 held through the partition)")
	return nil
}
