package objective

import (
	"dif/internal/model"
)

// Throughput scores a deployment by the fraction of the application's
// demanded communication volume the network can actually carry (the
// paper's §6 lists throughput among the characteristics to support
// beyond availability and latency). Each physical link has a bandwidth
// budget; the interactions routed over it demand freq·size KB/s. A
// link's deliverable volume is capped at its bandwidth, so overloaded
// links proportionally throttle the interactions crossing them:
//
//	T(D) = Σ_l min(demand_l, bw_l) + localDemand
//	       ─────────────────────────────────────
//	                  Σ totalDemand
//
// Collocated interactions always fit (score contribution 1); interactions
// across disconnected hosts deliver nothing.
type Throughput struct{}

var _ Quantifier = Throughput{}

// Name implements Quantifier.
func (Throughput) Name() string { return "throughput" }

// Direction implements Quantifier.
func (Throughput) Direction() Direction { return Maximize }

// deliveryUnit is one summand of the throughput ratio: a demanded volume
// and the portion of it the network carries, with delivered ≤ demand.
type deliveryUnit struct {
	demand    float64
	delivered float64
}

// Quantify implements Quantifier. Both sums run over the same ordered
// unit sequence (sorted interactions, then sorted overloaded links) with
// delivered ≤ demand pointwise, so every rounded partial delivered-sum
// is bounded by the matching demand-sum and the ratio is ≤ 1 exactly —
// and identical across runs regardless of map iteration order.
func (Throughput) Quantify(s *model.System, d model.Deployment) float64 {
	var units []deliveryUnit
	linkDemand := make(map[model.HostPair]float64)

	for _, link := range s.Interactions() {
		pair := link.Components
		volume := link.Frequency() * link.EventSize()
		if volume <= 0 {
			continue
		}
		ha, aok := d[pair.A]
		hb, bok := d[pair.B]
		switch {
		case !aok || !bok:
			// Undeployed endpoints deliver nothing.
			units = append(units, deliveryUnit{demand: volume})
		case ha == hb:
			// Local interactions always fit.
			units = append(units, deliveryUnit{demand: volume, delivered: volume})
		case s.Link(ha, hb) == nil:
			// Disconnected: nothing delivered.
			units = append(units, deliveryUnit{demand: volume})
		default:
			// Remote demand is capped per link, so it becomes one unit per
			// link below rather than one per interaction.
			linkDemand[model.MakeHostPair(ha, hb)] += volume
		}
	}
	for _, pair := range s.LinkKeys() {
		demand, ok := linkDemand[pair]
		if !ok {
			continue
		}
		delivered := demand
		if bw := s.Links[pair].Bandwidth(); demand > bw {
			delivered = bw
		}
		units = append(units, deliveryUnit{demand: demand, delivered: delivered})
	}

	var totalDemand, delivered float64
	for _, u := range units {
		totalDemand += u.demand
		delivered += u.delivered
	}
	if totalDemand == 0 {
		return 1
	}
	return delivered / totalDemand
}
