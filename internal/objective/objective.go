// Package objective implements the framework's objective functions and
// constraint checkers (DSN'04 §3.1 "Algorithm" and §4.3 "Algorithm"): the
// pluggable variation points every redeployment algorithm is parameterized
// by. An objective is either an optimization criterion (maximize
// availability, minimize latency) expressed as a Quantifier, or a
// constraint-satisfaction criterion expressed through model.Constraints.
package objective

import (
	"fmt"
	"math"

	"dif/internal/model"
)

// Direction states whether an objective is maximized or minimized.
type Direction int

// Objective directions.
const (
	Maximize Direction = iota + 1
	Minimize
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Maximize:
		return "maximize"
	case Minimize:
		return "minimize"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Quantifier scores a deployment of a system. Implementations must be
// pure: the same (system, deployment) pair always yields the same score,
// and Quantify must not mutate either argument.
type Quantifier interface {
	// Name identifies the objective ("availability", "latency", ...).
	Name() string
	// Direction states whether higher or lower scores are better.
	Direction() Direction
	// Quantify scores the deployment.
	Quantify(s *model.System, d model.Deployment) float64
}

// Better reports whether score a is strictly better than score b under
// the quantifier's direction.
func Better(q Quantifier, a, b float64) bool {
	if q.Direction() == Maximize {
		return a > b
	}
	return a < b
}

// Worst returns the worst possible score for the quantifier's direction
// (-Inf when maximizing, +Inf when minimizing), useful as an initial
// "best so far".
func Worst(q Quantifier) float64 {
	if q.Direction() == Maximize {
		return math.Inf(-1)
	}
	return math.Inf(1)
}

// Availability scores a deployment by the expected fraction of
// inter-component interactions that succeed:
//
//	A(D) = Σ freq(ci,cj)·rel(D(ci),D(cj)) / Σ freq(ci,cj)
//
// where rel is 1 for collocated components, the physical link's
// reliability for directly connected hosts, and 0 for disconnected hosts.
// This is the paper's primary dependability objective.
type Availability struct{}

var _ Quantifier = Availability{}

// Name implements Quantifier.
func (Availability) Name() string { return "availability" }

// Direction implements Quantifier.
func (Availability) Direction() Direction { return Maximize }

// Quantify implements Quantifier: the score a delta state starts from,
// summed over the dense view's edges in edge order.
func (a Availability) Quantify(s *model.System, d model.Deployment) float64 {
	return a.Begin(s, d).Score()
}

// Latency scores a deployment by the total expected communication latency
// per unit time:
//
//	L(D) = Σ freq(i,j)·( size(i,j)/bw(D(ci),D(cj)) + delay(D(ci),D(cj)) )
//
// in milliseconds (bandwidth is KB/s, so the transfer term is scaled to
// ms). Interactions across disconnected hosts are charged PartitionPenalty.
type Latency struct {
	// PartitionPenalty is the per-event latency (ms) charged when the
	// endpoints' hosts are not connected. Zero selects DefaultPartitionPenalty.
	PartitionPenalty float64
}

var _ Quantifier = Latency{}

// DefaultPartitionPenalty is the per-event charge (ms) for interactions
// whose endpoint hosts are disconnected: effectively an RPC timeout.
const DefaultPartitionPenalty = 10_000

// Name implements Quantifier.
func (Latency) Name() string { return "latency" }

// Direction implements Quantifier.
func (Latency) Direction() Direction { return Minimize }

// Quantify implements Quantifier: the score a delta state starts from,
// summed over the dense view's edges in edge order.
func (l Latency) Quantify(s *model.System, d model.Deployment) float64 {
	return l.Begin(s, d).Score()
}

// CommCost scores a deployment by the volume of remote communication per
// unit time (KB/s crossing host boundaries) — the objective minimized by
// I5 and Coign, provided as a baseline objective.
type CommCost struct{}

var _ Quantifier = CommCost{}

// Name implements Quantifier.
func (CommCost) Name() string { return "commCost" }

// Direction implements Quantifier.
func (CommCost) Direction() Direction { return Minimize }

// Quantify implements Quantifier. It sums over the dense view's edges in
// edge order, where an interaction of non-positive frequency weighs 0.
func (CommCost) Quantify(s *model.System, d model.Deployment) float64 {
	ds := s.Dense()
	assign := ds.Assign(d)
	total := 0.0
	for i, e := range ds.Edges {
		if a, b := assign[e.A], assign[e.B]; a >= 0 && b >= 0 && a != b {
			total += ds.Freq[i] * ds.Size[i]
		}
	}
	return total
}

// Security scores a deployment by the frequency-weighted security level of
// the links its interactions traverse (collocated interactions count as
// fully secure). It reads the extension parameter model.ParamSecurity from
// physical links, demonstrating the model's arbitrary-parameter
// extensibility (DSN'04 §1, extension dimension 1).
type Security struct{}

var _ Quantifier = Security{}

// Name implements Quantifier.
func (Security) Name() string { return "security" }

// Direction implements Quantifier.
func (Security) Direction() Direction { return Maximize }

// Quantify implements Quantifier. It sums over the dense view's edges in
// edge order, and looks up the link of each edge that crosses hosts.
func (Security) Quantify(s *model.System, d model.Deployment) float64 {
	ds := s.Dense()
	if ds.TotalFreq == 0 {
		return 1
	}
	assign := ds.Assign(d)
	num := 0.0
	for i, e := range ds.Edges {
		a, b := assign[e.A], assign[e.B]
		switch {
		case a < 0 || b < 0 || ds.Freq[i] == 0:
		case a == b:
			num += ds.Freq[i]
		default:
			if pl := s.Link(ds.Hosts[a], ds.Hosts[b]); pl != nil {
				num += ds.Freq[i] * pl.Params.Get(model.ParamSecurity)
			}
		}
	}
	return num / ds.TotalFreq
}
