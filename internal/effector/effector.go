// Package effector implements the platform-independent half of the
// framework's Effector component (DSN'04 §3.1): it receives the improved
// deployment architecture from the analyzer, computes the redeployment
// plan (the minimal set of component migrations), estimates its cost, and
// coordinates the redeployment process through an Enactor — the
// platform-dependent half (prism's Admin/Deployer components in the live
// system, or an instant model-level enactor during DeSi exploration).
package effector

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// Move is one component migration.
type Move struct {
	Comp   model.ComponentID
	From   model.HostID
	To     model.HostID
	SizeKB float64
}

// Plan is a validated, deterministic set of moves transforming one
// deployment into another.
type Plan struct {
	Moves []Move
}

// ComputePlan diffs current against target over system s. The target must
// be a complete, constraint-valid deployment; identical placements
// produce no move.
func ComputePlan(s *model.System, current, target model.Deployment) (Plan, error) {
	if err := current.Validate(s); err != nil {
		return Plan{}, fmt.Errorf("current deployment: %w", err)
	}
	if err := s.Constraints.Check(s, target); err != nil {
		return Plan{}, fmt.Errorf("target deployment: %w", err)
	}
	var plan Plan
	for comp, dst := range target {
		src := current[comp]
		if src == dst {
			continue
		}
		plan.Moves = append(plan.Moves, Move{
			Comp:   comp,
			From:   src,
			To:     dst,
			SizeKB: s.Components[comp].Memory(),
		})
	}
	sort.Slice(plan.Moves, func(i, j int) bool { return plan.Moves[i].Comp < plan.Moves[j].Comp })
	return plan, nil
}

// Empty reports whether the plan has no moves.
func (p Plan) Empty() bool { return len(p.Moves) == 0 }

// BytesKB returns the total component state to be shipped.
func (p Plan) BytesKB() float64 {
	total := 0.0
	for _, m := range p.Moves {
		total += m.SizeKB
	}
	return total
}

// CostEstimate predicts a plan's runtime cost (DeSi's "estimated time to
// effect a redeployment", §4.1).
type CostEstimate struct {
	Moves   int
	BytesKB float64
	// TransferMS is the estimated serial transfer time over the direct
	// links between each move's source and destination (mediated moves
	// are charged both hops through the mediator).
	TransferMS float64
	// Mediated counts moves whose endpoints are not directly connected.
	Mediated int
}

// EstimateCost predicts the plan's cost on system s. mediator is the
// host relaying transfers between unconnected endpoints (the deployer's
// host in the centralized instantiation); pass "" to charge unconnected
// moves a partition penalty instead.
func (p Plan) EstimateCost(s *model.System, mediator model.HostID) CostEstimate {
	est := CostEstimate{Moves: len(p.Moves), BytesKB: p.BytesKB()}
	for _, m := range p.Moves {
		if hopMS, ok := hopCost(s, m.From, m.To, m.SizeKB); ok {
			est.TransferMS += hopMS
			continue
		}
		est.Mediated++
		if mediator != "" {
			up, upOK := hopCost(s, m.From, mediator, m.SizeKB)
			down, downOK := hopCost(s, mediator, m.To, m.SizeKB)
			if upOK && downOK {
				est.TransferMS += up + down
				continue
			}
		}
		est.TransferMS += unreachableTransferMS
	}
	return est
}

// unreachableTransferMS is charged when no route (direct or mediated)
// exists for a move — the effector would have to wait for connectivity.
const unreachableTransferMS = 60_000

func hopCost(s *model.System, from, to model.HostID, sizeKB float64) (float64, bool) {
	if from == to {
		return 0, true
	}
	link := s.Link(from, to)
	if link == nil {
		return 0, false
	}
	bw := link.Bandwidth()
	if bw <= 0 {
		return 0, false
	}
	ms := sizeKB/bw*1000 + link.Delay()
	// Lossy links retransmit: scale by the expected number of attempts.
	if rel := link.Reliability(); rel > 0 && rel < 1 {
		ms /= rel
	}
	return ms, true
}

// Report summarizes an executed plan.
type Report struct {
	Moved int
	// Received counts components actually reconstituted at their
	// destinations; a clean wave has Received == Moved.
	Received int
	Elapsed  time.Duration
	// Degraded flags partial outcomes: the wave finished (or was rolled
	// back) without accounting for every move.
	Degraded bool
}

// Enactor executes redeployment plans — the platform-dependent half.
type Enactor interface {
	Enact(plan Plan, timeout time.Duration) (Report, error)
}

// ModelEnactor applies plans instantly to an in-memory deployment —
// DeSi's exploration mode, where redeployments are hypothetical.
type ModelEnactor struct {
	Deployment model.Deployment
}

var _ Enactor = (*ModelEnactor)(nil)

// Enact implements Enactor.
func (e *ModelEnactor) Enact(plan Plan, _ time.Duration) (Report, error) {
	for _, m := range plan.Moves {
		if cur, ok := e.Deployment[m.Comp]; !ok || cur != m.From {
			return Report{}, fmt.Errorf("model enactor: %s is on %s, plan expects %s",
				m.Comp, cur, m.From)
		}
	}
	for _, m := range plan.Moves {
		e.Deployment[m.Comp] = m.To
	}
	return Report{Moved: len(plan.Moves), Received: len(plan.Moves)}, nil
}

// PrismEnactor executes plans on a live Prism-MW system through its
// DeployerComponent.
type PrismEnactor struct {
	Deployer *prism.DeployerComponent
}

var _ Enactor = (*PrismEnactor)(nil)

// Enact implements Enactor.
func (e *PrismEnactor) Enact(plan Plan, timeout time.Duration) (Report, error) {
	start := time.Now()
	moves := make(map[string]model.HostID, len(plan.Moves))
	current := make(map[string]model.HostID, len(plan.Moves))
	for _, m := range plan.Moves {
		moves[string(m.Comp)] = m.To
		current[string(m.Comp)] = m.From
	}
	var res prism.EnactResult
	var err error
	obs.Profile(nil, "enact", func(context.Context) {
		res, err = e.Deployer.Enact(moves, current, timeout)
	})
	rep := Report{
		Moved:    res.Moved,
		Received: res.Received,
		Elapsed:  time.Since(start),
		Degraded: res.Degraded,
	}
	if err != nil {
		// Surface the partial report alongside the error: callers can see
		// how far the wave got before the rollback.
		return rep, fmt.Errorf("prism enactor: %w", err)
	}
	return rep, nil
}
