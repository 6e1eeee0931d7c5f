package framework

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dif/internal/algo/decap"
	"dif/internal/analyzer"
	"dif/internal/effector"
	"dif/internal/model"
	"dif/internal/monitor"
	"dif/internal/objective"
	"dif/internal/prism"
)

// Decentralized is the framework's decentralized instantiation (DSN'04
// Figure 3): every host keeps a local model limited by its awareness of
// other hosts, monitors only itself, runs a DecAp agent, and coordinates
// acceptance with the other analyzers by voting. Every host carries its
// own local effector (a deployer component), so redeployment needs no
// central coordinator.
type Decentralized struct {
	World     *World
	Awareness decap.Awareness
	// LocalModels is each host's awareness-limited model subset.
	LocalModels map[model.HostID]*model.System
	Trackers    map[model.HostID]*monitor.Tracker
	// Deployment is each host's (shared, converged) placement view; the
	// in-process simulation keeps one authoritative copy.
	Deployment model.Deployment
	// Quorum is the voting threshold for accepting a redeployment.
	Quorum float64
	// Protocol selects how the analyzers coordinate acceptance: "poll"
	// (default — each host accepts unless the candidate worsens its
	// local score) or "vote" (hosts vote for the best-scoring proposal;
	// the winner needs the quorum). DSN'04 §5.2: "the analyzer uses
	// either the voting or the polling protocol".
	Protocol string
	// SyncMessages counts model-synchronization messages exchanged.
	SyncMessages int

	// Coordinator is the host elected to lead the current round (the
	// auction's mutual-exclusion anchor and the recovery path's
	// restoration site). Elected by probing, not configuration: a
	// partitioned or dead coordinator deterministically times out of its
	// round and the survivors elect the next candidate.
	Coordinator model.HostID
	// RoundTimeouts counts coordinator rounds that timed out because the
	// coordinator was unreachable.
	RoundTimeouts int
	// ProbeBudget is how many ping probes decide a candidate's
	// reachability; the "round timeout" is this probe budget draining,
	// not a wall-clock timer, so election is deterministic. Zero selects
	// DefaultProbeBudget.
	ProbeBudget int
	// Excluded marks hosts the survivors have written out of the
	// protocol: crashed hosts and hosts no probe can reach. Excluded
	// hosts neither auction, bid, vote, nor receive components.
	Excluded map[model.HostID]bool

	EnactTimeout time.Duration
}

// DefaultProbeBudget is the probe count per reachability check.
const DefaultProbeBudget = 3

// NewDecentralized wires the decentralized instantiation over a live
// world built with DeployerPerHost. Awareness nil selects link awareness.
func NewDecentralized(w *World, aware decap.Awareness) *Decentralized {
	if aware == nil {
		aware = decap.LinkAwareness{}
	}
	d := &Decentralized{
		World:        w,
		Awareness:    aware,
		LocalModels:  make(map[model.HostID]*model.System, len(w.Archs)),
		Trackers:     make(map[model.HostID]*monitor.Tracker, len(w.Archs)),
		Deployment:   w.LiveDeployment(),
		Quorum:       0.5,
		Excluded:     make(map[model.HostID]bool),
		EnactTimeout: 10 * time.Second,
	}
	for _, h := range w.Sys.HostIDs() {
		d.LocalModels[h] = localSubset(w.Sys, h, aware)
		d.Trackers[h] = monitor.NewTracker(0, 0)
	}
	return d
}

// localSubset extracts the part of the global model a host can see: the
// parameters of the hosts it is aware of, the links among them, and every
// component (the component catalogue is design-time knowledge; runtime
// parameters are refined by monitoring). Every world host is named, with
// no parameter and no link where it is not visible, so that components
// placed on it score as placed rather than undeployed.
func localSubset(sys *model.System, h model.HostID, aware decap.Awareness) *model.System {
	visible := map[model.HostID]bool{h: true}
	for _, nb := range aware.Neighbors(sys, h) {
		visible[nb] = true
	}
	sub := model.NewSystem()
	sub.Constraints = sys.Constraints.Clone()
	for id, host := range sys.Hosts {
		var params model.Params
		if visible[id] {
			params = host.Params
		}
		sub.AddHost(id, params)
	}
	for id, comp := range sys.Components {
		sub.AddComponent(id, comp.Params)
	}
	for pair, link := range sys.Links {
		if visible[pair.A] && visible[pair.B] {
			if _, err := sub.AddLink(pair.A, pair.B, link.Params); err != nil {
				continue
			}
		}
	}
	for pair, link := range sys.Interacts {
		if _, err := sub.AddInteraction(pair.A, pair.B, link.Params); err != nil {
			continue
		}
	}
	return sub
}

// MonitorLocal runs each live host's local monitoring: every surviving
// admin reports on its own host and the data is folded into that host's
// local model.
func (d *Decentralized) MonitorLocal() int {
	written := 0
	for _, h := range d.World.Sys.HostIDs() {
		if d.World.HostDown(h) || d.Excluded[h] {
			continue
		}
		rep := d.World.Admins[h].Report(true)
		applier := monitor.NewApplier(d.LocalModels[h], d.Trackers[h])
		written += applier.Apply(rep, d.Deployment)
	}
	return written
}

// participating reports whether a host takes part in the protocol: alive
// and not written out by the survivors.
func (d *Decentralized) participating(h model.HostID) bool {
	return !d.World.HostDown(h) && !d.Excluded[h]
}

// ElectCoordinator picks the round's coordinator by probing. Candidates
// are the participating hosts in sorted order, rotated by the number of
// past round timeouts; a candidate no surviving peer can reach drains its
// probe budget (a deterministic round timeout, counted in RoundTimeouts),
// is excluded, and the next candidate stands. This is how the protocol
// survives a dead or partitioned auctioneer: its round times out and the
// survivors re-elect instead of hanging.
func (d *Decentralized) ElectCoordinator() (model.HostID, error) {
	var hosts []model.HostID
	for _, h := range d.World.Sys.HostIDs() {
		if d.participating(h) {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return "", fmt.Errorf("decentralized election: no participating hosts")
	}
	probes := d.ProbeBudget
	if probes <= 0 {
		probes = DefaultProbeBudget
	}
	start := d.RoundTimeouts % len(hosts)
	for i := 0; i < len(hosts); i++ {
		cand := hosts[(start+i)%len(hosts)]
		if d.Excluded[cand] {
			continue // excluded by an earlier iteration this round
		}
		// The candidate is reachable if ANY surviving peer's probes get
		// through — single lossy links must not masquerade as a dead
		// coordinator; a genuinely partitioned or crashed one is dark to
		// every survivor.
		reachable := false
		probed := false
		for _, h := range hosts {
			if h == cand || d.Excluded[h] {
				continue
			}
			bus := d.World.Archs[h].DistributionConnector(BusName)
			if bus == nil {
				continue
			}
			probed = true
			if bus.PingN(cand, probes) > 0 {
				reachable = true
				break
			}
		}
		if reachable || !probed {
			// !probed: single participating host coordinates itself.
			d.Coordinator = cand
			return cand, nil
		}
		// Probe budget drained with no delivery: the candidate's round
		// times out and the survivors write it out of the protocol.
		d.RoundTimeouts++
		if d.Excluded == nil {
			d.Excluded = make(map[model.HostID]bool)
		}
		d.Excluded[cand] = true
	}
	return "", fmt.Errorf("decentralized election: no reachable coordinator")
}

// SyncModels exchanges model data between mutually aware hosts (the
// Decentralized Model synchronization of Figure 3): each host pushes its
// locally monitored link parameters to its neighbors. Returns the number
// of synchronization messages sent.
func (d *Decentralized) SyncModels() int {
	msgs := 0
	for _, h := range d.World.Sys.HostIDs() {
		local := d.LocalModels[h]
		for _, nb := range d.Awareness.Neighbors(d.World.Sys, h) {
			remote, ok := d.LocalModels[nb]
			if !ok {
				continue
			}
			msgs++
			// Push h's incident-link knowledge to the neighbor.
			for pair, link := range local.Links {
				if pair.A != h && pair.B != h {
					continue
				}
				if rl := remote.Links[pair]; rl != nil {
					rl.Params = link.Params.Clone()
				}
			}
			// Push h's interaction knowledge.
			for pair, link := range local.Interacts {
				if rl := remote.Interacts[pair]; rl != nil {
					rl.Params = link.Params.Clone()
				}
			}
			// The writes above bypass the Modifier, so the neighbor's
			// cached dense values must be invalidated by hand.
			remote.Touch()
		}
	}
	d.SyncMessages += msgs
	return msgs
}

// sortedDests returns a destination→moves grouping's keys in sorted
// order so per-host enactment (and its span tree) is deterministic.
func sortedDests(byDst map[model.HostID][]effector.Move) []model.HostID {
	dsts := make([]model.HostID, 0, len(byDst))
	for dst := range byDst {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	return dsts
}

// Cycle runs one decentralized round: local monitoring, model sync, the
// DecAp auction, the analyzers' vote, and local enactment of the moves.
func (d *Decentralized) Cycle(ctx context.Context) (Report, error) {
	rep := Report{Mode: ModeDecentralized}
	cyc := d.World.Tracer().Start("cycle")
	cyc.SetAttr("mode", string(ModeDecentralized))

	mon := cyc.Child("monitor")
	rep.ParamsWritten = d.MonitorLocal()
	rep.SyncMessages = d.SyncModels()
	mon.SetAttr("written", rep.ParamsWritten).SetAttr("syncs", rep.SyncMessages)
	mon.End()
	rep.AvailabilityBefore = objective.Availability{}.Quantify(d.World.Sys, d.Deployment)

	// Every round starts with a coordinator election: a dead or
	// partitioned would-be auctioneer deterministically times out here
	// (probe budget, not wall clock) and is excluded before the auction.
	elect := cyc.Child("elect")
	coord, err := d.ElectCoordinator()
	if err != nil {
		elect.SetAttr("outcome", "error")
		elect.End()
		err = fmt.Errorf("decentralized cycle: %w", err)
		rep.finish(cyc, d.World.Obs(), err)
		return rep, err
	}
	elect.SetAttr("coordinator", string(coord)).SetAttr("timeouts", d.RoundTimeouts)
	elect.End()

	// The auction runs over the global system restricted by awareness —
	// exactly the knowledge the synchronized local models hold — minus
	// the hosts the survivors have written out.
	plSp := cyc.Child("plan")
	dec := decap.New(decap.Config{Awareness: d.Awareness, Exclude: d.Excluded})
	res, err := dec.Run(ctx, d.World.Sys, d.Deployment)
	if err != nil {
		plSp.SetAttr("outcome", "error")
		plSp.End()
		err = fmt.Errorf("decentralized cycle: %w", err)
		rep.finish(cyc, d.World.Obs(), err)
		return rep, err
	}
	rep.Auction = res.Stats

	// Each surviving host's analyzer scores the candidate with its local
	// model, then the analyzers coordinate acceptance with the configured
	// protocol. Dead and excluded hosts get no vote: the quorum is over
	// the survivors.
	proposals := make([]analyzer.Proposal, 0, len(d.LocalModels))
	localScores := make(map[model.HostID]float64, len(d.LocalModels))
	candScores := make(map[model.HostID]float64, len(d.LocalModels))
	for h, local := range d.LocalModels {
		if !d.participating(h) {
			continue
		}
		localScores[h] = objective.Availability{}.Quantify(local, d.Deployment)
		candScores[h] = objective.Availability{}.Quantify(local, res.Deployment)
		proposals = append(proposals, analyzer.Proposal{
			Host: h, Deployment: res.Deployment, Score: candScores[h],
		})
	}
	switch d.Protocol {
	case "vote":
		_, rep.VotePassed = analyzer.Vote(proposals, d.Quorum)
	default: // "poll"
		rep.VotePassed = analyzer.Poll(localScores, candScores, d.Quorum)
	}
	if !rep.VotePassed {
		plSp.SetAttr("outcome", "rejected").SetAttr("auctions", res.Stats.Auctions)
		plSp.End()
		rep.AvailabilityAfter = rep.AvailabilityBefore
		rep.finish(cyc, d.World.Obs(), nil)
		return rep, nil
	}
	plSp.SetAttr("outcome", "accepted").SetAttr("auctions", res.Stats.Auctions)
	plSp.End()

	// Local effectors: each receiving host's deployer enacts its own
	// arrivals (in sorted destination order for deterministic traces).
	enSp := cyc.Child("enact")
	plan, err := effector.ComputePlan(d.World.Sys, d.Deployment, res.Deployment)
	if err != nil {
		enSp.SetAttr("outcome", "error")
		enSp.End()
		err = fmt.Errorf("decentralized plan: %w", err)
		rep.finish(cyc, d.World.Obs(), err)
		return rep, err
	}
	byDst := make(map[model.HostID][]effector.Move)
	for _, mv := range plan.Moves {
		byDst[mv.To] = append(byDst[mv.To], mv)
	}
	for _, dst := range sortedDests(byDst) {
		moves := byDst[dst]
		dep := d.localDeployer(dst)
		if dep == nil {
			enSp.SetAttr("outcome", "error")
			enSp.End()
			err = fmt.Errorf("decentralized enact: host %s has no deployer", dst)
			rep.finish(cyc, d.World.Obs(), err)
			return rep, err
		}
		en := &effector.PrismEnactor{Deployer: dep}
		enRep, err := en.Enact(effector.Plan{Moves: moves}, d.EnactTimeout)
		if err != nil {
			enSp.SetAttr("outcome", "error")
			enSp.End()
			err = fmt.Errorf("decentralized enact on %s: %w", dst, err)
			rep.finish(cyc, d.World.Obs(), err)
			return rep, err
		}
		rep.Moves += enRep.Moved
		rep.Received += enRep.Received
		rep.Degraded = rep.Degraded || enRep.Degraded
	}
	rep.Enacted = rep.Moves > 0
	enSp.SetAttr("outcome", "done").SetAttr("moves", rep.Moves)
	enSp.End()
	d.Deployment = res.Deployment.Clone()
	rep.AvailabilityAfter = objective.Availability{}.Quantify(d.World.Sys, d.Deployment)
	rep.finish(cyc, d.World.Obs(), nil)
	return rep, nil
}

// Recover replans after a host death (the host must already be
// fail-stopped via World.CrashHost). The survivors elect a coordinator,
// the dead host's components are restored from origin copies onto the
// coordinator, every surviving local model marks the host Down, and one
// auction round spreads the restored components over the survivors —
// without the acceptance vote: recovery is not optional.
func (d *Decentralized) Recover(ctx context.Context, dead model.HostID) (Report, error) {
	rep := Report{Mode: ModeDecentralized, VotePassed: true} // recovery bypasses the acceptance protocols
	rec := d.World.Tracer().Start("recover")
	rec.SetAttr("mode", string(ModeDecentralized)).SetAttr("dead", string(dead))
	d.World.Obs().Counter("framework_recoveries_total").Inc()
	d.World.Sys.SetHostDown(dead, true)
	if d.Excluded == nil {
		d.Excluded = make(map[model.HostID]bool)
	}
	d.Excluded[dead] = true
	for h, local := range d.LocalModels {
		if h == dead {
			continue
		}
		local.SetHostDown(dead, true)
	}

	elect := rec.Child("elect")
	coord, err := d.ElectCoordinator()
	if err != nil {
		elect.SetAttr("outcome", "error")
		elect.End()
		err = fmt.Errorf("decentralized recover: %w", err)
		rep.finish(rec, d.World.Obs(), err)
		return rep, err
	}
	elect.SetAttr("coordinator", string(coord)).SetAttr("timeouts", d.RoundTimeouts)
	elect.End()

	restore := rec.Child("restore")
	lost := d.Deployment.ComponentsOn(dead)
	for _, comp := range lost {
		if err := d.World.PlaceComponent(comp, coord); err != nil {
			restore.SetAttr("outcome", "error")
			restore.End()
			err = fmt.Errorf("decentralized recover: restore %s: %w", comp, err)
			rep.finish(rec, d.World.Obs(), err)
			return rep, err
		}
		d.Deployment[comp] = coord
	}
	restore.SetAttr("restored", len(lost))
	restore.End()
	rep.AvailabilityBefore = objective.Availability{}.Quantify(d.World.Sys, d.Deployment)

	plSp := rec.Child("plan")
	dec := decap.New(decap.Config{Awareness: d.Awareness, Exclude: d.Excluded})
	res, err := dec.Run(ctx, d.World.Sys, d.Deployment)
	if err != nil {
		plSp.SetAttr("outcome", "error")
		plSp.End()
		err = fmt.Errorf("decentralized recover: %w", err)
		rep.finish(rec, d.World.Obs(), err)
		return rep, err
	}
	rep.Auction = res.Stats
	plSp.SetAttr("outcome", "accepted").SetAttr("auctions", res.Stats.Auctions)
	plSp.End()

	enSp := rec.Child("enact")
	plan, err := effector.ComputePlan(d.World.Sys, d.Deployment, res.Deployment)
	if err != nil {
		enSp.SetAttr("outcome", "error")
		enSp.End()
		err = fmt.Errorf("decentralized recover plan: %w", err)
		rep.finish(rec, d.World.Obs(), err)
		return rep, err
	}
	byDst := make(map[model.HostID][]effector.Move)
	for _, mv := range plan.Moves {
		byDst[mv.To] = append(byDst[mv.To], mv)
	}
	for _, dst := range sortedDests(byDst) {
		moves := byDst[dst]
		dep := d.localDeployer(dst)
		if dep == nil {
			enSp.SetAttr("outcome", "error")
			enSp.End()
			err = fmt.Errorf("decentralized recover: host %s has no deployer", dst)
			rep.finish(rec, d.World.Obs(), err)
			return rep, err
		}
		en := &effector.PrismEnactor{Deployer: dep}
		enRep, err := en.Enact(effector.Plan{Moves: moves}, d.EnactTimeout)
		if err != nil {
			enSp.SetAttr("outcome", "error")
			enSp.End()
			err = fmt.Errorf("decentralized recover enact on %s: %w", dst, err)
			rep.finish(rec, d.World.Obs(), err)
			return rep, err
		}
		rep.Moves += enRep.Moved
		rep.Received += enRep.Received
		rep.Degraded = rep.Degraded || enRep.Degraded
	}
	rep.Enacted = rep.Moves > 0
	enSp.SetAttr("outcome", "done").SetAttr("moves", rep.Moves)
	enSp.End()
	d.Deployment = res.Deployment.Clone()
	rep.AvailabilityAfter = objective.Availability{}.Quantify(d.World.Sys, d.Deployment)
	rep.finish(rec, d.World.Obs(), nil)
	return rep, nil
}

// Rejoin folds a restarted host back into the protocol: the world-level
// restart (fresh architecture, bumped incarnation) must already have
// happened via World.RestartHost. The host's exclusion is lifted, its
// Down mark cleared everywhere, and its local model and tracker rebuilt
// from scratch — a restarted host's pre-crash knowledge died with it.
func (d *Decentralized) Rejoin(h model.HostID) error {
	if d.World.HostDown(h) {
		return fmt.Errorf("decentralized rejoin: host %s is still down", h)
	}
	d.World.Sys.SetHostDown(h, false)
	delete(d.Excluded, h)
	for _, local := range d.LocalModels {
		local.SetHostDown(h, false)
	}
	d.LocalModels[h] = localSubset(d.World.Sys, h, d.Awareness)
	d.Trackers[h] = monitor.NewTracker(0, 0)
	d.World.Obs().Counter("framework_rejoins_total").Inc()
	return nil
}

// localDeployer finds the deployer component on a host.
func (d *Decentralized) localDeployer(h model.HostID) *prism.DeployerComponent {
	comp := d.World.Archs[h].Component(prism.DeployerID)
	dep, ok := comp.(*prism.DeployerComponent)
	if !ok {
		return nil
	}
	return dep
}
