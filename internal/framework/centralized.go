package framework

import (
	"context"
	"fmt"
	"math"
	"time"

	"dif/internal/analyzer"
	"dif/internal/effector"
	"dif/internal/model"
	"dif/internal/monitor"
	"dif/internal/objective"
)

// Centralized is the framework's centralized instantiation (DSN'04
// Figure 2): the master host maintains the global model, the master
// monitor gathers every slave monitor's data, the centralized analyzer
// selects and runs algorithms, and the master effector distributes
// redeployment commands to the slave effectors.
type Centralized struct {
	// Master is the master host: its deployer gathers reports and enacts
	// waves, its admin supplies the master's own report, and lost
	// components are restored onto it.
	Master *Host
	// Sys is the design-time system (the Centralized User Input); Model,
	// the master's copy of it, is what monitoring refines.
	Sys      *model.System
	Model    *model.System
	Analyzer *analyzer.Analyzer
	Tracker  *monitor.Tracker
	// Down reports whether a host is currently failed — a World's crash
	// marks, or a failure detector's verdict.
	Down func(model.HostID) bool
	// PerTick is the traffic rate scale restored components are placed
	// with (see Host.Place).
	PerTick float64

	// Deployment is the master's view of the current placement.
	Deployment model.Deployment

	// ReportTimeout and EnactTimeout bound the distributed phases.
	ReportTimeout time.Duration
	EnactTimeout  time.Duration

	// join, when set, plays the rejoining host's side of Rejoin. A netsim
	// world has no agent process to do it; over TCP the agent does.
	join func(model.HostID)
}

// NewCentralized wires the centralized instantiation over a live world.
func NewCentralized(w *World, policy analyzer.Policy) *Centralized {
	c := newCentralized(w.hosts[w.Master], w.Sys, w.LiveDeployment(), w.HostDown, policy)
	c.join = func(h model.HostID) {
		// Clear the deployer's detector state so the host's heartbeats
		// resurrect it rather than being discarded as a dead host's echo.
		if fd := w.Deployer.Detector(); fd != nil {
			fd.Observe(h, w.Incarnation(h))
		}
		// Level-triggered reconciliation: the rejoined agent reports its
		// (empty) manifest and generation zero; the deployer answers with one
		// full delta instead of replaying the waves the host missed.
		_ = w.Admins[h].AnnounceGoalState()
	}
	return c
}

// NewCentralizedOn wires the centralized instantiation over a master host
// however it was built — a World's, or a deployer process's TCP host. The
// master's model starts as a clone of the design-time system; monitoring
// refines it. deployment is the placement at this moment, and down the
// environment's failure verdict. The analyzer runs the default policy.
func NewCentralizedOn(master *Host, sys *model.System, deployment model.Deployment, down func(model.HostID) bool) *Centralized {
	return newCentralized(master, sys, deployment, down, analyzer.Policy{})
}

func newCentralized(master *Host, sys *model.System, deployment model.Deployment, down func(model.HostID) bool, policy analyzer.Policy) *Centralized {
	an := analyzer.New(nil, policy)
	an.Instrument(master.Arch.Obs())
	return &Centralized{
		Master:        master,
		Sys:           sys,
		Model:         sys.Clone(),
		Analyzer:      an,
		Tracker:       monitor.NewTracker(0, 0),
		Down:          down,
		PerTick:       1,
		Deployment:    deployment,
		ReportTimeout: 5 * time.Second,
		EnactTimeout:  10 * time.Second,
	}
}

// Monitor runs the monitoring phase only: gather reports from every
// live slave and fold stable data into the centralized model. Crashed
// slaves are skipped outright rather than waited on.
func (c *Centralized) Monitor() (int, int, error) {
	var slaves []model.HostID
	for _, h := range c.Sys.HostIDs() {
		if h != c.Master.ID && !c.Down(h) {
			slaves = append(slaves, h)
		}
	}
	reports, err := c.Master.Deployer.RequestReports(slaves, c.ReportTimeout)
	if err != nil && len(reports) == 0 {
		return 0, 0, fmt.Errorf("centralized monitor: %w", err)
	}
	// The master's own local report is gathered directly.
	reports[c.Master.ID] = c.Master.Admin.Report(true)

	applier := monitor.NewApplier(c.Model, c.Tracker)
	written := 0
	for _, h := range c.Model.HostIDs() {
		rep, ok := reports[h]
		if !ok {
			continue
		}
		written += applier.Apply(rep, c.Deployment)
	}
	return len(reports), written, nil
}

// syncDegraded folds the deployer's gray-failure view into the
// centralized model: a grade (EvaluateHealth) moves limping hosts to
// HostDegraded and recovered ones back, and the degraded hosts become
// per-host soft penalties that steer planning off them without
// force-migrating what they still serve. Returns the number of degraded
// hosts.
func (c *Centralized) syncDegraded() int {
	c.Master.Deployer.EvaluateHealth()
	degraded := make(map[model.HostID]bool)
	for _, h := range c.Master.Deployer.DegradedHosts() {
		degraded[h] = true
	}
	n := 0
	for _, h := range c.Model.HostIDs() {
		penalty := 0.0
		if degraded[h] {
			penalty = 1
			n++
		}
		c.Model.SetHostDegraded(h, penalty)
	}
	return n
}

// Cycle runs one full monitor→analyze→redeploy round and reports what
// happened.
func (c *Centralized) Cycle(ctx context.Context) (Report, error) {
	rep := Report{Mode: ModeCentralized}
	cyc := c.Master.Arch.Tracer().Start("cycle")
	cyc.SetAttr("mode", string(ModeCentralized))

	mon := cyc.Child("monitor")
	gathered, written, err := c.Monitor()
	if err != nil {
		mon.SetAttr("outcome", "error")
		mon.End()
		rep.finish(cyc, c.Master.Arch.Obs(), err)
		return rep, err
	}
	rep.ReportsGathered = gathered
	rep.ParamsWritten = written
	rep.DegradedHosts = c.syncDegraded()
	mon.SetAttr("reports", gathered).SetAttr("written", written).
		SetAttr("degraded", rep.DegradedHosts)
	mon.End()
	// A nil tracker means monitoring data is applied ungated; treat the
	// system as fully stable.
	rep.Stability = 1.0
	if c.Tracker != nil {
		rep.Stability = c.Tracker.StableFraction()
	}
	// The analyzer's availability profile is the paper's second
	// stability signal: a flat availability history marks a stable
	// system even when individual parameters jitter (§5.1, "the analyzer
	// holds a record of the fluctuations in the system's availability").
	if hist := c.Analyzer.History(); len(hist) >= 2 {
		trend := c.Analyzer.AvailabilityTrend(5)
		historyStability := 1 - math.Min(1, trend/0.05)
		rep.Stability = math.Max(rep.Stability, historyStability)
	}
	rep.AvailabilityBefore = objective.Availability{}.Quantify(c.Model, c.Deployment)

	pl := cyc.Child("plan")
	dec, err := c.Analyzer.Analyze(ctx, c.Model, c.Deployment, rep.Stability)
	if err != nil {
		pl.SetAttr("outcome", "error")
		pl.End()
		err = fmt.Errorf("centralized analyze: %w", err)
		rep.finish(cyc, c.Master.Arch.Obs(), err)
		return rep, err
	}
	rep.Decision = dec
	if !dec.Accepted {
		pl.SetAttr("outcome", "rejected").SetAttr("reason", dec.Reason)
		pl.End()
		rep.AvailabilityAfter = rep.AvailabilityBefore
		rep.finish(cyc, c.Master.Arch.Obs(), nil)
		return rep, nil
	}
	pl.SetAttr("outcome", "accepted").SetAttr("algorithm", dec.Result.Algorithm)
	pl.End()

	en := cyc.Child("enact")
	plan, err := effector.ComputePlan(c.Model, c.Deployment, dec.Result.Deployment)
	if err != nil {
		en.SetAttr("outcome", "error")
		en.End()
		err = fmt.Errorf("centralized plan: %w", err)
		rep.finish(cyc, c.Master.Arch.Obs(), err)
		return rep, err
	}
	if plan.Empty() {
		en.SetAttr("outcome", "empty")
		en.End()
		rep.AvailabilityAfter = rep.AvailabilityBefore
		rep.finish(cyc, c.Master.Arch.Obs(), nil)
		return rep, nil
	}
	enactor := &effector.PrismEnactor{Deployer: c.Master.Deployer}
	enRep, err := enactor.Enact(plan, c.EnactTimeout)
	if err != nil {
		en.SetAttr("outcome", "error")
		en.End()
		err = fmt.Errorf("centralized enact: %w", err)
		rep.finish(cyc, c.Master.Arch.Obs(), err)
		return rep, err
	}
	rep.Enacted = true
	rep.Moves = enRep.Moved
	rep.Received = enRep.Received
	rep.Degraded = enRep.Degraded
	en.SetAttr("outcome", "done").SetAttr("moves", enRep.Moved)
	en.End()
	c.Deployment = dec.Result.Deployment.Clone()
	rep.AvailabilityAfter = objective.Availability{}.Quantify(c.Model, c.Deployment)
	rep.finish(cyc, c.Master.Arch.Obs(), nil)
	return rep, nil
}

// Recover runs the out-of-band recovery cycle after a host death (the
// host itself must already have been fail-stopped via World.CrashHost).
// The dead host is marked Down in the model so every constraint path
// excludes it; the components lost with it are restored from origin
// copies onto the master; then the analyzer replans onto the survivors,
// bypassing the churn hysteresis, and the resulting moves are enacted.
func (c *Centralized) Recover(ctx context.Context, dead model.HostID) (Report, error) {
	rep := Report{Mode: ModeCentralized}
	rec := c.Master.Arch.Tracer().Start("recover")
	rec.SetAttr("mode", string(ModeCentralized)).SetAttr("dead", string(dead))
	c.Master.Arch.Obs().Counter("framework_recoveries_total").Inc()
	c.Model.SetHostDown(dead, true)
	// The replan avoids limping survivors as well as the corpse.
	rep.DegradedHosts = c.syncDegraded()

	// Restore lost components from origin copies onto the master. They
	// were lost with the dead host; the master's factory registry can
	// re-instantiate them, and the replan below immediately spreads them
	// over the survivors.
	restore := rec.Child("restore")
	lost := c.Deployment.ComponentsOn(dead)
	for _, comp := range lost {
		if err := c.Master.Place(c.Sys, comp, c.PerTick); err != nil {
			restore.SetAttr("outcome", "error")
			restore.End()
			err = fmt.Errorf("centralized recover: restore %s: %w", comp, err)
			rep.finish(rec, c.Master.Arch.Obs(), err)
			return rep, err
		}
		// Out-of-band placement: the goal table follows the re-home, so a
		// resync before the recovery wave lands neither evicts the restored
		// copy nor hands the component back to the host that lost it.
		c.Master.Deployer.RelocateGoal(string(comp), TrafficTypeName, c.Master.ID)
		c.Deployment[comp] = c.Master.ID
	}
	restore.SetAttr("restored", len(lost))
	restore.End()
	rep.AvailabilityBefore = objective.Availability{}.Quantify(c.Model, c.Deployment)

	pl := rec.Child("plan")
	dec, err := c.Analyzer.Recover(ctx, c.Model, c.Deployment)
	if err != nil {
		pl.SetAttr("outcome", "error")
		pl.End()
		err = fmt.Errorf("centralized recover: %w", err)
		rep.finish(rec, c.Master.Arch.Obs(), err)
		return rep, err
	}
	rep.Decision = dec
	pl.SetAttr("outcome", "accepted").SetAttr("algorithm", dec.Result.Algorithm)
	pl.End()

	en := rec.Child("enact")
	plan, err := effector.ComputePlan(c.Model, c.Deployment, dec.Result.Deployment)
	if err != nil {
		en.SetAttr("outcome", "error")
		en.End()
		err = fmt.Errorf("centralized recover plan: %w", err)
		rep.finish(rec, c.Master.Arch.Obs(), err)
		return rep, err
	}
	if !plan.Empty() {
		enactor := &effector.PrismEnactor{Deployer: c.Master.Deployer}
		enRep, err := enactor.Enact(plan, c.EnactTimeout)
		if err != nil {
			en.SetAttr("outcome", "error")
			en.End()
			err = fmt.Errorf("centralized recover enact: %w", err)
			rep.finish(rec, c.Master.Arch.Obs(), err)
			return rep, err
		}
		rep.Enacted = true
		rep.Moves = enRep.Moved
		rep.Received = enRep.Received
		rep.Degraded = enRep.Degraded
		en.SetAttr("outcome", "done").SetAttr("moves", enRep.Moved)
	} else {
		en.SetAttr("outcome", "empty")
	}
	en.End()
	c.Deployment = dec.Result.Deployment.Clone()
	rep.AvailabilityAfter = objective.Availability{}.Quantify(c.Model, c.Deployment)
	rep.finish(rec, c.Master.Arch.Obs(), nil)
	return rep, nil
}

// Rejoin folds a restarted host back in: the restart itself (fresh
// architecture, bumped incarnation) must already have happened; Rejoin
// clears the Down mark in the master's model so the next estimation round
// may place components on the host again.
func (c *Centralized) Rejoin(h model.HostID) error {
	if c.Down(h) {
		return fmt.Errorf("centralized rejoin: host %s is still down", h)
	}
	c.Model.SetHostDown(h, false)
	if c.join != nil {
		c.join(h)
	}
	c.Master.Arch.Obs().Counter("framework_rejoins_total").Inc()
	return nil
}

// Verify cross-checks the master's deployment view against the live
// placement (test support and post-cycle sanity).
func (c *Centralized) Verify(live model.Deployment) error {
	if !live.Equal(c.Deployment) {
		return fmt.Errorf("centralized model out of sync: model %v, live %v", c.Deployment, live)
	}
	return nil
}
