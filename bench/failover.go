package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/prism"
)

const (
	leaseTTL = 300 * time.Millisecond
	// fabricTimeScale is the wall-clock fraction of netsim's modelled
	// link delays: the failover numbers include this injected delay.
	fabricTimeScale = 0.001
	suspectPoll     = 5 * time.Millisecond
	requestEvery    = 20 * time.Millisecond
	requestTimeout  = 5 * time.Second
	trialLimit      = 30 * time.Second
	warmWaves       = 3
	// afterWaves is how many further one-component waves the new leader
	// runs back-to-back after its first commit, for the throughput metric.
	afterWaves = 50
)

// haWorld is the composition the failover drills prove: a netsim world
// with a fault decorator per host, one warm standby, durable stores, and
// the lease protocol on the wall clock.
type haWorld struct {
	w       *framework.World
	ha      *framework.HACluster
	master  model.HostID
	standby model.HostID
	current map[string]model.HostID
	stop    map[model.HostID]chan struct{}
	rng     *rand.Rand
	wg      sync.WaitGroup
}

func buildHAWorld(e *env, trial int) (*haWorld, error) {
	// Pinned so that a trial measures the control plane and not the draw:
	// no link loss (the only loss in a trial is the kill), a full mesh (no
	// wave needs the dead leader as a relay), and one bandwidth and delay
	// for every link (netsim charges transfers by size÷bandwidth, which
	// would otherwise vary 100× with the seed).
	gen := model.DefaultGeneratorConfig(5, 10)
	gen.Reliability = model.Range{Min: 1, Max: 1}
	gen.LinkDensity = 1
	gen.Bandwidth = model.Range{Min: 3000, Max: 3000}
	gen.Delay = model.Range{Min: 1, Max: 1}
	sys, dep, err := model.NewGenerator(gen, e.seed).Generate()
	if err != nil {
		return nil, err
	}
	w, err := framework.NewWorld(sys, dep, framework.WorldConfig{
		Seed: e.seed, Fault: &prism.FaultConfig{}, Obs: e.reg, Trace: e.tracer,
	})
	if err != nil {
		return nil, err
	}
	w.Fabric.SetTimeScale(fabricTimeScale)
	h := &haWorld{w: w, master: w.Master, standby: w.SlaveHosts()[0], current: make(map[string]model.HostID), stop: make(map[model.HostID]chan struct{}), rng: e.rng(int64(trial))}
	dirs := make(map[model.HostID]string)
	for _, host := range []model.HostID{h.master, h.standby} {
		if dirs[host], err = e.tempDir(fmt.Sprintf("ha%d-%s", trial, host)); err != nil {
			w.Close()
			return nil, err
		}
	}
	h.ha, err = w.EnableHA(framework.HAConfig{
		Standbys: []model.HostID{h.standby}, StateDirs: dirs,
		Lease: prism.LeaderConfig{LeaseTTL: leaseTTL},
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	for c, host := range dep {
		h.current[string(c)] = host
	}
	return h, nil
}

// startLeaseTicks drives Renew + ReplicationTick every TTL/3 on a
// deployer while it leads, as cmd/deployer does.
func (h *haWorld) startLeaseTicks(host model.HostID) {
	stop := make(chan struct{})
	h.stop[host] = stop
	lead := h.ha.Leads[host]
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(leaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if lead.IsLeader() {
					lead.Renew()
					lead.ReplicationTick()
				}
			case <-stop:
				return
			}
		}
	}()
}

func (h *haWorld) stopLeaseTicks(host model.HostID) {
	if stop, ok := h.stop[host]; ok {
		close(stop)
		delete(h.stop, host)
	}
}

func (h *haWorld) close() {
	for host := range h.stop {
		h.stopLeaseTicks(host)
	}
	h.wg.Wait()
	h.ha.Close()
	h.w.Close()
}

// moveOne enacts a one-component wave from the given deployer: a seeded
// choice among the components that live on neither deployer host, to
// another host that carries no deployer — so a wave never needs the dead
// leader as a participant.
func (h *haWorld) moveOne(from model.HostID, timeout time.Duration) (prism.EnactResult, error) {
	var comps []string
	for _, c := range h.w.Sys.ComponentIDs() {
		if at := h.current[string(c)]; at != h.master && at != h.standby {
			comps = append(comps, string(c))
		}
	}
	if len(comps) == 0 {
		return prism.EnactResult{}, errors.New("no component off the deployer hosts")
	}
	comp := comps[h.rng.Intn(len(comps))]
	var dsts []model.HostID
	for _, host := range h.w.Hosts() {
		if host != h.master && host != h.standby && host != h.current[comp] {
			dsts = append(dsts, host)
		}
	}
	dst := dsts[h.rng.Intn(len(dsts))]
	res, err := h.ha.Deps[from].Enact(map[string]model.HostID{comp: dst}, h.current, timeout)
	if err == nil && res.Committed {
		h.current[comp] = dst
	}
	return res, err
}

type failoverTrial struct {
	setupS      float64
	detectMS    float64
	campaignMS  float64
	commitMS    float64
	totalMS     float64
	unserved    int
	lost        int     // campaigns lost before the one that won
	afterPerSec float64 // committed waves per second after the first commit
}

// failoverOnce runs one trial on a fresh world: the leader campaigns and
// runs warm waves, the standby converges, the leader is killed, the
// standby detects, campaigns and commits its first wave.
func failoverOnce(e *env, mode string, trial int) (out failoverTrial, err error) {
	op := fmt.Sprintf("%s/trial%d", mode, trial)
	t0 := time.Now()
	h, err := buildHAWorld(e, trial)
	if err != nil {
		return out, err
	}
	defer h.close()
	out.setupS = time.Since(t0).Seconds()
	leadA, leadB := h.ha.Leads[h.master], h.ha.Leads[h.standby]
	if won, err := leadA.Campaign(); err != nil || !won {
		return out, fmt.Errorf("%s: initial campaign: won=%v err=%v", op, won, err)
	}
	h.startLeaseTicks(h.master)
	h.startLeaseTicks(h.standby)
	maxEpoch := 0
	for i := 0; i < warmWaves; i++ {
		res, err := h.moveOne(h.master, requestTimeout)
		if err != nil || !res.Committed {
			return out, fmt.Errorf("%s: warm wave %d: %+v err=%v", op, i, res, err)
		}
		if res.Epoch > maxEpoch {
			maxEpoch = res.Epoch
		}
	}
	deadline := time.Now().Add(trialLimit)
	for leadB.Term() != 1 {
		if time.Now().After(deadline) {
			return out, fmt.Errorf("%s: standby never reached term 1", op)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(leaseTTL) // one TTL of steady renewals, so the watch is armed and fresh
	oldTerm := leadA.Term()

	kill := time.Now()
	switch mode {
	case "crash":
		h.stopLeaseTicks(h.master) // the process is gone
		h.w.CrashHost(h.master)
	case "partition":
		for _, host := range h.w.Hosts() {
			if host != h.master {
				h.w.Faults[h.master].Partition(host, true)
			}
		}
	}
	for !leadB.LeaderSuspect(time.Now()) {
		if time.Now().After(deadline) {
			return out, fmt.Errorf("%s: standby never suspected the leader", op)
		}
		time.Sleep(suspectPoll)
	}
	suspect := time.Now()
	for {
		_, won, err := leadB.Failover()
		if won {
			break
		}
		if err != nil && !errors.Is(err, prism.ErrNoQuorum) {
			return out, fmt.Errorf("%s: failover: %w", op, err)
		}
		out.lost++
		if time.Now().After(deadline) {
			return out, fmt.Errorf("%s: no campaign won", op)
		}
	}
	won := time.Now()
	// Requests are due every requestEvery from the win; each is issued
	// when due and the previous attempt has returned.
	var first prism.EnactResult
	var commit time.Time
	type attempt struct{ start, end time.Time }
	var attempts []attempt
	for i := 0; ; i++ {
		if due := won.Add(time.Duration(i) * requestEvery); time.Until(due) > 0 {
			time.Sleep(time.Until(due))
		}
		a0 := time.Now()
		res, err := h.moveOne(h.standby, requestTimeout)
		attempts = append(attempts, attempt{a0, time.Now()})
		if err == nil && res.Committed {
			first, commit = res, time.Now()
			break
		}
		if time.Now().After(deadline) {
			return out, fmt.Errorf("%s: no wave committed under the new term (last: %+v err=%v)", op, res, err)
		}
	}
	out.detectMS = float64(suspect.Sub(kill)) / 1e6
	out.campaignMS = float64(won.Sub(suspect)) / 1e6
	out.commitMS = float64(commit.Sub(won)) / 1e6
	out.totalMS = float64(commit.Sub(kill)) / 1e6
	out.unserved = int(commit.Sub(won) / requestEvery)

	if !leadB.IsLeader() {
		return out, fmt.Errorf("%s: standby won but does not lead", op)
	}
	if mode == "crash" && !h.w.HostDown(h.master) {
		return out, fmt.Errorf("%s: master still up", op)
	}
	if got := leadB.Term(); got != oldTerm+1 {
		return out, fmt.Errorf("%s: term %d after failover, want %d", op, got, oldTerm+1)
	}
	if first.Epoch <= maxEpoch {
		return out, fmt.Errorf("%s: first epoch under the new term is %d, not above %d", op, first.Epoch, maxEpoch)
	}

	// After a fail-stop every wave keeps paying the retry chains toward
	// the dead host (about 2.3 s each), so the rate is taken on the
	// partition trials only.
	if mode == "partition" {
		a0 := time.Now()
		for i := 0; i < afterWaves; i++ {
			res, err := h.moveOne(h.standby, requestTimeout)
			if err != nil || !res.Committed {
				return out, fmt.Errorf("%s: wave %d after failover: %+v err=%v", op, i, res, err)
			}
		}
		out.afterPerSec = afterWaves / time.Since(a0).Seconds()
	}

	if e.traced() {
		root := e.rec.add(0, op, "bench", "failover_journey", kill, commit)
		e.rec.add(root, op, "prism.leader", "detect", kill, suspect)
		cid := e.rec.add(root, op, "prism.leader", "campaign", suspect, won)
		for _, rec := range e.tracer.Snapshot() {
			if rec.Name == "failover" && !rec.Start.Before(suspect) && !rec.End.After(won.Add(time.Millisecond)) {
				e.rec.adopt(cid, op, "prism.leader", rec)
			}
		}
		fid := e.rec.add(root, op, "prism.deployer", "first_commit", won, commit)
		for _, a := range attempts {
			e.rec.add(fid, op, "prism.deployer", "enact", a.start, a.end)
		}
	}
	return out, nil
}

// extraSetups builds and discards n more HA worlds and returns their
// build times: a trial builds one world, a run has seven trials, and a
// 3 ms build dominated by directory and file creation needs more samples
// than that for a steady median.
func extraSetups(e *env, n int) []float64 {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		h, err := buildHAWorld(e, 1000+i)
		if err != nil {
			e.res.violate("extra set-up %d: %v", i, err)
			continue
		}
		times = append(times, time.Since(t0).Seconds())
		h.close()
	}
	return times
}

type failoverPhase struct {
	total, detect, campaign, commit, after, setup []float64
	unserved, lost                                int
}

func failoverTrials(e *env, mode string, n int) failoverPhase {
	var p failoverPhase
	for i := 0; i < n; i++ {
		t, err := failoverOnce(e, mode, i)
		if err != nil {
			e.res.violate("%v", err)
			e.res.ops(1, 1)
			continue
		}
		e.res.ops(1, 0)
		p.total = append(p.total, t.totalMS)
		p.detect = append(p.detect, t.detectMS)
		p.campaign = append(p.campaign, t.campaignMS)
		p.commit = append(p.commit, t.commitMS)
		p.after = append(p.after, t.afterPerSec)
		p.setup = append(p.setup, t.setupS)
		p.unserved += t.unserved
		p.lost += t.lost
	}
	return p
}

func (p failoverPhase) report(res *result, mode string) {
	pre := "prism.leader."
	res.set(pre+"detect_ms_"+mode, median(p.detect))
	res.set(pre+"campaign_ms_"+mode, median(p.campaign))
	res.set(pre+"first_commit_ms_"+mode, median(p.commit))
	res.set(pre+"unserved_requests_"+mode, float64(p.unserved))
	res.set(pre+"campaigns_lost_"+mode, float64(p.lost))
	res.note("%s: kill→commit %v ms = detect %.1f + campaign %.1f + first commit %.1f", mode,
		summarize(p.total), median(p.detect), median(p.campaign), median(p.commit))
}

// runFailover is the HA journey: leader death → first commit under the
// new term, fail-stop (the paper's failure model) and by partition (the
// drill's mode).
func runFailover(e *env) error {
	if e.traced() {
		return tracedFailover(e)
	}
	crash := failoverTrials(e, "crash", e.count(3, 1))
	part := failoverTrials(e, "partition", e.count(4, 1))
	if len(crash.total) == 0 || len(part.total) == 0 {
		return fmt.Errorf("failover: a phase completed no trial: %v", e.res.violations)
	}
	e.res.set("setup_s", median(append(append(extraSetups(e, 20), crash.setup...), part.setup...)))
	e.res.set("failover_ms_p50", median(crash.total))
	e.res.set("failover_partition_ms_p50", median(part.total))
	crash.report(e.res, "crash")
	part.report(e.res, "partition")

	e.res.set("journey_ms_p50", median(part.total))
	e.res.set("ops_per_s", median(part.after))
	return nil
}

// tracedFailover is the traced run of failover: an untraced partition
// baseline, then both phases with the registry and tracer wired through
// WorldConfig.
func tracedFailover(e *env) error {
	plain := e.untraced()
	base := failoverTrials(plain, "partition", e.count(2, 1))
	crash := failoverTrials(e, "crash", e.count(2, 1))
	part := failoverTrials(e, "partition", e.count(3, 1))
	if len(base.total) == 0 || len(crash.total) == 0 || len(part.total) == 0 {
		return fmt.Errorf("failover: a phase completed no trial: %v", e.res.violations)
	}
	e.res.set("journey.failover_ms_p50", median(crash.total))
	e.res.set("journey.failover_partition_ms_p50", median(part.total))
	e.res.set("bench.trace_overhead_pct", (median(part.total)-median(base.total))/median(base.total)*100)
	crash.report(e.res, "crash")
	part.report(e.res, "partition")
	return nil
}
