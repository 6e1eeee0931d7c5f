package prism

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/store"
)

// Deployer high availability: N deployers run simultaneously, exactly
// one active. Leadership is an agent-quorum lease — a candidate
// broadcasts a LeaseRequest carrying a monotonic fencing term to every
// agent admin and leads once a majority grants it. The term is stamped
// on every control frame the leader originates; agents reject frames
// from stale terms, so a paused-then-revived old leader cannot corrupt
// a wave (no split brain by construction: two leaders would need two
// majorities at the same term, and an agent grants a term once).
//
// The leader streams its durable checkpoint records to standbys, which
// apply them to their own local WAL; on lease expiry a standby
// campaigns, bumps the term, and runs the existing Resume() path —
// decided epochs are driven to commit, undecided ones aborted, never
// replanned and never renumbered.
const (
	EvLeaseRequest = "admin.leaseRequest"
	EvLeaseGrant   = "admin.leaseGrant"
	EvReplicate    = "admin.replicate"
	EvReplicateAck = "admin.replicateAck"
)

// LeaseRequest asks an agent to grant (or renew) this candidate's
// leadership lease at the given fencing term.
type LeaseRequest struct {
	Candidate model.HostID
	Term      uint64
	TTL       time.Duration
	// Renewal marks periodic extension of a lease already held, for the
	// renewal/rejection metric split; the grant rule does not depend on it.
	Renewal bool
}

// LeaseGrant is an agent's vote. A rejection carries the agent's
// current fence term, so a stale candidate (or a deposed leader
// receiving the fencing feedback an admin sends when it rejects a
// stale control frame) learns the term it must exceed.
type LeaseGrant struct {
	Host    model.HostID // the granting (or rejecting) agent
	Term    uint64
	Granted bool
}

// ReplRecord is one replicated checkpoint record: a WAL entry, as the
// store writes it.
type ReplRecord = store.Record

// ReplBatch streams a run of checkpoint records from the leader to a
// standby. Seq numbers the first record; Reset marks the leader's live
// state at position Seq (hydration): the standby replaces its WAL with
// exactly these records. An empty batch is a leader heartbeat for the
// standby's leader watch.
type ReplBatch struct {
	Leader  model.HostID
	Term    uint64
	Seq     uint64
	Reset   bool
	Records []ReplRecord
}

// ReplAck reports how far a standby has applied the leader's stream;
// the leader's next offer to it starts there.
type ReplAck struct {
	Host    model.HostID
	Term    uint64
	Applied uint64
}

// ErrNoQuorum marks a campaign that timed out before a strict majority
// of agents granted the lease. It is retryable: a standby keeps
// shadowing and campaigns again when its leader watch next fires.
var ErrNoQuorum = errors.New("prism: campaign timed out without an agent quorum")

// ErrNotLeader rejects wave-driving calls on a deployer that has not
// won (or has lost) the leadership lease.
var ErrNotLeader = errors.New("prism: deployer is not the leader")

// Leadership defaults.
const (
	DefaultLeaseTTL        = 2 * time.Second
	DefaultCampaignTimeout = 4 * time.Second
)

// LeaderConfig configures a deployer's participation in the leadership
// protocol.
type LeaderConfig struct {
	// Agents are the voting hosts (every host running an AdminComponent,
	// this one included). A lease needs a strict majority of them.
	Agents []model.HostID
	// Peers are the other deployer hosts — the replication targets.
	Peers []model.HostID
	// LeaseTTL bounds how long a grant fences out higher terms; zero
	// selects the default.
	LeaseTTL time.Duration
	// CampaignTimeout bounds one Campaign call, which keeps
	// re-broadcasting the same term every EnactResendInterval until quorum
	// or timeout (so lease expiry during the campaign is absorbed without
	// burning terms). Zero selects the default.
	CampaignTimeout time.Duration
	// Clock supplies every time read of the lease arithmetic and the
	// standby's leader watch (suspect after 2×LeaseTTL of silence, dead
	// after 4×); nil inherits the deployer's AdminConfig clock.
	Clock func() time.Time
}

func (c LeaderConfig) withDefaults(adminClock func() time.Time) LeaderConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.CampaignTimeout <= 0 {
		c.CampaignTimeout = DefaultCampaignTimeout
	}
	if c.Clock == nil {
		c.Clock = adminClock
	}
	return c
}

// Leadership is the shell around a deployer's leaseCore (lease.go): it
// feeds the core frames, calls and ticks, and performs its outputs —
// sends, term appends, offers filled from the store, ingest, and a
// campaign's end, which goes to the deployer loop that waits it out.
type Leadership struct {
	dep *DeployerComponent
	cfg LeaderConfig

	mu   sync.Mutex
	core leaseCore
}

// AttachLeadership wires the deployer into the leadership protocol. The
// fencing term persisted in the durable snapshot (if a store is
// attached) is restored, and the store's eager appends flush the
// replication stream. The leader watch starts now: a standby that hears no
// leader for 2×LeaseTTL suspects one, known or not. Call before the
// first Campaign.
func (d *DeployerComponent) AttachLeadership(cfg LeaderConfig) (*Leadership, error) {
	cfg = cfg.withDefaults(d.cfg.Clock)
	if len(cfg.Agents) == 0 {
		return nil, fmt.Errorf("prism: leadership needs a non-empty agent set")
	}
	ds := d.durable()
	var term uint64
	if ds != nil {
		term = ds.Term()
	}
	le := &Leadership{dep: d, cfg: cfg,
		core: newLeaseCore(d.arch.Host(), cfg.Agents, cfg.Peers, cfg.LeaseTTL, cfg.CampaignTimeout, term, cfg.Clock())}
	le.setTermGauge(term)
	d.mu.Lock()
	d.leadership = le
	d.mu.Unlock()
	if ds != nil {
		ds.mu.Lock()
		ds.replFlush = le.ReplicationTick
		ds.mu.Unlock()
	}
	return le, nil
}

// Leadership returns the attached leadership state (nil when the
// deployer runs solo, the legacy single-deployer mode).
func (d *DeployerComponent) Leadership() *Leadership {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.leadership
}

func (d *DeployerComponent) durable() *DeployerStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store
}

// deposed reports whether this deployer participates in leadership but
// does not currently hold it — the fencing condition for its own wave
// traffic. A solo deployer is never deposed.
func (d *DeployerComponent) deposed() bool {
	le := d.Leadership()
	return le != nil && !le.IsLeader()
}

// term returns the fencing term stamped on outgoing control frames
// (zero — the unfenced legacy value — without leadership).
func (d *DeployerComponent) term() uint64 {
	if le := d.Leadership(); le != nil {
		return le.Term()
	}
	return 0
}

// read returns f of the core, read under the lock.
func read[T any](le *Leadership, f func(*leaseCore) T) T {
	le.mu.Lock()
	defer le.mu.Unlock()
	return f(&le.core)
}

// Term returns the highest fencing term this deployer has seen.
func (le *Leadership) Term() uint64 { return read(le, func(c *leaseCore) uint64 { return c.term }) }

// IsLeader reports whether this deployer currently holds the lease.
func (le *Leadership) IsLeader() bool { return read(le, func(c *leaseCore) bool { return c.leading }) }

// Leader returns the last known leader host ("" before any is known).
func (le *Leadership) Leader() model.HostID {
	return read(le, func(c *leaseCore) model.HostID { return c.leader })
}

func (le *Leadership) setTermGauge(term uint64) {
	le.dep.arch.Obs().Gauge(obs.Name("prism_leader_term",
		"host", string(le.dep.arch.Host()))).Set(float64(term))
}

// Campaign runs one election round: it bumps the term past everything
// seen, persists it, and re-broadcasts the lease request at that SAME
// term until a majority of agents grant it or the timeout expires —
// agents whose previous lease has not yet expired reject at first and
// grant a later re-broadcast, without this candidate burning another
// term (keeping term numbers deterministic in seeded drills: one bump
// per leadership change). Returns whether the campaign won.
func (le *Leadership) Campaign() (bool, error) {
	sp := le.dep.arch.Tracer().Start("campaign")
	defer sp.End()
	return le.campaign(sp)
}

// campaign hands the campaign to the deployer loop, which re-broadcasts
// and waits out its deadline, and interprets its finish.
func (le *Leadership) campaign(sp *obs.Span) (bool, error) {
	d, ch := le.dep, make(chan leaseOutput, 1)
	d.post(func() {
		var open *campaign
		each(d, func(c *campaign) { open = c })
		if open != nil {
			// At most one campaign: a second bump of the term would
			// strand the first caller's record.
			open.waiters = append(open.waiters, ch)
			return
		}
		d.open(&campaign{le: le, waiters: []chan leaseOutput{ch}})
	}, true)
	f := <-ch
	sp.SetAttr("term", f.term).SetAttr("outcome", f.outcome)
	switch f.outcome {
	case "won":
		sp.SetAttr("grants", f.grants)
		return true, nil
	case "already_leading":
		return true, nil
	case "timeout":
		return false, fmt.Errorf("campaign for term %d: %w", f.term, ErrNoQuorum)
	case "closed":
		return false, fmt.Errorf("prism: deployer closed mid-campaign")
	}
	return false, nil // superseded: someone else won a later election
}

// campaign is the lease campaign's record in the deployer loop, with the
// Campaign callers awaiting its finish.
type campaign struct {
	pace
	le      *Leadership
	waiters []chan leaseOutput
}

func (c *campaign) open(d *DeployerComponent) {
	c.le.feed(leaseInput{kind: lCampaign})
	c.pace = d.phase(time.Now().Add(c.le.cfg.CampaignTimeout))
}

// tick re-broadcasts to the agents that have not granted, or times out.
func (c *campaign) tick(*DeployerComponent, bool) { c.le.feed(leaseInput{kind: lTick}) }

func (c *campaign) close(*DeployerComponent) { c.le.feed(leaseInput{kind: lClosed}) }

// feed steps the core at the store's position and performs its outputs.
func (le *Leadership) feed(in leaseInput) {
	in.now = time.Now()
	if in.at.IsZero() {
		in.at = le.cfg.Clock()
	}
	if ds := le.dep.durable(); ds != nil {
		in.pos = ds.position()
	}
	le.mu.Lock()
	outs := le.core.step(in)
	le.mu.Unlock()
	le.perform(outs)
}

func (le *Leadership) perform(outs []leaseOutput) {
	d := le.dep
	ds := d.durable()
	for _, o := range outs {
		switch o.kind {
		case lSend:
			_ = d.sender.send(o.to, o.ev)
		case lOffer:
			b := o.batch
			if ds != nil {
				b.Seq, b.Reset, b.Records = ds.offer(b.Seq - 1)
			}
			_ = d.sender.send(o.to, Event{Name: EvReplicate, Target: DeployerID, SizeKB: 0.3 + float64(len(b.Records))*0.2, Payload: b})
		case lAppend:
			if ds != nil {
				_ = ds.SaveTerm(o.term)
			}
			le.setTermGauge(o.term)
		case lIngest:
			var applied uint64
			if ds != nil {
				applied, _ = ds.Ingest(o.batch.Seq, o.batch.Reset, o.batch.Records)
			}
			_ = d.sender.send(o.batch.Leader, Event{Name: EvReplicateAck, Target: DeployerID, SizeKB: 0.2,
				Payload: ReplAck{Host: d.arch.Host(), Term: o.batch.Term, Applied: applied}})
		case lWon, lDeposed:
			d.arch.Obs().Counter(obs.Name("prism_leader_transitions_total", "host", string(d.arch.Host()))).Inc()
			if o.kind == lDeposed {
				continue
			}
			// Adopt the replicated epoch high-water mark: records ingested
			// while standing by advanced the store past the counter
			// AttachStore restored, and a resumed wave must never renumber.
			d.mu.Lock()
			if ds != nil {
				d.nextEpoch = max(d.nextEpoch, ds.NextEpoch())
			}
			d.mu.Unlock()
		case lFinish:
			d.post(func() {
				each(d, func(c *campaign) {
					d.drop(c)
					for _, ch := range c.waiters {
						ch <- o
					}
				})
			}, false)
		}
	}
}

// handle feeds the core a leadership frame's payload.
func (le *Leadership) handle(p any) {
	switch p := p.(type) {
	case LeaseGrant:
		le.feed(leaseInput{kind: lGrant, grant: p})
	case ReplBatch:
		le.feed(leaseInput{kind: lReplicate, batch: p})
	case ReplAck:
		le.feed(leaseInput{kind: lReplAck, ack: p})
	}
}

// Renew re-broadcasts the current lease at the held term (agents extend
// their expiry for the same holder). Only meaningful while leading.
func (le *Leadership) Renew() { le.feed(leaseInput{kind: lRenew}) }

// Failover is the standby's promotion path: campaign, and on victory
// run the deployer's existing Resume — decided epochs re-announce their
// persisted outcome, undecided ones abort, with the original epoch
// numbers. The span subtree (failover → campaign/resume) is the
// drill-visible trace of a leadership change.
func (le *Leadership) Failover() ([]ResumedWave, bool, error) {
	sp := le.dep.arch.Tracer().Start("failover")
	defer sp.End()
	csp := sp.Child("campaign")
	won, err := le.campaign(csp)
	csp.End()
	if !won {
		sp.SetAttr("outcome", "lost")
		return nil, false, err
	}
	rsp := sp.Child("resume")
	waves, rerr := le.dep.Resume()
	rsp.SetAttr("waves", len(waves))
	rsp.End()
	sp.SetAttr("outcome", "leading").SetAttr("term", le.Term())
	return waves, true, rerr
}

// LeaderSuspect reports whether the leader watch holds the leader silent
// at the given time — the campaign trigger. A host that is itself
// leading never suspects.
func (le *Leadership) LeaderSuspect(now time.Time) bool {
	return read(le, func(c *leaseCore) bool { return c.suspect(now) })
}

// ReplicationTick offers every peer the store's records it was not
// offered yet, or an empty heartbeat batch feeding its leader watch. The
// store invokes it after every eager append, strictly before any armed
// crash hook runs. Drive it periodically while leading: an ack moves a
// peer's next offer back to what it holds, so a lost batch is offered
// again, and one below the store's base gets the live state (a Reset).
func (le *Leadership) ReplicationTick() { le.feed(leaseInput{kind: lFlush}) }

// Synced reports whether the given peer has acknowledged the store's
// position (drills gate leader-kill on a converged standby).
func (le *Leadership) Synced(peer model.HostID) bool {
	var pos uint64
	if ds := le.dep.durable(); ds != nil {
		pos = ds.position()
	}
	return read(le, func(c *leaseCore) bool { return c.synced(peer, pos) })
}
