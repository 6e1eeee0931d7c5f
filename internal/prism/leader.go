package prism

import (
	"encoding/gob"
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

// ReplRecord is one replicated checkpoint record (a WAL entry).
type ReplRecord struct {
	Kind byte
	Data []byte
}

// ReplBatch streams a run of checkpoint records from the leader to a
// standby. Seq numbers the first record; Reset marks a batch that
// starts at the leader's base (a full live-state sync): the standby
// replaces its WAL with exactly this prefix. An empty batch is a
// leader heartbeat for the standby's leader watch.
type ReplBatch struct {
	Leader  model.HostID
	Term    uint64
	Seq     uint64
	Reset   bool
	Records []ReplRecord
}

// ReplAck reports how far a standby has applied the leader's stream;
// the leader retransmits the unacknowledged suffix.
type ReplAck struct {
	Host    model.HostID
	Term    uint64
	Applied uint64
}

func registerLeaderPayloads() {
	gob.Register(LeaseRequest{})
	gob.Register(LeaseGrant{})
	gob.Register(ReplBatch{})
	gob.Register(ReplAck{})
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
	// re-broadcasting the same term until quorum or timeout (so lease
	// expiry during the campaign is absorbed without burning terms).
	// Zero selects the default.
	CampaignTimeout time.Duration
	// RebroadcastInterval paces the campaign re-broadcast and is also the
	// natural cadence for ReplicationTick in live binaries. Zero selects
	// the admin layer's EnactResendInterval.
	RebroadcastInterval time.Duration
	// Watch is the standby-side leader failure detector policy; nil
	// selects a LeasePolicy scaled to the lease TTL. The detector runs
	// on Clock.
	Watch SuspicionPolicy
	// Clock supplies every time read (lease arithmetic, watch
	// observations); nil inherits the deployer's AdminConfig clock.
	Clock func() time.Time
}

func (c LeaderConfig) withDefaults(adminClock func() time.Time, resend time.Duration) LeaderConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.CampaignTimeout <= 0 {
		c.CampaignTimeout = DefaultCampaignTimeout
	}
	if c.RebroadcastInterval <= 0 {
		c.RebroadcastInterval = resend
	}
	if c.Clock == nil {
		c.Clock = adminClock
	}
	if c.Watch == nil {
		c.Watch = NewLeasePolicy(2*c.LeaseTTL, 4*c.LeaseTTL)
	}
	return c
}

// Leadership is a deployer's view of the election and replication
// state: its current fencing term, whether it leads, the leader-side
// replication log, and the standby-side leader watch.
type Leadership struct {
	dep *DeployerComponent
	cfg LeaderConfig

	mu      sync.Mutex
	term    uint64
	leading bool
	leader  model.HostID // last known leader (self while leading)
	// campaignTerm/grants/grantCh are live only during a Campaign call.
	campaignTerm uint64
	grants       map[model.HostID]bool
	grantCh      chan struct{}

	// Leader-side replication: records since the last leadership reset,
	// 1-based sequence numbers, per-peer acked high-water marks.
	replLog []ReplRecord
	acked   map[model.HostID]uint64

	// watch is the standby-side leader failure detector (term doubles as
	// the incarnation, so a new leader at a higher term "resurrects" the
	// watched identity).
	watch *FailureDetector
}

// AttachLeadership wires the deployer into the leadership protocol. The
// fencing term persisted in the durable snapshot (if a store is
// attached) is restored, and the store's append stream is tapped for
// replication. Call before the first Campaign.
func (d *DeployerComponent) AttachLeadership(cfg LeaderConfig) (*Leadership, error) {
	registerLeaderPayloadsOnce.Do(registerLeaderPayloads)
	cfg = cfg.withDefaults(d.cfg.Clock, d.cfg.EnactResendInterval)
	if len(cfg.Agents) == 0 {
		return nil, fmt.Errorf("prism: leadership needs a non-empty agent set")
	}
	le := &Leadership{
		dep:   d,
		cfg:   cfg,
		acked: make(map[model.HostID]uint64),
		watch: NewFailureDetector(cfg.Watch),
	}
	le.watch.SetClock(cfg.Clock)
	// Restore the persisted term before publishing le: once d.leadership
	// is visible, delivery goroutines read le.term under le.mu, and this
	// constructor must not keep writing it behind their back.
	d.mu.Lock()
	ds := d.store
	d.mu.Unlock()
	if ds != nil {
		le.term = ds.Term()
	}
	le.setTermGauge(le.term)
	d.mu.Lock()
	d.leadership = le
	d.mu.Unlock()
	if ds != nil {
		ds.SetReplicator(le.enqueue, le.flush)
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

// deposed reports whether this deployer participates in leadership but
// does not currently hold it — the fencing condition for its own wave
// traffic. A solo deployer is never deposed.
func (d *DeployerComponent) deposed() bool {
	d.mu.Lock()
	le := d.leadership
	d.mu.Unlock()
	if le == nil {
		return false
	}
	return !le.IsLeader()
}

// term returns the fencing term stamped on outgoing control frames
// (zero — the unfenced legacy value — without leadership).
func (d *DeployerComponent) term() uint64 {
	d.mu.Lock()
	le := d.leadership
	d.mu.Unlock()
	if le == nil {
		return 0
	}
	return le.Term()
}

// Term returns the highest fencing term this deployer has seen.
func (le *Leadership) Term() uint64 {
	le.mu.Lock()
	defer le.mu.Unlock()
	return le.term
}

// IsLeader reports whether this deployer currently holds the lease.
func (le *Leadership) IsLeader() bool {
	le.mu.Lock()
	defer le.mu.Unlock()
	return le.leading
}

// Leader returns the last known leader host ("" before any is known).
func (le *Leadership) Leader() model.HostID {
	le.mu.Lock()
	defer le.mu.Unlock()
	return le.leader
}

func (le *Leadership) setTermGauge(term uint64) {
	le.dep.arch.Obs().Gauge(obs.Name("prism_leader_term",
		"host", string(le.dep.arch.Host()))).Set(float64(term))
}

func (le *Leadership) transitionMetric() {
	le.dep.arch.Obs().Counter(obs.Name("prism_leader_transitions_total",
		"host", string(le.dep.arch.Host()))).Inc()
}

// quorum is the strict majority of the agent set.
func (le *Leadership) quorum() int { return len(le.cfg.Agents)/2 + 1 }

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

func (le *Leadership) campaign(sp *obs.Span) (bool, error) {
	d := le.dep
	le.mu.Lock()
	if le.leading {
		le.mu.Unlock()
		sp.SetAttr("term", le.Term()).SetAttr("outcome", "already_leading")
		return true, nil
	}
	le.term++
	term := le.term
	le.campaignTerm = term
	le.grants = make(map[model.HostID]bool, len(le.cfg.Agents))
	le.grantCh = make(chan struct{}, 1)
	le.mu.Unlock()
	sp.SetAttr("term", term)
	le.persistTerm(term)
	le.setTermGauge(term)

	req := Event{
		Name: EvLeaseRequest, Target: AdminID, SizeKB: 0.2,
		Payload: LeaseRequest{Candidate: d.arch.Host(), Term: term, TTL: le.cfg.LeaseTTL},
	}
	agents := append([]model.HostID(nil), le.cfg.Agents...)
	sortHostIDs(agents)
	broadcast := func() {
		for _, h := range agents {
			le.mu.Lock()
			voted := le.grants[h]
			le.mu.Unlock()
			if voted {
				continue
			}
			_ = d.sender.send(h, req)
		}
	}
	broadcast()
	deadline := time.NewTimer(le.cfg.CampaignTimeout)
	defer deadline.Stop()
	resend := time.NewTicker(le.cfg.RebroadcastInterval)
	defer resend.Stop()
	for {
		le.mu.Lock()
		if le.term != term {
			// A higher term appeared mid-campaign: someone else won a later
			// election. Stand down.
			le.campaignTerm = 0
			le.mu.Unlock()
			sp.SetAttr("outcome", "superseded")
			return false, nil
		}
		if len(le.grants) >= le.quorum() {
			le.leading = true
			le.leader = d.arch.Host()
			le.campaignTerm = 0
			le.resetReplLocked()
			le.mu.Unlock()
			le.transitionMetric()
			sp.SetAttr("outcome", "won").SetAttr("grants", len(agents))
			// Adopt the replicated epoch high-water mark: records ingested
			// while standing by advanced the store past the counter
			// AttachStore restored, and a resumed wave must never renumber.
			d.mu.Lock()
			if ds := d.store; ds != nil {
				if ne := ds.NextEpoch(); ne > d.nextEpoch {
					d.nextEpoch = ne
				}
			}
			d.mu.Unlock()
			// Prime the freshly won replication state toward every peer so
			// standbys converge without waiting for the first wave.
			le.flush()
			return true, nil
		}
		le.mu.Unlock()
		select {
		case <-le.grantCh:
		case <-resend.C:
			broadcast()
		case <-deadline.C:
			le.mu.Lock()
			le.campaignTerm = 0
			le.mu.Unlock()
			sp.SetAttr("outcome", "timeout")
			return false, fmt.Errorf("campaign for term %d: %w", term, ErrNoQuorum)
		case <-d.stop:
			le.mu.Lock()
			le.campaignTerm = 0
			le.mu.Unlock()
			sp.SetAttr("outcome", "closed")
			return false, fmt.Errorf("prism: deployer closed mid-campaign")
		}
	}
}

// Renew re-broadcasts the current lease at the held term (agents extend
// their expiry for the same holder). Only meaningful while leading.
func (le *Leadership) Renew() {
	le.mu.Lock()
	leading, term := le.leading, le.term
	le.mu.Unlock()
	if !leading {
		return
	}
	d := le.dep
	req := Event{
		Name: EvLeaseRequest, Target: AdminID, SizeKB: 0.2,
		Payload: LeaseRequest{Candidate: d.arch.Host(), Term: term, TTL: le.cfg.LeaseTTL, Renewal: true},
	}
	agents := append([]model.HostID(nil), le.cfg.Agents...)
	sortHostIDs(agents)
	for _, h := range agents {
		_ = d.sender.send(h, req)
	}
}

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

// LeaderSuspect reports whether the standby-side watch currently
// declares the known leader suspect or dead at the given time — the
// campaign trigger. A host that is itself leading never suspects.
func (le *Leadership) LeaderSuspect(now time.Time) bool {
	le.mu.Lock()
	leader, leading := le.leader, le.leading
	le.mu.Unlock()
	if leading || leader == "" {
		return false
	}
	le.watch.EvaluateAt(now)
	st := le.watch.State(leader)
	return st == HostSuspect || st == HostDead
}

// persistTerm records the fencing term durably (best-effort: a lost
// term is re-learned from the first frame that carries a higher one).
func (le *Leadership) persistTerm(term uint64) {
	le.dep.mu.Lock()
	ds := le.dep.store
	le.dep.mu.Unlock()
	if ds != nil {
		_ = ds.SaveTerm(term)
	}
}

// observe folds an incoming term into the leadership state (Paxos-style
// term learning): a higher term always wins, and a leader seeing one is
// deposed — its wave loops notice on their next re-drive tick and stop.
func (le *Leadership) observe(term uint64, from model.HostID) {
	le.mu.Lock()
	if term <= le.term {
		if term == le.term && from != "" {
			le.leader = from
		}
		le.mu.Unlock()
		return
	}
	le.term = term
	wasLeading := le.leading
	le.leading = false
	if from != "" {
		le.leader = from
	}
	if le.campaignTerm != 0 {
		// Wake a pending campaign so it notices it was superseded.
		select {
		case le.grantCh <- struct{}{}:
		default:
		}
	}
	le.mu.Unlock()
	// A new term means a new leader with a freshly rebuilt replication
	// log: its stream restarts at seq 1, so the high-water mark from the
	// old term must not make Ingest skip the new Reset batch as covered.
	le.dep.mu.Lock()
	ds := le.dep.store
	le.dep.mu.Unlock()
	if ds != nil {
		ds.ResetReplProgress()
	}
	le.persistTerm(term)
	le.setTermGauge(term)
	if wasLeading {
		le.transitionMetric()
	}
}

// onGrant processes an agent's vote (or the fencing feedback an admin
// sends a stale coordinator).
func (le *Leadership) onGrant(g LeaseGrant) {
	if !g.Granted {
		le.observe(g.Term, "")
		return
	}
	le.mu.Lock()
	if g.Term == le.campaignTerm && le.campaignTerm != 0 {
		le.grants[g.Host] = true
		select {
		case le.grantCh <- struct{}{}:
		default:
		}
	}
	le.mu.Unlock()
}

// --- Leader-side replication -------------------------------------------

// resetReplLocked rebuilds the replication log from the store's live
// state: the stream a new leadership session offers its standbys starts
// with a full prefix (Reset batch), so a standby in any prior state
// converges. Caller holds le.mu.
func (le *Leadership) resetReplLocked() {
	le.replLog = nil
	le.acked = make(map[model.HostID]uint64, len(le.cfg.Peers))
	le.dep.mu.Lock()
	ds := le.dep.store
	le.dep.mu.Unlock()
	if ds == nil {
		return
	}
	for _, r := range ds.LiveRecords() {
		le.replLog = append(le.replLog, ReplRecord{Kind: r.Kind, Data: r.Data})
	}
}

// enqueue appends one checkpoint record to the replication log. It runs
// under the store's mutex (ordering matches the WAL exactly); the
// send happens in flush.
func (le *Leadership) enqueue(kind byte, data []byte) {
	le.mu.Lock()
	if le.leading {
		le.replLog = append(le.replLog, ReplRecord{Kind: kind, Data: data})
	}
	le.mu.Unlock()
}

// flush streams each peer's unacknowledged suffix. Invoked after every
// WAL append — strictly before any armed crash hook runs, so a record
// that became durable on the leader is offered to standbys before the
// leader can die of it — and from ReplicationTick for retransmission.
func (le *Leadership) flush() {
	le.mu.Lock()
	if !le.leading {
		le.mu.Unlock()
		return
	}
	term := le.term
	type out struct {
		peer  model.HostID
		batch ReplBatch
	}
	var outs []out
	peers := append([]model.HostID(nil), le.cfg.Peers...)
	sortHostIDs(peers)
	for _, p := range peers {
		start := le.acked[p] + 1
		if start < 1 {
			start = 1
		}
		var recs []ReplRecord
		if int(start) <= len(le.replLog) {
			recs = append([]ReplRecord(nil), le.replLog[start-1:]...)
		} else {
			start = uint64(len(le.replLog)) + 1 // empty batch: leader heartbeat
		}
		outs = append(outs, out{peer: p, batch: ReplBatch{
			Leader: le.dep.arch.Host(), Term: term, Seq: start,
			Reset: start == 1, Records: recs,
		}})
	}
	le.mu.Unlock()
	for _, o := range outs {
		_ = le.dep.sender.send(o.peer, Event{
			Name: EvReplicate, Target: DeployerID, Payload: o.batch,
			SizeKB: 0.3 + float64(len(o.batch.Records))*0.2,
		})
	}
}

// ReplicationTick retransmits every peer's unacknowledged suffix (or an
// empty heartbeat batch once a peer is caught up, feeding its leader
// watch). Drive it periodically while leading.
func (le *Leadership) ReplicationTick() { le.flush() }

// Synced reports whether the given peer has acknowledged the entire
// replication log (drills gate leader-kill on a converged standby).
func (le *Leadership) Synced(peer model.HostID) bool {
	le.mu.Lock()
	defer le.mu.Unlock()
	return le.leading && le.acked[peer] >= uint64(len(le.replLog))
}

// onReplicate is the standby side: adopt the term, observe the leader
// for the watch, ingest the batch idempotently, and ack how far the
// local WAL has applied.
func (le *Leadership) onReplicate(b ReplBatch) {
	le.mu.Lock()
	stale := b.Term < le.term
	le.mu.Unlock()
	if stale {
		// A deposed leader is still streaming: tell it the world moved on.
		_ = le.dep.sender.send(b.Leader, Event{
			Name: EvReplicateAck, Target: DeployerID, SizeKB: 0.2,
			Payload: ReplAck{Host: le.dep.arch.Host(), Term: le.Term(), Applied: 0},
		})
		return
	}
	le.observe(b.Term, b.Leader)
	le.watch.ObserveAt(b.Leader, b.Term, le.cfg.Clock())
	le.dep.mu.Lock()
	ds := le.dep.store
	le.dep.mu.Unlock()
	var applied uint64
	if ds != nil {
		recs := make([]store.Record, len(b.Records))
		for i, r := range b.Records {
			recs[i] = store.Record{Kind: r.Kind, Data: r.Data}
		}
		applied, _ = ds.Ingest(b.Seq, b.Reset, recs)
	}
	_ = le.dep.sender.send(b.Leader, Event{
		Name: EvReplicateAck, Target: DeployerID, SizeKB: 0.2,
		Payload: ReplAck{Host: le.dep.arch.Host(), Term: b.Term, Applied: applied},
	})
}

// onReplicateAck advances a peer's acked high-water mark (leader side),
// or deposes us when the ack carries a higher term.
func (le *Leadership) onReplicateAck(a ReplAck) {
	le.mu.Lock()
	if a.Term > le.term {
		le.mu.Unlock()
		le.observe(a.Term, "")
		return
	}
	if le.leading && a.Term == le.term && a.Applied > le.acked[a.Host] {
		le.acked[a.Host] = a.Applied
	}
	le.mu.Unlock()
}

var registerLeaderPayloadsOnce sync.Once
