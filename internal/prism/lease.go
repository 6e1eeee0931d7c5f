package prism

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"

	"dif/internal/model"
)

// The lease and goal-state protocols as pure state machines. voterCore is
// one agent's side (admin.go's shell feeds it), leaseCore one deployer's
// side (leader.go's shell), and goalDelta the deployer's answer to an
// announce. None of them reads a clock, sends, or writes: time arrives in
// the input, and each step returns outputs for its shell to perform in
// order. lease_explore_test.go drives the real cores of both sides
// through every interleaving of small elections, failovers and streams.
// DESIGN.md ("Deployer high availability") has the transition tables.

// voterCore is an agent's lease and goal-state record: the fence (the
// highest term acknowledged), the current grant, the set-once term →
// candidate log, the goal generation, and whether an announce is still
// unanswered.
type voterCore struct {
	self     model.HostID
	deployer model.HostID // the configured deployer: the target while no lease is known
	fence    uint64
	holder   model.HostID
	expiry   time.Time
	grants   map[uint64]model.HostID
	gen      uint64
	pending  bool
}

type voterInputKind int

const (
	vLease    voterInputKind = iota // a lease request, at now
	vFrame                          // a fenced control frame's term and origin
	vDelta                          // a goal delta (fenced)
	vApplied                        // the shell applied a delta's acquisitions and removals
	vGens                           // a committed wave's generations
	vAnnounce                       // announce the level
	vBeat                           // the heartbeat tick
)

type voterInput struct {
	kind   voterInputKind
	now    time.Time
	req    LeaseRequest
	term   uint64
	origin model.HostID
	delta  GoalDelta
	gens   map[model.HostID]uint64
}

type voterOutputKind int

const (
	vSend       voterOutputKind = iota // ev to to
	vAccept                            // the fenced frame may be applied
	vApply                             // apply delta, then feed vApplied
	vAnnounceTo                        // announce gen to to; the shell adds the manifest
	vBeatTo                            // heartbeat to to
	vAckTo                             // ack gen to to; the shell adds the manifest
	vCount                             // increment the metric
)

type voterOutput struct {
	kind   voterOutputKind
	to     model.HostID
	ev     Event
	gen    uint64
	delta  GoalDelta
	metric string
}

func newVoterCore(self, deployer model.HostID) voterCore {
	return voterCore{self: self, deployer: deployer, grants: make(map[uint64]model.HostID)}
}

// target is where heartbeats and announces go: they follow the lease.
func (v *voterCore) target() model.HostID { return cmp.Or(v.holder, v.deployer) }

func (v *voterCore) step(in voterInput) []voterOutput {
	switch in.kind {
	case vLease:
		return v.vote(in.req, in.now)
	case vFrame:
		return v.fenced(in.term, in.origin)
	case vDelta:
		d := in.delta
		if d.Host != "" && d.Host != v.self {
			return nil
		}
		out := v.fenced(d.Term, d.Coordinator)
		if len(out) == 1 && out[0].kind == vAccept {
			if d.Generation < v.gen && d.FromGen != v.gen {
				// It answers a level this agent has since left (a wave's
				// outcome moved it forward): applied, it would undo the wave.
				// The announce stays pending, so the heartbeat asks again.
				return nil
			}
			return []voterOutput{{kind: vApply, delta: d}}
		}
		return out
	case vApplied:
		d := in.delta
		if v.gen = d.Generation; d.Coordinator == v.target() {
			v.pending = false
		}
		return []voterOutput{{kind: vCount, metric: "prism_goal_delta_applied_total"}, {kind: vAckTo, to: d.Coordinator, gen: v.gen}}
	case vGens:
		if g, ok := in.gens[v.self]; ok && g > v.gen {
			v.gen = g
		}
	case vAnnounce:
		v.pending = true
		return []voterOutput{{kind: vAnnounceTo, to: v.target(), gen: v.gen}}
	case vBeat:
		out := []voterOutput{{kind: vBeatTo, to: v.target()}}
		if v.pending {
			out = append(out, voterOutput{kind: vAnnounceTo, to: v.target(), gen: v.gen})
		}
		return out
	}
	return nil
}

// vote is the grant rule: a strictly higher term wins if the current
// lease has expired (or the candidate already holds it, so a restarted
// leader reclaims without waiting); an equal term is renewed only for the
// holder; anything lower is rejected with the fence. A term is granted to
// at most one candidate — the quorum intersection argument that makes
// split brain impossible — as long as the agent's lifetime lasts: the
// log dies with it (ROADMAP, "Known defects").
func (v *voterCore) vote(req LeaseRequest, now time.Time) []voterOutput {
	if req.Candidate == "" || req.Term == 0 {
		return nil
	}
	var grant bool
	switch {
	case req.Term < v.fence:
	case req.Term == v.fence:
		grant = req.Candidate == v.holder
	default:
		grant = v.holder == "" || req.Candidate == v.holder || !now.Before(v.expiry)
	}
	if !grant {
		return []voterOutput{{kind: vCount, metric: "prism_lease_rejections_total"}, v.reply(req.Candidate, false)}
	}
	v.fence, v.holder, v.expiry = req.Term, req.Candidate, now.Add(req.TTL)
	if _, ok := v.grants[req.Term]; !ok {
		v.grants[req.Term] = req.Candidate
	}
	if req.Renewal {
		return []voterOutput{{kind: vCount, metric: "prism_lease_renewals_total"}, v.reply(req.Candidate, true)}
	}
	return []voterOutput{v.reply(req.Candidate, true)}
}

// reply sends to a candidate the fence, granted or not.
func (v *voterCore) reply(to model.HostID, granted bool) voterOutput {
	return voterOutput{kind: vSend, to: to, ev: Event{Name: EvLeaseGrant, Target: DeployerID, SizeKB: 0.2,
		Payload: LeaseGrant{Host: v.self, Term: v.fence, Granted: granted}}}
}

// fenced applies the fencing rule to an inbound control frame: a non-zero
// term below the fence is rejected — and the origin is told the fence (as
// an ungranted LeaseGrant), so a paused-then-revived leader deposes itself
// promptly — while a higher term raises the fence and names the holder
// (the frame proves a quorum granted it). Zero is the unfenced legacy
// term of a solo deployer.
func (v *voterCore) fenced(term uint64, origin model.HostID) []voterOutput {
	if term != 0 && term < v.fence {
		out := []voterOutput{{kind: vCount, metric: "prism_fenced_frames_total"}}
		if origin != "" {
			out = append(out, v.reply(origin, false))
		}
		return out
	}
	if term > v.fence {
		v.fence, v.holder = term, origin
	}
	return []voterOutput{{kind: vAccept}}
}

// leaseCore is a deployer's side of the lease: its term, whether it
// leads, the campaign in progress, the leader watch, and each peer's
// replication positions, acknowledged and offered (the store has records).
type leaseCore struct {
	self    model.HostID
	agents  []model.HostID // voters, sorted
	peers   []model.HostID // replication targets, sorted
	ttl     time.Duration
	timeout time.Duration // one campaign's budget

	term    uint64
	leading bool
	leader  model.HostID // last known leader (self while leading)

	// camp is the term being campaigned (zero when none); granted holds
	// the agents that granted it; due is its deadline.
	camp    uint64
	granted map[model.HostID]bool
	due     time.Time

	// The leader watch: when a leader at heardTerm was last heard from (or
	// the watch started).
	lastHeard time.Time
	heardTerm uint64

	acked, sent []uint64 // per peer
}

type leaseInputKind int

const (
	lCampaign  leaseInputKind = iota // start a campaign, at now
	lGrant                           // a LeaseGrant: a vote, or fencing feedback
	lReplicate                       // a ReplBatch from a leader
	lReplAck                         // a ReplAck from a standby
	lTick                            // the campaign's re-broadcast tick or deadline, at now
	lRenew                           // renew the held lease
	lFlush                           // offer each peer what it was not offered yet
	lClosed                          // the deployer is closing
)

// leaseInput carries two times: now runs the campaign (the shell's
// timers), at the leader watch (LeaderConfig.Clock); pos is the store's.
type leaseInput struct {
	kind    leaseInputKind
	now, at time.Time
	pos     uint64
	grant   LeaseGrant
	batch   ReplBatch
	ack     ReplAck
}

type leaseOutputKind int

const (
	lSend    leaseOutputKind = iota // ev to to
	lAppend                         // persist a new term (best-effort); its ingest mark restarts
	lIngest                         // apply batch to the local log and ack it
	lOffer                          // fill batch from the store past Seq-1 and send it to to
	lWon                            // leadership won
	lDeposed                        // leadership lost to a higher term
	lFinish                         // the campaign ended: outcome, term, grants
)

type leaseOutput struct {
	kind    leaseOutputKind
	to      model.HostID
	ev      Event
	term    uint64
	batch   ReplBatch
	outcome string
	grants  int
}

func newLeaseCore(self model.HostID, agents, peers []model.HostID, ttl, timeout time.Duration, term uint64, at time.Time) leaseCore {
	agents, peers = slices.Clone(agents), slices.Clone(peers)
	sortHostIDs(agents)
	sortHostIDs(peers)
	return leaseCore{self: self, agents: agents, peers: peers, ttl: ttl, timeout: timeout, term: term,
		granted: make(map[model.HostID]bool), acked: make([]uint64, len(peers)), sent: make([]uint64, len(peers)), lastHeard: at}
}

func (c *leaseCore) quorum() int { return len(c.agents)/2 + 1 }

// suspect reports whether the watch holds the leader silent at at: 2×TTL
// without a word from it (or, before any leader was heard, since the
// watch started). A leader never suspects.
func (c *leaseCore) suspect(at time.Time) bool {
	return !c.leading && at.Sub(c.lastHeard) >= 2*c.ttl
}

// synced reports whether peer acknowledged the store's position pos.
func (c *leaseCore) synced(peer model.HostID, pos uint64) bool {
	i := slices.Index(c.peers, peer)
	return c.leading && i >= 0 && c.acked[i] >= pos
}

func (c *leaseCore) step(in leaseInput) []leaseOutput {
	switch in.kind {
	case lCampaign:
		if c.leading {
			return []leaseOutput{{kind: lFinish, outcome: "already_leading", term: c.term}}
		}
		c.term++
		c.camp, c.due = c.term, in.now.Add(c.timeout)
		clear(c.granted)
		return append([]leaseOutput{{kind: lAppend, term: c.term}}, c.request(false)...)
	case lGrant:
		g := in.grant
		if !g.Granted {
			return c.observe(g.Term, "", in.at)
		}
		if c.camp == 0 || g.Term != c.camp || !slices.Contains(c.agents, g.Host) {
			return nil
		}
		if c.granted[g.Host] = true; len(c.granted) < c.quorum() {
			return nil
		}
		c.leading, c.leader, c.camp = true, c.self, 0
		c.acked, c.sent = make([]uint64, len(c.peers)), make([]uint64, len(c.peers))
		return append(append([]leaseOutput{{kind: lWon}}, c.flush(in.pos)...), leaseOutput{kind: lFinish, outcome: "won", term: c.term, grants: len(c.granted)})
	case lReplicate:
		b := in.batch
		if b.Term < c.term {
			// A deposed leader is still streaming: tell it the world moved on.
			return []leaseOutput{{kind: lSend, to: b.Leader, ev: Event{Name: EvReplicateAck, Target: DeployerID, SizeKB: 0.2,
				Payload: ReplAck{Host: c.self, Term: c.term}}}}
		}
		out := c.observe(b.Term, b.Leader, in.at)
		// A leader silent for 4×TTL is dead for its term: a late batch at
		// that term does not revive it, only a higher term does.
		if b.Term > c.heardTerm || in.at.Sub(c.lastHeard) < 4*c.ttl {
			c.lastHeard, c.heardTerm = in.at, b.Term
		}
		return append(out, leaseOutput{kind: lIngest, batch: b})
	case lReplAck:
		a := in.ack
		if a.Term > c.term {
			return c.observe(a.Term, "", in.at)
		}
		if i := slices.Index(c.peers, a.Host); c.leading && a.Term == c.term && i >= 0 {
			// The next offer starts where the peer stands: a lost batch again.
			c.acked[i] = max(c.acked[i], a.Applied)
			c.sent[i] = c.acked[i]
		}
	case lTick:
		if c.camp == 0 {
			return nil
		}
		if !in.now.Before(c.due) {
			return c.finish("timeout")
		}
		return c.request(false)
	case lRenew:
		if c.leading {
			return c.request(true)
		}
	case lFlush:
		return c.flush(in.pos)
	case lClosed:
		if c.camp != 0 {
			return c.finish("closed")
		}
	}
	return nil
}

func (c *leaseCore) finish(outcome string) []leaseOutput {
	o := leaseOutput{kind: lFinish, outcome: outcome, term: c.camp, grants: len(c.granted)}
	c.camp = 0
	return []leaseOutput{o}
}

// request sends the lease request to every agent that has not granted it
// (a renewal goes to all).
func (c *leaseCore) request(renewal bool) []leaseOutput {
	ev := Event{Name: EvLeaseRequest, Target: AdminID, SizeKB: 0.2,
		Payload: LeaseRequest{Candidate: c.self, Term: c.term, TTL: c.ttl, Renewal: renewal}}
	var out []leaseOutput
	for _, h := range c.agents {
		if renewal || !c.granted[h] {
			out = append(out, leaseOutput{kind: lSend, to: h, ev: ev})
		}
	}
	return out
}

// observe folds a term seen on a frame (Paxos-style term learning): a
// higher term always wins, a leader seeing one is deposed, and a campaign
// seeing one is superseded. from names the leader when the frame says.
func (c *leaseCore) observe(term uint64, from model.HostID, at time.Time) []leaseOutput {
	if term < c.term || term == c.term && from == "" {
		return nil
	}
	if from != "" {
		c.leader = from
	}
	if term == c.term {
		return nil
	}
	c.term = term
	var out []leaseOutput
	if c.leading {
		// The watch restarts: the new term's leader has yet to be heard.
		c.leading, c.lastHeard = false, at
		out = append(out, leaseOutput{kind: lDeposed})
	}
	out = append(out, leaseOutput{kind: lAppend, term: term})
	if c.camp != 0 {
		out = append(out, c.finish("superseded")...)
	}
	return out
}

// flush offers each peer everything past the position it was last
// offered, and moves that to pos: a peer silent since gets only what is
// new, or an empty batch, the leader heartbeat that feeds its watch.
func (c *leaseCore) flush(pos uint64) []leaseOutput {
	if !c.leading {
		return nil
	}
	var out []leaseOutput
	for i, p := range c.peers {
		out = append(out, leaseOutput{kind: lOffer, to: p, batch: ReplBatch{Leader: c.self, Term: c.term, Seq: c.sent[i] + 1}})
		c.sent[i] = max(c.sent[i], pos)
	}
	return out
}

// goalDelta is the deployer's answer to an announce: one Full delta that
// converges the agent's announced manifest to the goal entry e, with the
// relocation hints, stamped with the answering leader and its term. An
// announce AHEAD of the entry (a diverged lifetime, or a deployer that
// lost state) is clamped back and reported as divergence.
func goalDelta(e goalEntry, ga GoalAnnounce, reloc map[string]model.HostID, self model.HostID, term uint64) (GoalDelta, bool) {
	d := GoalDelta{Host: ga.Host, Coordinator: self, Term: term, FromGen: ga.Generation, Generation: e.Gen, Full: true}
	for _, id := range e.sortedIDs() {
		if !slices.Contains(ga.Manifest, id) {
			d.Acquire = append(d.Acquire, GoalComponent{ID: id, Type: e.Manifest[id]})
		}
	}
	for _, id := range ga.Manifest {
		if _, ok := e.Manifest[id]; !ok {
			d.Remove = append(d.Remove, id)
		}
	}
	sort.Strings(d.Remove)
	for comp, h := range reloc {
		d.Reloc = append(d.Reloc, RelocEntry{Comp: comp, Host: h})
	}
	slices.SortFunc(d.Reloc, func(a, b RelocEntry) int { return strings.Compare(a.Comp, b.Comp) })
	return d, ga.Generation > e.Gen
}

// noteAck folds an agent's ack into its goal entry and reports whether it
// breaks the resync invariant: an ack at the current generation must
// carry exactly the goal manifest.
func (e *goalEntry) noteAck(ack GoalAck) (mismatch bool) {
	e.Acked = max(e.Acked, ack.Generation)
	return ack.Generation == e.Gen && !slices.Equal(e.sortedIDs(), ack.Manifest)
}
