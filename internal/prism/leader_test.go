package prism

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/store"
)

// testClock is a hand-advanced clock for lease arithmetic.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// haWorld is a deployWorld whose first two hosts each run a deployer
// with leadership attached (h1 boots as leader, h2 as warm standby).
type haWorld struct {
	*deployWorld
	clk     *testClock
	standby *DeployerComponent
	leadA   *Leadership // hosts[0]'s leadership
	leadB   *Leadership // hosts[1]'s leadership
	dirs    map[model.HostID]string
	stores  map[model.HostID]*DeployerStore
}

func newHAWorld(t *testing.T, hosts ...model.HostID) *haWorld {
	t.Helper()
	return newHAWorldOn(t, newWorld(t, 1.0, hosts...), 20*time.Millisecond, hosts...)
}

// newHAWorldOn builds the haWorld over w, with the deployers re-driving
// campaigns (and every other exchange) at the given interval.
func newHAWorldOn(t *testing.T, w *world, rebroadcast time.Duration, hosts ...model.HostID) *haWorld {
	t.Helper()
	clk := newTestClock()
	dw := &deployWorld{
		world:    w,
		admins:   make(map[model.HostID]*AdminComponent),
		registry: NewFactoryRegistry(),
		master:   hosts[0],
	}
	dw.registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	cfg := AdminConfig{Deployer: dw.master, Bus: "bus", Registry: dw.registry, Clock: clk.Now,
		EnactResendInterval: rebroadcast}
	for _, h := range hosts {
		admin, err := InstallAdmin(w.archs[h], cfg)
		if err != nil {
			t.Fatal(err)
		}
		dw.admins[h] = admin
	}
	ha := &haWorld{
		deployWorld: dw,
		clk:         clk,
		dirs:        make(map[model.HostID]string),
		stores:      make(map[model.HostID]*DeployerStore),
	}
	lcfg := LeaderConfig{
		Agents: hosts, Clock: clk.Now,
		CampaignTimeout: 5 * time.Second,
	}
	for i, h := range hosts[:2] {
		dep, err := InstallDeployer(w.archs[h], cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		ds, err := OpenDeployerStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		if err := dep.AttachStore(ds); err != nil {
			t.Fatal(err)
		}
		c := lcfg
		c.Peers = []model.HostID{hosts[1-i]}
		le, err := dep.AttachLeadership(c)
		if err != nil {
			t.Fatal(err)
		}
		ha.dirs[h] = dir
		ha.stores[h] = ds
		if i == 0 {
			dw.deployer, ha.leadA = dep, le
		} else {
			ha.standby, ha.leadB = dep, le
		}
	}
	return ha
}

// TestLeaseGrantRule exercises the agent-side vote table directly: one
// candidate per term ever, renewals only for the holder, expiry gating
// takeovers, and everything below the fence rejected.
func TestLeaseGrantRule(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	a := ha.admins["h3"]
	ttl := 2 * time.Second

	a.handleLeaseRequest(LeaseRequest{Candidate: "h1", Term: 1, TTL: ttl})
	if got := a.FenceTerm(); got != 1 {
		t.Fatalf("fence after first grant = %d, want 1", got)
	}
	// Same term, different candidate: the term is already spent.
	a.handleLeaseRequest(LeaseRequest{Candidate: "h2", Term: 1, TTL: ttl})
	if got := a.LeaseGrants()[1]; got != "h1" {
		t.Fatalf("term 1 granted to %q, want h1", got)
	}
	// Holder renewal extends the same term.
	a.handleLeaseRequest(LeaseRequest{Candidate: "h1", Term: 1, TTL: ttl, Renewal: true})
	// Higher term before the lease expires, different candidate: rejected.
	a.handleLeaseRequest(LeaseRequest{Candidate: "h2", Term: 2, TTL: ttl})
	if got := a.FenceTerm(); got != 1 {
		t.Fatalf("fence after premature takeover bid = %d, want 1", got)
	}
	// After expiry the same bid wins, and the old holder's terms are dead.
	ha.clk.Advance(3 * ttl)
	a.handleLeaseRequest(LeaseRequest{Candidate: "h2", Term: 2, TTL: ttl})
	if got := a.FenceTerm(); got != 2 {
		t.Fatalf("fence after takeover = %d, want 2", got)
	}
	a.handleLeaseRequest(LeaseRequest{Candidate: "h1", Term: 1, TTL: ttl})
	if got := a.FenceTerm(); got != 2 {
		t.Fatalf("fence moved backwards: %d", got)
	}
	grants := a.LeaseGrants()
	if grants[1] != "h1" || grants[2] != "h2" {
		t.Fatalf("grant log = %v, want 1→h1 2→h2", grants)
	}
}

// TestCampaignWinsQuorum is the happy-path election: the first candidate
// reaches every agent, wins term 1, and renewals keep the lease alive.
func TestCampaignWinsQuorum(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	won, err := ha.leadA.Campaign()
	if err != nil || !won {
		t.Fatalf("campaign: won=%v err=%v", won, err)
	}
	if !ha.leadA.IsLeader() || ha.leadA.Term() != 1 {
		t.Fatalf("leader state: leading=%v term=%d", ha.leadA.IsLeader(), ha.leadA.Term())
	}
	waitFor(t, func() bool {
		for _, h := range []model.HostID{"h1", "h2", "h3"} {
			if ha.admins[h].FenceTerm() != 1 {
				return false
			}
		}
		return true
	})
	for _, h := range []model.HostID{"h1", "h2", "h3"} {
		if got := ha.admins[h].LeaseGrants()[1]; got != "h1" {
			t.Fatalf("agent %s granted term 1 to %q", h, got)
		}
	}
	// The winning term is durable: a restart of this deployer re-learns it
	// from its own snapshot instead of reusing a spent term.
	if got := ha.stores["h1"].Term(); got != 1 {
		t.Fatalf("persisted term = %d, want 1", got)
	}
	// The standby deployer refuses to drive waves.
	if _, err := ha.standby.Enact(nil, nil, time.Second); err != ErrNotLeader {
		t.Fatalf("standby Enact err = %v, want ErrNotLeader", err)
	}
}

// TestAttachStoreAfterLeadershipRejected: leadership inherits the store's
// term and taps its appends when it attaches, so a store offered after it
// is refused rather than left unreplicated.
func TestAttachStoreAfterLeadershipRejected(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	ds, err := OpenDeployerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if err := ha.deployer.AttachStore(ds); err == nil {
		t.Fatal("a store attached after leadership was accepted")
	}
}

// TestStandbySuspectsUnheardLeader: a standby attached after the leader
// died hears no leader at all. Its watch runs from attach time, so one
// TTL of silence makes it suspect, and it campaigns.
func TestStandbySuspectsUnheardLeader(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	if ha.leadB.LeaderSuspect(ha.clk.Now()) {
		t.Fatal("standby suspects a leader at attach time")
	}
	if ha.leadB.LeaderSuspect(ha.clk.Advance(DefaultLeaseTTL - time.Millisecond)) {
		t.Fatal("standby suspects before one TTL of silence")
	}
	if !ha.leadB.LeaderSuspect(ha.clk.Advance(time.Millisecond)) {
		t.Fatal("standby never suspects a leader it has never heard")
	}
}

// TestRefusedCampaignKeepsLeader: the leader's keepalives to the standby
// are lost for longer than the watch bar while it renews its lease at
// every agent, so the standby campaigns and every agent refuses. A
// refused campaign changes no term: once the keepalives flow again, the
// standby hears the leader at the term they share, and nothing deposes it.
func TestRefusedCampaignKeepsLeader(t *testing.T) {
	hosts := []model.HostID{"h1", "h2", "h3"}
	var tap *tapTransport
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "h1" {
			return tr
		}
		tap = newTap(tr, EvReplicate, 0)
		return tap
	}, hosts...)
	ha := newHAWorldOn(t, w, 20*time.Millisecond, hosts...)
	if won, err := ha.leadA.Campaign(); err != nil || !won {
		t.Fatalf("campaign: won=%v err=%v", won, err)
	}
	waitFor(t, func() bool { return ha.leadA.Synced("h2") })
	setDrops := func(n int) {
		tap.mu.Lock()
		tap.drop = n
		tap.mu.Unlock()
	}
	setDrops(1 << 20)
	for steps := 0; !ha.leadB.LeaderSuspect(ha.clk.Now()); steps++ {
		if steps == 20 {
			t.Fatal("the standby never suspects its silent leader")
		}
		now := ha.clk.Advance(DefaultLeaseTTL / 3)
		ha.leadA.Renew()
		ha.leadA.ReplicationTick()
		// The renewal lands everywhere before the clock moves on.
		waitFor(t, func() bool {
			for _, h := range hosts {
				a := ha.admins[h]
				a.mu.Lock()
				expiry := a.voter.expiry
				a.mu.Unlock()
				if !expiry.Equal(now.Add(DefaultLeaseTTL)) {
					return false
				}
			}
			return true
		})
	}
	// Every agent holds h1's renewed lease, so the campaign times out.
	if won, err := ha.leadB.Campaign(); won || !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("standby campaign: won=%v err=%v, want ErrNoQuorum", won, err)
	}
	for _, h := range hosts {
		if got := ha.admins[h].FenceTerm(); got != 1 {
			t.Fatalf("agent %s's fence is %d after the refused campaign, want 1", h, got)
		}
	}
	setDrops(0)
	ha.leadA.ReplicationTick()
	waitFor(t, func() bool { return !ha.leadB.LeaderSuspect(ha.clk.Now()) || !ha.leadA.IsLeader() })
	if !ha.leadA.IsLeader() || ha.leadA.Term() != 1 {
		t.Fatalf("h1: leading=%v at term %d, want leading term 1", ha.leadA.IsLeader(), ha.leadA.Term())
	}
	if got := ha.leadB.Term(); got != 1 {
		t.Fatalf("standby at term %d, want 1", got)
	}
}

// TestCampaignRunsOnPastItsOwnFence: a restarted leader campaigns at the
// term after its persisted one while its fresh process still stamps
// frames at the old term. An agent that already granted the campaign
// refuses such a frame with its fence, which is the campaign's own term:
// the deployer learns the term, and the campaign runs on to its quorum.
func TestCampaignRunsOnPastItsOwnFence(t *testing.T) {
	agents := []model.HostID{"x", "y", "z"}
	c := newLeaseCore("h1", agents, []model.HostID{"h2"}, time.Second, time.Second, 3, time.Unix(0, 0))
	c.step(leaseInput{kind: lCampaign})
	for _, g := range []LeaseGrant{{Host: "x", Term: 4, Granted: true}, {Host: "x", Term: 4}} {
		for _, o := range c.step(leaseInput{kind: lGrant, grant: g}) {
			if o.kind == lFinish {
				t.Fatalf("the campaign finished %s on %+v", o.outcome, g)
			}
		}
	}
	c.step(leaseInput{kind: lGrant, grant: LeaseGrant{Host: "y", Term: 4, Granted: true}})
	if !c.leading || c.term != 4 {
		t.Fatalf("leading=%v at term %d, want leading term 4", c.leading, c.term)
	}
}

// TestCampaignSpanCountsGrants: with one of three agents partitioned
// away, the campaign wins on two grants, and its span says two.
func TestCampaignSpanCountsGrants(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	tracer := obs.NewTracer()
	ha.archs["h1"].SetObservability(nil, tracer)
	if err := ha.fabric.SetPartitioned("h1", "h3", true); err != nil {
		t.Fatal(err)
	}
	if won, err := ha.leadA.Campaign(); err != nil || !won {
		t.Fatalf("campaign: won=%v err=%v", won, err)
	}
	spans := tracer.Snapshot()
	if len(spans) != 1 || spans[0].Name != "campaign" {
		t.Fatalf("spans = %+v, want one campaign", spans)
	}
	if got := spans[0].Attr("grants"); got != "2" {
		t.Fatalf("campaign span grants = %q, want 2", got)
	}
}

// TestLeadershipFrameMix pins the frames a lossless world of three agents
// and two deployers puts on the wire, per kind, for each leadership
// exchange: a campaign (a request and a grant per agent, then the won
// leadership's first replication batch and its ack), a renewal and a
// replication tick, and one goal announce answered by a delta and an ack.
func TestLeadershipFrameMix(t *testing.T) {
	hosts := []model.HostID{"h1", "h2", "h3"}
	taps := make(map[model.HostID]*tapTransport)
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		taps[h] = newTap(tr, "", 0)
		return taps[h]
	}, hosts...)
	ha := newHAWorldOn(t, w, time.Hour, hosts...)
	kinds := []string{EvLeaseRequest, EvLeaseGrant, EvReplicate, EvReplicateAck, EvGoalAnnounce, EvGoalDelta, EvGoalAck, EvHeartbeat}
	total := func() map[string]int {
		n := make(map[string]int)
		for _, tap := range taps {
			for _, k := range kinds {
				n[k] += tap.sent(k)
			}
		}
		return n
	}
	// exchange runs one exchange and checks the frames it added, once they
	// match or two seconds have passed.
	exchange := func(name string, run func(), want map[string]int) {
		t.Helper()
		before := total()
		run()
		var got map[string]int
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			got = make(map[string]int)
			for k, n := range total() {
				if d := n - before[k]; d != 0 {
					got[k] = d
				}
			}
			if reflect.DeepEqual(got, want) {
				return
			}
		}
		t.Fatalf("%s: frames per kind = %v, want %v", name, got, want)
	}
	// h1's own vote and grant stay on the host: they never reach the wire.
	exchange("campaign", func() {
		if won, err := ha.leadA.Campaign(); err != nil || !won {
			t.Fatalf("campaign: won=%v err=%v", won, err)
		}
	}, map[string]int{EvLeaseRequest: 2, EvLeaseGrant: 2, EvReplicate: 1, EvReplicateAck: 1})
	exchange("renew and replication tick", func() {
		ha.leadA.Renew()
		ha.leadA.ReplicationTick()
	}, map[string]int{EvLeaseRequest: 2, EvLeaseGrant: 2, EvReplicate: 1, EvReplicateAck: 1})
	exchange("announce", func() {
		if err := ha.admins["h3"].AnnounceGoalState(); err != nil {
			t.Fatal(err)
		}
	}, map[string]int{EvGoalAnnounce: 1, EvGoalDelta: 1, EvGoalAck: 1})
}

// TestStaleTermOutcomeFencedByEveryParticipant is the split-brain drill
// at the frame level: once agents acknowledge a higher term, a
// WaveOutcome stamped with an older term is dropped by every participant
// — no rollback, no ack — and the fencing feedback deposes its sender.
func TestStaleTermOutcomeFencedByEveryParticipant(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	won, err := ha.leadA.Campaign()
	if err != nil || !won {
		t.Fatalf("campaign: won=%v err=%v", won, err)
	}
	// A campaign returns at quorum; let the last agent's term-1 grant land
	// before the clock moves, or it would date its lease from the future.
	waitFor(t, func() bool { return ha.admins["h2"].FenceTerm() == 1 && ha.admins["h3"].FenceTerm() == 1 })
	// The world moves on: h2 takes the lease at term 2 after expiry.
	ha.clk.Advance(time.Minute)
	for _, h := range []model.HostID{"h1", "h2", "h3"} {
		ha.admins[h].handleLeaseRequest(LeaseRequest{Candidate: "h2", Term: 2, TTL: 2 * time.Second})
		if got := ha.admins[h].FenceTerm(); got != 2 {
			t.Fatalf("agent %s fence = %d, want 2", h, got)
		}
	}
	// The deposed-but-unaware h1 broadcasts an abort at its old term.
	stale := Event{
		Name: EvOutcome, Kind: KindControl, Target: AdminID, SizeKB: 0.3,
		Payload: WaveOutcome{Epoch: 9, Coordinator: "h1", Commit: false, Term: 1, ReplyTo: "h1"},
	}
	for _, h := range []model.HostID{"h1", "h2", "h3"} {
		ha.admins[h].Handle(stale)
	}
	k := waveKey{"h1", 9}
	for _, h := range []model.HostID{"h1", "h2", "h3"} {
		a := ha.admins[h]
		a.mu.Lock()
		applied := a.part.isSettled(k)
		a.mu.Unlock()
		if applied {
			t.Fatalf("agent %s applied a stale-term outcome", h)
		}
	}
	// The rejection's fencing feedback reaches h1's deployer: it adopts
	// term 2 and deposes itself.
	waitFor(t, func() bool { return ha.deployer.deposed() && ha.leadA.Term() == 2 })
	// The same frame at the live term is honored (and acked) everywhere.
	live := stale
	live.Payload = WaveOutcome{Epoch: 9, Coordinator: "h1", Commit: false, Term: 2, ReplyTo: "h2"}
	for _, h := range []model.HostID{"h1", "h2", "h3"} {
		ha.admins[h].Handle(live)
		a := ha.admins[h]
		a.mu.Lock()
		applied := a.part.isSettled(k)
		a.mu.Unlock()
		if !applied {
			t.Fatalf("agent %s dropped a live-term outcome", h)
		}
	}
}

// replayWAL re-opens a closed store directory and returns the raw WAL
// bytes — the byte-identity witness for replication idempotency.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// leaderStream runs two epochs against a fresh leader store and returns
// the records it appended: what it offers past the level it opened with.
func leaderStream(t *testing.T, ds *DeployerStore) []store.Record {
	t.Helper()
	moves := map[string]model.HostID{"c1": "h2"}
	parts := []model.HostID{"h1", "h2"}
	for epoch := 1; epoch <= 2; epoch++ {
		if err := ds.append(epochOpenRec{Epoch: epoch, Moves: moves, Participants: parts, Coordinator: "h1"}); err != nil {
			t.Fatal(err)
		}
		if err := ds.append(epochDecidedRec{Epoch: epoch, Commit: epoch%2 == 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 2 stays open (decided, unclosed) — the shape a failover
	// resumes. Epoch 1 closes.
	if err := ds.append(epochMarkRec{Kind: RecEpochClosed, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	seq, reset, stream := ds.offer(1)
	if seq != 2 || reset {
		t.Fatalf("offer past the opening level: seq %d reset %v, want 2 false", seq, reset)
	}
	return stream
}

// TestReplicationIngestIdempotent feeds the same leader stream to three
// standbys — once cleanly, once with every batch duplicated, once with
// out-of-order redelivery — and requires byte-identical WALs and mirrors.
// A Reset batch is a level at its Seq: the stream's first records, here,
// stand for the level at the position of the last of them.
func TestReplicationIngestIdempotent(t *testing.T) {
	leaderDir := t.TempDir()
	lds, err := OpenDeployerStore(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer lds.Close()
	stream := leaderStream(t, lds)
	if len(stream) < 5 {
		t.Fatalf("leader stream too short: %d records", len(stream))
	}

	open := func() (*DeployerStore, string) {
		dir := t.TempDir()
		ds, err := OpenDeployerStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ds, dir
	}
	clean, cleanDir := open()
	dup, dupDir := open()
	ooo, oooDir := open()

	// Clean: one Reset batch with the whole stream.
	if n, err := clean.Ingest(uint64(len(stream)), true, stream); err != nil || n != uint64(len(stream)) {
		t.Fatalf("clean ingest: n=%d err=%v", n, err)
	}

	// Duplicated: every batch delivered twice, split into two halves.
	half := len(stream) / 2
	for i := 0; i < 2; i++ {
		if _, err := dup.Ingest(uint64(half), true, stream[:half]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := dup.Ingest(uint64(half)+1, false, stream[half:]); err != nil {
			t.Fatal(err)
		}
	}

	// Out of order: the tail arrives first (gap → ignored), then the
	// Reset prefix, then an overlapping suffix that is already covered,
	// then the tail again.
	if n, err := ooo.Ingest(uint64(half)+1, false, stream[half:]); err != nil || n != 0 {
		t.Fatalf("gap batch: n=%d err=%v, want ignored", n, err)
	}
	if _, err := ooo.Ingest(uint64(half), true, stream[:half]); err != nil {
		t.Fatal(err)
	}
	if n, err := ooo.Ingest(2, false, stream[1:half]); err != nil || n != uint64(half) {
		t.Fatalf("covered overlap: n=%d err=%v", n, err)
	}
	if _, err := ooo.Ingest(uint64(half)+1, false, stream[half:]); err != nil {
		t.Fatal(err)
	}

	for _, ds := range []*DeployerStore{clean, dup, ooo} {
		if got := ds.replSeq; got != uint64(len(stream)) {
			t.Fatalf("repl progress = %d, want %d", got, len(stream))
		}
		if ne := ds.NextEpoch(); ne != 3 {
			t.Fatalf("mirror next epoch = %d, want 3", ne)
		}
		waves := ds.OpenWaves()
		if len(waves) != 1 || waves[0].Epoch != 2 || waves[0].Decided {
			if len(waves) != 1 || waves[0].Epoch != 2 {
				t.Fatalf("mirror open waves = %+v", waves)
			}
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want := walBytes(t, cleanDir)
	if got := walBytes(t, dupDir); string(got) != string(want) {
		t.Fatalf("duplicated delivery diverged: %d bytes vs %d", len(got), len(want))
	}
	if got := walBytes(t, oooDir); string(got) != string(want) {
		t.Fatalf("out-of-order delivery diverged: %d bytes vs %d", len(got), len(want))
	}
}

// TestReplicationStreamsToStandby is the live-wire version: a leader
// wins the lease, moves a component through a real two-phase wave, and
// the standby's store converges to the leader's live state through the
// EvReplicate/EvReplicateAck exchange alone.
func TestReplicationStreamsToStandby(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	ha.addCounter(t, "h2", "c1", 3)
	won, err := ha.leadA.Campaign()
	if err != nil || !won {
		t.Fatalf("campaign: won=%v err=%v", won, err)
	}
	res, err := ha.deployer.Enact(
		map[string]model.HostID{"c1": "h3"},
		map[string]model.HostID{"c1": "h2"},
		5*time.Second,
	)
	if err != nil || !res.Committed {
		t.Fatalf("wave: res=%+v err=%v", res, err)
	}
	waitFor(t, func() bool { return ha.leadB.Term() == 1 && ha.leadA.Synced("h2") })
	sb := ha.stores["h2"]
	if ne := sb.NextEpoch(); ne != 2 {
		t.Fatalf("standby next epoch = %d, want 2", ne)
	}
	if got := sb.Term(); got != 1 {
		t.Fatalf("standby persisted term = %d, want 1", got)
	}
}

// waveBatches is a committed wave as three writes of two records each.
func waveBatches(epoch int) [][]walRecord {
	parts := []model.HostID{"h1", "h2"}
	return [][]walRecord{
		{epochOpenRec{Epoch: epoch, Moves: map[string]model.HostID{"c1": parts[epoch%2]}, Participants: parts, Coordinator: "h1"},
			epochDecidedRec{Epoch: epoch, Commit: true}},
		{goalStateRec{Host: parts[epoch%2], Gen: uint64(epoch), Manifest: []GoalComponent{{ID: "c1", Type: "counter"}}},
			goalStateRec{Host: parts[1-epoch%2], Gen: uint64(epoch)}},
		{epochMarkRec{Kind: RecEpochClosed, Epoch: epoch}, snapshotRec{NextEpoch: epoch + 1, Term: 1}},
	}
}

// TestSilentPeerOfferedEachRecordOnce drives the leader's core over a
// real store, as the shell does: 200 waves of three two-record writes,
// each flushed, to a peer that never answers. The peer is offered each
// record about once — not the whole unacknowledged history at every
// flush — and the only record bodies held are the store's tail, which
// compaction bounds.
func TestSilentPeerOfferedEachRecordOnce(t *testing.T) {
	ds, err := OpenDeployerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	c := newLeaseCore("h1", []model.HostID{"h1"}, []model.HostID{"h2"}, time.Second, time.Second, 0, time.Unix(0, 0))
	offered := 0
	offer := func(outs []leaseOutput) {
		for _, o := range outs {
			if o.kind == lOffer {
				_, _, recs := ds.offer(o.batch.Seq - 1)
				offered += len(recs)
			}
		}
	}
	c.step(leaseInput{kind: lCampaign})
	offer(c.step(leaseInput{kind: lGrant, pos: ds.position(), grant: LeaseGrant{Host: "h1", Term: 1, Granted: true}}))
	if !c.leading {
		t.Fatal("the campaign did not win")
	}
	appended, held := 0, 0
	for epoch := 1; epoch <= 200; epoch++ {
		for _, b := range waveBatches(epoch) {
			if err := ds.append(b...); err != nil {
				t.Fatal(err)
			}
			appended += len(b)
			held = max(held, len(ds.tail))
			offer(c.step(leaseInput{kind: lFlush, pos: ds.position()}))
		}
	}
	t.Logf("%d records appended, %d offered, at most %d held", appended, offered, held)
	if offered > 2*appended {
		t.Fatalf("offered %d records for %d appended, want at most %d", offered, appended, 2*appended)
	}
	if held > 6*compactAfter {
		t.Fatalf("the store held a tail of %d records, more than %d waves' worth", held, compactAfter)
	}
}

// TestStandbyWALCompacts: a standby that ingests a leader's 300 closed
// waves record by record, offered each batch as the leader's eager flush
// does, is hydrated once and then compacts on the leader's rule itself:
// its log stays within one of the leader's compaction windows, and
// reopened it replays to the leader's state.
func TestStandbyWALCompacts(t *testing.T) {
	lds, err := OpenDeployerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lds.Close()
	dir := t.TempDir()
	sds, err := OpenDeployerStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mark uint64
	resets := 0
	lds.replFlush = func() {
		seq, reset, recs := lds.offer(mark)
		if reset {
			resets++
			mark, err = sds.Ingest(seq, true, recs)
		}
		for k := 0; k < len(recs) && !reset && err == nil; k++ {
			mark, err = sds.Ingest(seq+uint64(k), false, recs[k:k+1])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	window := 0
	for epoch := 1; epoch <= 300; epoch++ {
		for _, b := range waveBatches(epoch) {
			if err := lds.append(b...); err != nil {
				t.Fatal(err)
			}
			window = max(window, lds.log.Appended())
		}
	}
	// One wave stays open, decided: the state a takeover resumes.
	if err := lds.append(waveBatches(301)[0]...); err != nil {
		t.Fatal(err)
	}
	if resets != 1 {
		t.Fatalf("the standby got %d Reset batches, want only the first", resets)
	}
	if got := sds.log.Appended(); got >= window {
		t.Fatalf("the standby appended %d records since its last rewrite, the leader's window is %d", got, window)
	}
	sds.Close()
	if sds, err = OpenDeployerStore(dir); err != nil {
		t.Fatal(err)
	}
	defer sds.Close()
	if got, want := sds.NextEpoch(), lds.NextEpoch(); got != want {
		t.Fatalf("reopened standby: next epoch %d, the leader's %d", got, want)
	}
	if got, want := sds.OpenWaves(), lds.OpenWaves(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened standby: open waves %+v, the leader's %+v", got, want)
	}
	if got, want := sds.GoalStates(), lds.GoalStates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened standby: goal states %+v, the leader's %+v", got, want)
	}
}

// replTap counts the replication frames its host offers one peer: bytes,
// frames and Reset batches.
type replTap struct {
	Transport
	to model.HostID

	mu                    sync.Mutex
	bytes, frames, resets int
}

func (tp *replTap) Send(to model.HostID, data []byte, sizeKB float64) error {
	if e, err := DecodeEvent(data); err == nil && to == tp.to && e.Name == EvReplicate {
		tp.mu.Lock()
		tp.bytes += len(data)
		tp.frames++
		tp.resets += b2i(e.Payload.(ReplBatch).Reset)
		tp.mu.Unlock()
	}
	return tp.Transport.Send(to, data, sizeKB)
}

func (tp *replTap) counts() (bytes, frames, resets int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.bytes, tp.frames, tp.resets
}

// TestPartitionedStandbyCatchesUpWithOneReset: the leader commits 200
// waves, and compacts, while its standby is partitioned away, ticking
// replication after each. What it offers the standby stays small — each
// record about once, then keepalives — and Synced stays false. Once the
// partition heals, the standby catches up with exactly one Reset batch,
// and only then is it synced, holding the leader's live records.
func TestPartitionedStandbyCatchesUpWithOneReset(t *testing.T) {
	hosts := []model.HostID{"h1", "h2", "h3"}
	var tap *replTap
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "h1" {
			return tr
		}
		tap = &replTap{Transport: tr, to: "h2"}
		return tap
	}, hosts...)
	ha := newHAWorldOn(t, w, 20*time.Millisecond, hosts...)
	ha.addCounter(t, "h3", "c1", 0)
	if won, err := ha.leadA.Campaign(); err != nil || !won {
		t.Fatalf("campaign: won=%v err=%v", won, err)
	}
	waitFor(t, func() bool { return ha.leadA.Synced("h2") })
	if err := ha.fabric.SetPartitioned("h1", "h2", true); err != nil {
		t.Fatal(err)
	}
	bytes0, frames0, resets0 := tap.counts()
	at := model.HostID("h3")
	for i := 0; i < 200; i++ {
		to := map[model.HostID]model.HostID{"h1": "h3", "h3": "h1"}[at]
		res, err := ha.deployer.Enact(map[string]model.HostID{"c1": to}, map[string]model.HostID{"c1": at}, 5*time.Second)
		if err != nil || !res.Committed {
			t.Fatalf("wave %d: res=%+v err=%v", i+1, res, err)
		}
		at = to
		ha.leadA.ReplicationTick()
		if ha.leadA.Synced("h2") {
			t.Fatalf("the partitioned standby is synced after wave %d", i+1)
		}
	}
	lds := ha.stores["h1"]
	lds.mu.Lock()
	base := lds.base
	lds.mu.Unlock()
	if base <= 1 {
		t.Fatalf("the leader never compacted: base %d", base)
	}
	bytes, frames, resets := tap.counts()
	t.Logf("offered the partitioned standby %d bytes in %d frames, %d of them Resets, over 200 waves", bytes-bytes0, frames-frames0, resets-resets0)
	if bytes-bytes0 > 580_000 {
		t.Fatalf("offered the partitioned standby %d bytes, want at most 580 KB", bytes-bytes0)
	}
	if err := ha.fabric.SetPartitioned("h1", "h2", false); err != nil {
		t.Fatal(err)
	}
	// One exchange at a time: each tick's ack is folded before the next
	// tick, so no ack older than a Reset rewinds the stream behind it.
	for ticks := 0; !ha.leadA.Synced("h2"); ticks++ {
		if ticks == 5 {
			t.Fatalf("the healed standby is not synced after %d ticks", ticks)
		}
		ha.leadA.ReplicationTick()
		waitFor(t, func() bool { return read(ha.leadA, func(c *leaseCore) bool { return c.sent[0] == c.acked[0] }) })
	}
	if _, _, n := tap.counts(); n-resets != 1 {
		t.Fatalf("the healed standby caught up with %d Reset batches, want 1", n-resets)
	}
	if got, want := ha.stores["h2"].LiveRecords(), lds.LiveRecords(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the synced standby's live records differ from the leader's:\n got %v\nwant %v", got, want)
	}
}
