package prism

import (
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
// died hears no leader at all. Its watch runs from attach time, so 2×TTL
// of silence makes it suspect, and it campaigns.
func TestStandbySuspectsUnheardLeader(t *testing.T) {
	ha := newHAWorld(t, "h1", "h2", "h3")
	if ha.leadB.LeaderSuspect(ha.clk.Now()) {
		t.Fatal("standby suspects a leader at attach time")
	}
	if ha.leadB.LeaderSuspect(ha.clk.Advance(2*DefaultLeaseTTL - time.Millisecond)) {
		t.Fatal("standby suspects before 2×TTL of silence")
	}
	if !ha.leadB.LeaderSuspect(ha.clk.Advance(time.Millisecond)) {
		t.Fatal("standby never suspects a leader it has never heard")
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

// leaderStream runs two epochs against a leader store with the
// replication tap installed and returns the enqueued record stream.
func leaderStream(t *testing.T, ds *DeployerStore) []store.Record {
	t.Helper()
	var stream []store.Record
	ds.SetReplicator(func(kind byte, data []byte) {
		stream = append(stream, store.Record{Kind: kind, Data: data})
	}, func() {})
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
	return stream
}

// TestReplicationIngestIdempotent feeds the same leader stream to three
// standbys — once cleanly, once with every batch duplicated, once with
// out-of-order redelivery — and requires byte-identical WALs and mirrors.
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
	if n, err := clean.Ingest(1, true, stream); err != nil || n != uint64(len(stream)) {
		t.Fatalf("clean ingest: n=%d err=%v", n, err)
	}

	// Duplicated: every batch delivered twice, split into two halves.
	half := len(stream) / 2
	for i := 0; i < 2; i++ {
		if _, err := dup.Ingest(1, true, stream[:half]); err != nil {
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
	if _, err := ooo.Ingest(1, true, stream[:half]); err != nil {
		t.Fatal(err)
	}
	if n, err := ooo.Ingest(2, false, stream[1:half]); err != nil || n != uint64(half) {
		t.Fatalf("covered overlap: n=%d err=%v", n, err)
	}
	if _, err := ooo.Ingest(uint64(half)+1, false, stream[half:]); err != nil {
		t.Fatal(err)
	}

	for _, ds := range []*DeployerStore{clean, dup, ooo} {
		if got := ds.ReplProgress(); got != uint64(len(stream)) {
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
