package prism

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dif/internal/model"
	"dif/internal/store"
)

// Durable record kinds in the deployer's write-ahead checkpoint log.
// Exported so chaos drills can target a crash at a named two-phase
// transition.
const (
	// RecEpochOpen marks a wave admitted to phase one: epoch number,
	// moves, and participant set are durable before the first reconfig
	// command is dispatched.
	RecEpochOpen byte = 1
	// RecEpochPrepared marks every destination's done report in: the
	// wave may commit.
	RecEpochPrepared byte = 2
	// RecEpochDecided persists the commit/abort decision. The outcome is
	// never broadcast before this record is durable, so a restart can
	// only ever re-announce the same decision.
	RecEpochDecided byte = 3
	// RecEpochClosed marks the outcome fully acknowledged; the epoch
	// needs nothing from a restart.
	RecEpochClosed byte = 4
	// RecSnapshot is the last-wins snapshot of the relocation table,
	// dedup windows, and incarnation map.
	RecSnapshot byte = 5
	// RecGoalState is one host's goal-state entry (generation + desired
	// manifest), last-wins per host. Written on every goal transition, so
	// generations survive restarts and replicate to standbys alongside
	// the wave records.
	RecGoalState byte = 6
)

// compactAfter is how many closed epochs may accumulate in the log
// before it is rewritten down to live state.
const compactAfter = 64

// walFormat leads every record this build writes: a uvarint, then the
// record's fields in the binary codec's encodings (codec.go), then a
// length-prefixed extension tail that same-format readers skip. Format 1
// was JSON; a log holding it, or any other format, is refused at Open
// and at Ingest — there is no compatibility reader.
const walFormat = 2

// walRecord is a record body: it appends its fields after the format.
type walRecord interface {
	appendFields(dst []byte) []byte
}

type epochOpenRec struct {
	Epoch        int
	Moves        map[string]model.HostID
	Participants []model.HostID
	// Coordinator is the host whose deployer opened the wave. A standby
	// promoted mid-wave resumes under the ORIGINAL coordinator identity —
	// participant admins key their two-phase state by (coordinator,
	// epoch), and renaming the wave would strand it.
	Coordinator model.HostID
}

type epochMarkRec struct {
	Epoch int
}

type goalStateRec struct {
	Host     model.HostID
	Gen      uint64
	Manifest []GoalComponent
}

type epochDecidedRec struct {
	Epoch  int
	Commit bool
}

type snapshotRec struct {
	// NextEpoch preserves epoch monotonicity across compactions that
	// drop every numbered record.
	NextEpoch    int
	Reloc        map[string]model.HostID
	Dedup        []DedupSnapshot
	Incarnations map[model.HostID]uint64
	// Term is the highest fencing term this deployer has seen; persisted
	// so a restarted deployer never campaigns below a term it already
	// acknowledged, and replicated so standbys inherit it.
	Term uint64
}

func (r epochOpenRec) appendFields(b []byte) []byte {
	b = appendInt(b, r.Epoch)
	b = appendHostMap(b, r.Moves)
	b = appendStrings(b, r.Participants)
	return appendString(b, string(r.Coordinator))
}

func (r epochMarkRec) appendFields(b []byte) []byte { return appendInt(b, r.Epoch) }

func (r epochDecidedRec) appendFields(b []byte) []byte {
	return appendBool(appendInt(b, r.Epoch), r.Commit)
}

func (r goalStateRec) appendFields(b []byte) []byte {
	b = appendString(b, string(r.Host))
	b = appendUvarint(b, r.Gen)
	return appendGoalComponents(b, r.Manifest)
}

func (r snapshotRec) appendFields(b []byte) []byte {
	b = appendInt(b, r.NextEpoch)
	b = appendHostMap(b, r.Reloc)
	b = appendDedup(b, r.Dedup)
	b = appendHostCounts(b, r.Incarnations)
	return appendUvarint(b, r.Term)
}

// encodeRecord serializes a record body at walFormat.
func encodeRecord(rec walRecord) []byte {
	b := appendUvarint(make([]byte, 0, 64), walFormat)
	return appendUvarint(rec.appendFields(b), 0) // extension tail: empty
}

// decodeRecord parses one record strictly: a foreign format, an unknown
// kind, a malformed field or trailing bytes are errors.
func decodeRecord(rec store.Record) (walRecord, error) {
	if len(rec.Data) > 0 && rec.Data[0] == '{' {
		return nil, fmt.Errorf("deployer store: kind-%d record is format 1 (JSON, an older build); this build reads format %d only",
			rec.Kind, walFormat)
	}
	r := &binReader{b: rec.Data}
	if f := r.uvarint(); r.err == nil && f != walFormat {
		return nil, fmt.Errorf("deployer store: kind-%d record is format %d; this build reads format %d only", rec.Kind, f, walFormat)
	}
	var out walRecord
	switch rec.Kind {
	case RecEpochOpen:
		out = epochOpenRec{Epoch: r.int(), Moves: r.hostMap(), Participants: readStrings[model.HostID](r), Coordinator: r.host()}
	case RecEpochPrepared, RecEpochClosed:
		out = epochMarkRec{Epoch: r.int()}
	case RecEpochDecided:
		out = epochDecidedRec{Epoch: r.int(), Commit: r.bool()}
	case RecSnapshot:
		out = snapshotRec{NextEpoch: r.int(), Reloc: r.hostMap(), Dedup: r.dedup(), Incarnations: r.hostCounts(), Term: r.uvarint()}
	case RecGoalState:
		out = goalStateRec{Host: r.host(), Gen: r.uvarint(), Manifest: r.goalComponents()}
	default:
		return nil, fmt.Errorf("deployer store: unknown record kind %d", rec.Kind)
	}
	r.skipTail()
	if r.err == nil && r.off != len(r.b) {
		r.failf("%d trailing bytes", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, fmt.Errorf("deployer store: bad kind-%d record: %w", rec.Kind, r.err)
	}
	return out, nil
}

// DurableWave is one epoch's reconstructed two-phase progress.
type DurableWave struct {
	Epoch        int
	Moves        map[string]model.HostID
	Participants []model.HostID
	Coordinator  model.HostID
	Prepared     bool
	Decided      bool
	Commit       bool
}

// DeployerStore is the deployer's durable checkpoint: a typed facade
// over the write-ahead log in internal/store, plus an in-memory mirror
// of the live state that replay rebuilds and compaction re-serializes.
type DeployerStore struct {
	mu   sync.Mutex
	log  *store.Log
	dead bool

	nextEpoch int
	waves     map[int]*DurableWave
	snap      snapshotRec
	closedN   int
	// goals mirrors the latest goal-state record per host (acked
	// generations are soft state: agents re-announce after any restart).
	goals map[model.HostID]goalStateRec

	// crashKind/onCrash are the kill -9 stand-in: after the next record
	// of crashKind lands durably, the store dies and onCrash runs.
	crashKind byte
	onCrash   func()

	// observeKind/onObserve are the non-fatal sibling of CrashAfter:
	// after the next record of observeKind lands (and has been offered
	// to replication), fn runs once — the store stays alive. Drills use
	// it to partition the network at a named checkpoint.
	observeKind byte
	onObserve   func()

	// replEnqueue/replFlush tap the append stream for leader→standby
	// replication. Enqueue runs under ds.mu (its ordering matches the
	// WAL exactly); flush runs after release, strictly before any armed
	// crash hook — a record that became durable here is offered to
	// standbys before the leader can die of it.
	replEnqueue func(kind byte, data []byte)
	replFlush   func()

	// replSeq is the standby-side ingest high-water mark: the sequence
	// number of the last replicated record applied this term.
	replSeq uint64
}

// OpenDeployerStore opens (or creates) the checkpoint log in dir,
// acquires its process lock, and replays it. A second live opener gets
// store.ErrLocked; corruption is a hard error.
func OpenDeployerStore(dir string) (*DeployerStore, error) {
	log, recs, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	ds := &DeployerStore{
		log: log, nextEpoch: 1,
		waves: make(map[int]*DurableWave),
		goals: make(map[model.HostID]goalStateRec),
	}
	for _, r := range recs {
		rec, err := decodeRecord(r)
		if err != nil {
			log.Close()
			return nil, err
		}
		ds.foldLocked(r.Kind, rec)
	}
	return ds, nil
}

// foldLocked folds one decoded record into the in-memory mirror.
func (ds *DeployerStore) foldLocked(kind byte, rec walRecord) {
	bump := func(epoch int) {
		if epoch >= ds.nextEpoch {
			ds.nextEpoch = epoch + 1
		}
	}
	switch rec := rec.(type) {
	case epochOpenRec:
		ds.waves[rec.Epoch] = &DurableWave{
			Epoch: rec.Epoch, Moves: rec.Moves, Participants: rec.Participants,
			Coordinator: rec.Coordinator,
		}
		bump(rec.Epoch)
	case epochMarkRec:
		if kind == RecEpochClosed {
			delete(ds.waves, rec.Epoch)
			ds.closedN++
		} else if wv := ds.waves[rec.Epoch]; wv != nil {
			wv.Prepared = true
		}
		bump(rec.Epoch)
	case epochDecidedRec:
		if wv := ds.waves[rec.Epoch]; wv != nil {
			wv.Decided = true
			wv.Commit = rec.Commit
		}
		bump(rec.Epoch)
	case snapshotRec:
		ds.snap = rec
		if rec.NextEpoch > ds.nextEpoch {
			ds.nextEpoch = rec.NextEpoch
		}
	case goalStateRec:
		ds.goals[rec.Host] = rec
	}
}

// append encodes and durably writes one record, keeps the mirror
// current, fires an armed crash hook, and compacts when enough closed
// epochs have piled up.
func (ds *DeployerStore) append(kind byte, rec walRecord) error {
	return ds.appendPolicy(kind, rec, true)
}

// appendPolicy is append with the replication flush made optional.
// eager=false still enqueues the record into the replication log in WAL
// order, but leaves the network send to the next natural flush (a later
// append, a campaign win, or a replication tick). Goal-state records use
// this: they are derivable from the decided wave records they trail, so
// a standby that misses the eager send reconstructs them during Resume,
// and a burst of per-host checkpoints must not spawn a matching burst of
// control sends.
//
// The mirror folds the record decoded from its bytes, never the value
// passed in, so it is always what replay would build.
func (ds *DeployerStore) appendPolicy(kind byte, rec walRecord, eager bool) error {
	data := encodeRecord(rec)
	decoded, err := decodeRecord(store.Record{Kind: kind, Data: data})
	if err != nil {
		return err
	}
	ds.mu.Lock()
	if ds.dead {
		ds.mu.Unlock()
		return store.ErrClosed
	}
	if err := ds.log.Append(kind, data); err != nil {
		ds.mu.Unlock()
		return err
	}
	ds.foldLocked(kind, decoded)
	if ds.replEnqueue != nil {
		ds.replEnqueue(kind, data)
	}
	var hook func()
	if ds.crashKind != 0 && kind == ds.crashKind {
		// The record IS durable — the crash happens strictly after the
		// checkpoint, which is the transition the drills target.
		ds.dead = true
		ds.crashKind = 0
		hook = ds.onCrash
		ds.onCrash = nil
		ds.log.MarkDead()
	}
	var observe func()
	if ds.observeKind != 0 && kind == ds.observeKind {
		observe = ds.onObserve
		ds.observeKind = 0
		ds.onObserve = nil
	}
	var flush func()
	if eager {
		flush = ds.replFlush
	}
	if hook == nil && ds.closedN >= compactAfter {
		_ = ds.compactLocked()
	}
	ds.mu.Unlock()
	// Replication strictly precedes the hooks: even when this append was
	// the arranged crash point, the now-durable record streams out first
	// — matching a real crash, where the fsync'd write survives.
	if flush != nil {
		flush()
	}
	if observe != nil {
		observe()
	}
	if hook != nil {
		hook()
	}
	return nil
}

// liveRecordsLocked serializes the mirror down to live state: one
// snapshot record (carrying the epoch high-water mark and fencing term)
// plus the record chain of every still-open wave. This is both the
// compaction rewrite and the replication iterator — the full prefix a
// new leadership session streams to its standbys. Caller holds ds.mu.
func (ds *DeployerStore) liveRecordsLocked() ([]store.Record, snapshotRec) {
	snap := ds.snap
	snap.NextEpoch = ds.nextEpoch
	recs := []store.Record{{Kind: RecSnapshot, Data: encodeRecord(snap)}}
	for _, h := range sortedKeys(ds.goals) {
		recs = append(recs, store.Record{Kind: RecGoalState, Data: encodeRecord(ds.goals[h])})
	}
	epochs := make([]int, 0, len(ds.waves))
	for e := range ds.waves {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	for _, e := range epochs {
		wv := ds.waves[e]
		open := epochOpenRec{Epoch: wv.Epoch, Moves: wv.Moves, Participants: wv.Participants, Coordinator: wv.Coordinator}
		recs = append(recs, store.Record{Kind: RecEpochOpen, Data: encodeRecord(open)})
		if wv.Prepared {
			recs = append(recs, store.Record{Kind: RecEpochPrepared, Data: encodeRecord(epochMarkRec{Epoch: wv.Epoch})})
		}
		if wv.Decided {
			recs = append(recs, store.Record{Kind: RecEpochDecided, Data: encodeRecord(epochDecidedRec{Epoch: wv.Epoch, Commit: wv.Commit})})
		}
	}
	return recs, snap
}

// LiveRecords returns the store's live state as a record stream.
func (ds *DeployerStore) LiveRecords() []store.Record {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	recs, _ := ds.liveRecordsLocked()
	return recs
}

// compactLocked rewrites the log down to live state. Caller holds ds.mu.
func (ds *DeployerStore) compactLocked() error {
	recs, snap := ds.liveRecordsLocked()
	if err := ds.log.Compact(recs); err != nil {
		return err
	}
	ds.closedN = 0
	ds.snap = snap
	return nil
}

// Ingest applies one replicated batch to the standby's WAL and mirror,
// idempotently: a batch whose records are all already applied is a
// no-op (duplicate delivery), a batch beyond the high-water mark is
// ignored (out-of-order delivery; the leader retransmits the suffix),
// and a Reset batch replaces the log with exactly its records (the new
// leadership session's full live prefix). A batch holding a record that
// does not decode is refused whole, before anything is written. Returns
// the high-water mark after the call — the ack value.
func (ds *DeployerStore) Ingest(seq uint64, reset bool, recs []store.Record) (uint64, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.dead {
		return ds.replSeq, store.ErrClosed
	}
	last := seq + uint64(len(recs)) - 1
	if len(recs) == 0 || last <= ds.replSeq {
		return ds.replSeq, nil // fully covered: duplicate or stale redelivery
	}
	reset = reset && seq == 1
	if !reset && seq > ds.replSeq+1 {
		return ds.replSeq, nil // gap: wait for the retransmitted suffix
	}
	if !reset {
		recs = recs[ds.replSeq-seq+1:]
	}
	// Decode the whole batch before anything is written: a record that
	// does not parse must leave neither the log nor the mirror touched.
	decoded := make([]walRecord, len(recs))
	for i, r := range recs {
		rec, err := decodeRecord(r)
		if err != nil {
			return ds.replSeq, err
		}
		decoded[i] = rec
	}
	if reset {
		if err := ds.log.Compact(recs); err != nil {
			return ds.replSeq, err
		}
		ds.nextEpoch = 1
		ds.waves = make(map[int]*DurableWave)
		ds.snap = snapshotRec{}
		ds.goals = make(map[model.HostID]goalStateRec)
		ds.closedN = 0
	} else if err := ds.log.AppendBatch(recs); err != nil {
		return ds.replSeq, err
	}
	for i, r := range recs {
		ds.foldLocked(r.Kind, decoded[i])
	}
	ds.replSeq = last
	return ds.replSeq, nil
}

// ResetReplProgress clears the ingest high-water mark. The leadership
// layer calls it when a higher term appears: the new leader's stream
// restarts its numbering from a Reset batch.
func (ds *DeployerStore) ResetReplProgress() {
	ds.mu.Lock()
	ds.replSeq = 0
	ds.mu.Unlock()
}

// ReplProgress returns the standby-side ingest high-water mark.
func (ds *DeployerStore) ReplProgress() uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.replSeq
}

// SetReplicator taps the append stream for replication: enqueue runs
// under the store lock in WAL order, flush after release (and strictly
// before any armed crash hook). Pass nils to detach.
func (ds *DeployerStore) SetReplicator(enqueue func(kind byte, data []byte), flush func()) {
	ds.mu.Lock()
	ds.replEnqueue = enqueue
	ds.replFlush = flush
	ds.mu.Unlock()
}

// Term returns the persisted fencing term (zero before any election).
func (ds *DeployerStore) Term() uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.snap.Term
}

// SaveTerm durably records a fencing term the deployer acknowledged.
func (ds *DeployerStore) SaveTerm(term uint64) error {
	ds.mu.Lock()
	snap := ds.snap
	snap.Term = term
	snap.NextEpoch = ds.nextEpoch
	ds.mu.Unlock()
	return ds.append(RecSnapshot, snap)
}

// saveGoal durably records one host's goal-state entry (last-wins). The
// replication send is deferred to the next flush: goal records trail the
// wave records they are derived from, and Resume re-applies committed
// moves to the goal table, so a standby never depends on seeing them
// eagerly.
func (ds *DeployerStore) saveGoal(rec goalStateRec) error {
	return ds.appendPolicy(RecGoalState, rec, false)
}

// GoalStates returns the mirrored goal-state records keyed by host.
func (ds *DeployerStore) GoalStates() map[model.HostID]goalStateRec {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make(map[model.HostID]goalStateRec, len(ds.goals))
	for h, g := range ds.goals {
		out[h] = g
	}
	return out
}

// GoalGenerations returns the goal generation each host's mirrored
// record carries — what a deployer promoted from this store would serve.
// Drills use it to confirm the replication stream delivered the goal
// checkpoints before forcing a failover.
func (ds *DeployerStore) GoalGenerations() map[model.HostID]uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make(map[model.HostID]uint64, len(ds.goals))
	for h, g := range ds.goals {
		out[h] = g.Gen
	}
	return out
}

func (ds *DeployerStore) saveSnapshot(snap snapshotRec) error {
	ds.mu.Lock()
	snap.NextEpoch = ds.nextEpoch
	if snap.Term == 0 {
		// Soft-state snapshots never carry a term; keep the persisted one.
		snap.Term = ds.snap.Term
	}
	ds.mu.Unlock()
	return ds.append(RecSnapshot, snap)
}

// HasState reports whether the log held any records when opened — the
// restart-without-replan gate: a deployer with prior state resumes from
// it instead of re-deriving an initial distribution.
func (ds *DeployerStore) HasState() bool { return ds.log.Replayed() > 0 }

// NextEpoch returns the epoch high-water mark (first unused number).
func (ds *DeployerStore) NextEpoch() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.nextEpoch
}

// OpenWaves returns every epoch not yet closed, ascending.
func (ds *DeployerStore) OpenWaves() []DurableWave {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make([]DurableWave, 0, len(ds.waves))
	for _, wv := range ds.waves {
		out = append(out, *wv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

func (ds *DeployerStore) snapshot() snapshotRec {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.snap
}

// CrashAfter arms the kill -9 stand-in used by torture tests and chaos
// drills: immediately after the next record of the given kind lands
// durably, the store marks itself dead — every later write fails with
// store.ErrClosed — and fn runs (typically closing the deployer). The
// checkpoint itself survives; only everything after it is lost, exactly
// like a crash between the fsync and the next instruction.
func (ds *DeployerStore) CrashAfter(kind byte, fn func()) {
	ds.mu.Lock()
	ds.crashKind = kind
	ds.onCrash = fn
	ds.mu.Unlock()
}

// ObserveAppend arms a one-shot, NON-fatal hook: fn runs immediately
// after the next record of the given kind lands durably (and has been
// offered to replication), with the store still alive. Failover drills
// use it to partition the network at a named checkpoint while the
// doomed leader keeps running.
func (ds *DeployerStore) ObserveAppend(kind byte, fn func()) {
	ds.mu.Lock()
	ds.observeKind = kind
	ds.onObserve = fn
	ds.mu.Unlock()
}

// Close releases the log and its process lock.
func (ds *DeployerStore) Close() error {
	ds.mu.Lock()
	ds.dead = true
	log := ds.log
	ds.mu.Unlock()
	return log.Close()
}

// AttachStore binds a durable checkpoint store to the deployer and
// restores its soft state: the epoch high-water mark, the relocation
// table, the dedup windows (stricter-wins merge into the bus connector),
// and the incarnation map (primed into the detector now or when one is
// attached). In-flight waves are NOT resolved here — call Resume once
// the control plane is ready to carry the outcome broadcast. Attach the
// store before leadership: AttachLeadership inherits its term and taps
// its appends.
func (d *DeployerComponent) AttachStore(ds *DeployerStore) error {
	d.mu.Lock()
	if d.leadership != nil {
		d.mu.Unlock()
		return fmt.Errorf("prism: attach the store before leadership")
	}
	d.store = ds
	if ne := ds.NextEpoch(); ne > d.nextEpoch {
		d.nextEpoch = ne
	}
	fd := d.detector
	d.mu.Unlock()
	snap := ds.snapshot()
	if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
		for comp, host := range snap.Reloc {
			dc.RecordRelocation(comp, host)
		}
		dc.RestoreDedup(snap.Dedup)
	}
	if fd != nil {
		for h, inc := range snap.Incarnations {
			fd.PrimeIncarnation(h, inc)
		}
	} else if len(snap.Incarnations) > 0 {
		d.mu.Lock()
		d.restoredIncs = snap.Incarnations
		d.mu.Unlock()
	}
	// Goal-state merge: the log's entries win where they are at least as
	// new (the restart and promoted-standby cases); entries only the
	// in-memory table knows (seeded before the store was attached) are
	// pushed into the log now.
	d.ckptGoal(d.mergeGoalFromStore(ds)...)
	return nil
}

// mergeGoalFromStore folds the store's goal-state records into the
// in-memory goal table (store wins where at least as new) and returns
// the hosts only the memory table knows — the caller checkpoints those.
// Resume calls this again before resolving waves: a standby keeps
// ingesting replicated goal records long after AttachStore ran, and a
// promoted leader must serve the stream's latest generations, not the
// attach-time snapshot.
func (d *DeployerComponent) mergeGoalFromStore(ds *DeployerStore) []model.HostID {
	stored := ds.GoalStates()
	var push []model.HostID
	d.mu.Lock()
	for h, rec := range stored {
		e := d.goal.entry(h)
		if rec.Gen >= e.Gen {
			e.Gen = rec.Gen
			e.Manifest = make(map[string]string, len(rec.Manifest))
			for _, gc := range rec.Manifest {
				e.Manifest[gc.ID] = gc.Type
			}
		}
	}
	for h, e := range d.goal.entries {
		if _, ok := stored[h]; !ok && e.Gen > 0 {
			push = append(push, h)
		}
	}
	d.mu.Unlock()
	return push
}

// ResumedWave reports how Resume resolved one in-flight epoch.
type ResumedWave struct {
	Epoch int
	// Committed is the outcome that was broadcast.
	Committed bool
	// Resumed is true when the decision was already durable before the
	// crash (the broadcast picked up where it stopped); false when the
	// epoch was undecided and therefore cleanly aborted.
	Resumed bool
}

// Resume resolves every in-flight epoch found in the attached store —
// the restart-without-replan path. A decided epoch re-broadcasts its
// persisted outcome (participant admins apply outcomes idempotently and
// always re-ack, so this is safe no matter how far the dead lifetime's
// broadcast got); an undecided epoch durably records an abort and
// broadcasts that. Each wave keeps its ORIGINAL coordinator identity,
// which the participants keyed their two-phase state by; this deployer
// stamps itself as ReplyTo so acks and bounces reach the live leader. No
// epoch is ever re-planned or re-dispatched. All open waves run in the
// deployer loop together, so a straggler costs one ack budget, not one
// per wave. Waves whose outcome is fully acknowledged are closed in the log;
// stragglers stay open for the next restart.
func (d *DeployerComponent) Resume() ([]ResumedWave, error) {
	d.mu.Lock()
	ds := d.store
	d.mu.Unlock()
	if ds == nil {
		return nil, nil
	}
	// Adopt whatever goal generations the replication stream delivered
	// since AttachStore: the promoted-standby path answers announces from
	// this table the moment Resume returns.
	d.mergeGoalFromStore(ds)
	term := d.term()
	var cores []*waveCore
	for _, wv := range ds.OpenWaves() {
		cores = append(cores, resumeWave(wv, d.arch.Host(), term, d.cfg.OutcomeAckTimeout))
	}
	d.drive(cores...)
	var out []ResumedWave
	var errs []error
	for _, c := range cores {
		if errs = append(errs, c.err); c.err == nil {
			out = append(out, ResumedWave{Epoch: c.epoch, Committed: c.committed(), Resumed: c.inherited})
		}
	}
	d.ckptSnapshot()
	return out, errors.Join(errs...)
}

// RelocationView returns the coordinator's committed relocation table
// (component → host), used to rebuild the deployment view after a
// restart instead of replanning.
func (d *DeployerComponent) RelocationView() map[string]model.HostID {
	if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
		return dc.RelocationSnapshot()
	}
	return nil
}

// checkpoint performs the append a wave asked for and returns its result,
// with the detector's current verdicts, as the wave's next input.
// RecGoalState folds the wave's moves into the goal table, which
// checkpoints each touched host; without a store every other record is a
// no-op that succeeds.
func (d *DeployerComponent) checkpoint(c *waveCore, o waveOutput) waveInput {
	d.mu.Lock()
	ds := d.store
	d.mu.Unlock()
	in := waveInput{kind: inCheckpoint, dead: d.deadAmong(c.parts)}
	switch {
	case o.rec == RecGoalState:
		in.gens = d.applyWaveToGoal(c.moves)
	case ds == nil:
	case o.rec == RecEpochOpen:
		in.err = ds.append(o.rec, epochOpenRec{Epoch: c.epoch, Moves: c.moves, Participants: c.parts, Coordinator: c.coordinator})
	case o.rec == RecEpochDecided:
		in.err = ds.append(o.rec, epochDecidedRec{Epoch: c.epoch, Commit: o.commit})
	default: // prepared, closed
		in.err = ds.append(o.rec, epochMarkRec{Epoch: c.epoch})
	}
	return in
}

// ckptGoal persists the hosts' goal-state entries in host order
// (best-effort: a dead store must never fail a wave — Resume's idempotent
// re-apply heals the gap, and a memory-only deployer simply keeps the
// table soft).
func (d *DeployerComponent) ckptGoal(hosts ...model.HostID) {
	sortHostIDs(hosts)
	for _, h := range hosts {
		d.mu.Lock()
		ds := d.store
		var rec goalStateRec
		if ds != nil {
			e := d.goal.entry(h)
			rec = goalStateRec{Host: h, Gen: e.Gen}
			for _, id := range e.sortedIDs() {
				rec.Manifest = append(rec.Manifest, GoalComponent{ID: id, Type: e.Manifest[id]})
			}
		}
		d.mu.Unlock()
		if ds != nil {
			_ = ds.saveGoal(rec)
		}
	}
}

// ckptSnapshot persists the relocation table, dedup windows, and
// incarnation map (best-effort, last-wins).
func (d *DeployerComponent) ckptSnapshot() {
	d.mu.Lock()
	ds := d.store
	fd := d.detector
	d.mu.Unlock()
	if ds == nil {
		return
	}
	var snap snapshotRec
	if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
		snap.Reloc = dc.RelocationSnapshot()
		snap.Dedup = dc.SnapshotDedup("")
	}
	if fd != nil {
		snap.Incarnations = fd.Incarnations()
	}
	_ = ds.saveSnapshot(snap)
}
