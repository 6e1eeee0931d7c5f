package prism

import (
	"errors"
	"fmt"
	"slices"
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
	// RecEpochPrepared is read, never written: older builds marked every
	// destination's done report in with it. Recovery never needed it, so
	// a log that holds one folds it as nothing.
	RecEpochPrepared byte = 2
	// RecEpochDecided persists the commit/abort decision. The outcome is
	// never broadcast before this record is durable, so a restart can
	// only ever re-announce the same decision. A commit's goal-state
	// records ride in the same write, after it.
	RecEpochDecided byte = 3
	// RecEpochClosed marks the outcome fully acknowledged; the epoch
	// needs nothing from a restart. The post-wave snapshot rides in the
	// same write, after it.
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

// walRecord is a record body: its kind, and its fields appended after
// the format.
type walRecord interface {
	kind() byte
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

// epochMarkRec is a closed record, or an older build's prepared one.
type epochMarkRec struct {
	Kind  byte
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

func (epochOpenRec) kind() byte    { return RecEpochOpen }
func (r epochMarkRec) kind() byte  { return r.Kind }
func (epochDecidedRec) kind() byte { return RecEpochDecided }
func (snapshotRec) kind() byte     { return RecSnapshot }
func (goalStateRec) kind() byte    { return RecGoalState }

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
		out = epochMarkRec{Kind: rec.Kind, Epoch: r.int()}
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

	// crashKind/onCrash are the kill -9 stand-in: at the next write that
	// carries a record of crashKind the store dies and onCrash runs —
	// after the write is durable (CrashAfter), or before any of it lands
	// when crashBefore is set (CrashBefore).
	crashKind   byte
	crashBefore bool
	onCrash     func()

	// observeKind/onObserve are the non-fatal sibling of CrashAfter:
	// after the next record of observeKind lands (and has been offered
	// to replication), fn runs once — the store stays alive. Drills use
	// it to partition the network at a named checkpoint.
	observeKind byte
	onObserve   func()

	// replFlush (the leadership's ReplicationTick) offers an eager
	// append's records to the standbys, after ds.mu is released and
	// strictly before any armed crash hook: a record that became durable
	// here is offered before the leader can die of it.
	replFlush func()

	// The replication stream numbers the records append writes: base is
	// the position of the level the log was last rewritten to (or opened
	// with), and tail holds the records appended since. replSeq is the
	// standby side's: the position of the leader's stream applied this
	// term (ingested records are the leader's, not numbered here).
	base    uint64
	tail    []store.Record
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
		log: log, nextEpoch: 1, base: 1,
		waves: make(map[int]*DurableWave),
		goals: make(map[model.HostID]goalStateRec),
	}
	for _, r := range recs {
		rec, err := decodeRecord(r)
		if err != nil {
			log.Close()
			return nil, err
		}
		ds.foldLocked(rec)
	}
	return ds, nil
}

// foldLocked folds one decoded record into the in-memory mirror. An
// older build's prepared record folds as nothing.
func (ds *DeployerStore) foldLocked(rec walRecord) {
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
		if rec.Kind == RecEpochClosed {
			delete(ds.waves, rec.Epoch)
			ds.closedN++
			bump(rec.Epoch)
		}
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

// append durably writes recs as one batch and offers them to the
// standbys at once.
func (ds *DeployerStore) append(recs ...walRecord) error {
	return ds.appendPolicy(true, recs...)
}

// appendPolicy durably writes recs, in order, as one batch — one write
// and one fsync; a single record is a batch of one. Every record is
// decoded from its bytes before anything is written, and the mirror
// folds those decoded values, never the ones passed in, so it is always
// what replay would build. Once the batch is durable, each record is
// folded and numbered onto the replication tail in WAL order, the
// standbys are offered it, enough closed epochs compact the log, and the
// armed hooks fire per matching record, in record order.
//
// eager=false leaves the replication send to the next natural flush (a
// later eager append, a campaign win, or a replication tick). Goal-state
// records written on their own use this: they are derivable from the
// decided wave records they trail, so a standby that misses the eager
// send reconstructs them during Resume, and a burst of per-host
// checkpoints must not spawn a matching burst of control sends.
func (ds *DeployerStore) appendPolicy(eager bool, recs ...walRecord) error {
	batch := make([]store.Record, len(recs))
	decoded := make([]walRecord, len(recs))
	for i, rec := range recs {
		batch[i] = store.Record{Kind: rec.kind(), Data: encodeRecord(rec)}
		d, err := decodeRecord(batch[i])
		if err != nil {
			return err
		}
		decoded[i] = d
	}
	ds.mu.Lock()
	if ds.dead {
		ds.mu.Unlock()
		return store.ErrClosed
	}
	crashAt := -1 // the record an armed crash fires after
	if ds.crashKind != 0 {
		crashAt = slices.IndexFunc(batch, func(r store.Record) bool { return r.Kind == ds.crashKind })
	}
	if crashAt >= 0 && ds.crashBefore {
		// The kill lands before the write: nothing of the batch survives.
		hook := ds.die()
		ds.mu.Unlock()
		if hook != nil {
			hook()
		}
		return store.ErrClosed
	}
	if err := ds.log.AppendBatch(batch); err != nil {
		ds.mu.Unlock()
		return err
	}
	for _, rec := range decoded {
		ds.foldLocked(rec)
	}
	ds.tail = append(ds.tail, batch...)
	var crash func()
	if crashAt >= 0 {
		// The batch IS durable — the crash happens strictly after the
		// checkpoint, which is the transition the drills target.
		crash = ds.die()
	}
	flush := ds.replFlush
	ds.mu.Unlock()
	// Replication strictly precedes compaction and the hooks: even when
	// this batch held the arranged crash point, the now-durable records
	// stream out first — matching a real crash, where the fsync'd write
	// survives — and a standby offered them is not left below the base.
	if eager && flush != nil {
		flush()
	}
	ds.mu.Lock()
	if !ds.dead && ds.closedN >= compactAfter {
		_ = ds.compactLocked()
	}
	ds.mu.Unlock()
	observed := batch
	if crashAt >= 0 {
		observed = batch[:crashAt+1] // the process dies at the crash record
	}
	for _, r := range observed {
		// A hook re-armed from its own callback sees the later records.
		ds.mu.Lock()
		var observe func()
		if ds.observeKind != 0 && r.Kind == ds.observeKind {
			observe, ds.observeKind, ds.onObserve = ds.onObserve, 0, nil
		}
		ds.mu.Unlock()
		if observe != nil {
			observe()
		}
	}
	if crash != nil {
		crash()
	}
	return nil
}

// die marks the store dead — every later write fails with
// store.ErrClosed — disarms the crash, and returns its hook. Caller
// holds ds.mu.
func (ds *DeployerStore) die() func() {
	hook := ds.onCrash
	ds.dead, ds.crashKind, ds.crashBefore, ds.onCrash = true, 0, false, nil
	ds.log.MarkDead()
	return hook
}

// liveRecordsLocked serializes the mirror down to live state: one
// snapshot record (carrying the epoch high-water mark and fencing term)
// plus the record chain of every still-open wave. This is both the
// compaction rewrite and the Reset batch that hydrates a standby.
// Caller holds ds.mu.
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
	if err := ds.rewriteLocked(recs); err != nil {
		return err
	}
	ds.snap = snap
	return nil
}

// rewriteLocked replaces the log with recs, the level at the current
// position, which becomes the base. Caller holds ds.mu.
func (ds *DeployerStore) rewriteLocked(recs []store.Record) error {
	if err := ds.log.Compact(recs); err != nil {
		return err
	}
	ds.base, ds.tail, ds.closedN = ds.base+uint64(len(ds.tail)), nil, 0
	return nil
}

// position returns the replication stream's position: that of the last
// record appended, or of the level the log was last rewritten to.
func (ds *DeployerStore) position() uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.base + uint64(len(ds.tail))
}

// offer returns the batch that brings a peer at position after to the
// store's position (offerAfter's rule).
func (ds *DeployerStore) offer(after uint64) (seq uint64, reset bool, recs []store.Record) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return offerAfter(after, ds.base, ds.tail, func() []store.Record { live, _ := ds.liveRecordsLocked(); return live })
}

// offerAfter is the replication rule over a level at position base and
// the tail after it. A peer at or past the base gets the tail past its
// position, Seq numbering the first record (none: the keepalive). A peer
// below it — holding nothing, or records a compaction folded away — gets
// the level, live(), as one Reset batch at the position it stands at.
func offerAfter(after, base uint64, tail []store.Record, live func() []store.Record) (uint64, bool, []store.Record) {
	pos := base + uint64(len(tail))
	if after < base {
		return pos, true, live()
	}
	after = min(after, pos)
	return after + 1, false, tail[after-base : len(tail) : len(tail)]
}

// Ingest applies one replicated batch to the standby's WAL and mirror,
// idempotently: a batch whose records are all already applied is a
// no-op (duplicate delivery, or the keepalive), a batch beyond the
// high-water mark is ignored (out-of-order delivery; the leader offers
// again from the ack), and a Reset batch past the mark replaces the log
// with exactly its records, the leader's level at position seq. A batch
// holding a record that does not decode is refused whole, before
// anything is written. Enough closed epochs compact the log, as on the
// leader. Returns the high-water mark after the call — the ack value.
func (ds *DeployerStore) Ingest(seq uint64, reset bool, recs []store.Record) (uint64, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.dead {
		return ds.replSeq, store.ErrClosed
	}
	last := seq + uint64(len(recs)) - 1
	switch {
	case reset && seq <= ds.replSeq, !reset && (len(recs) == 0 || last <= ds.replSeq):
		return ds.replSeq, nil // fully covered: duplicate or stale redelivery
	case reset:
		last = seq
	case seq > ds.replSeq+1:
		return ds.replSeq, nil // gap: wait for the leader to offer the suffix again
	default:
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
		if err := ds.rewriteLocked(recs); err != nil {
			return ds.replSeq, err
		}
		ds.nextEpoch = 1
		ds.waves = make(map[int]*DurableWave)
		ds.snap = snapshotRec{}
		ds.goals = make(map[model.HostID]goalStateRec)
	} else if err := ds.log.AppendBatch(recs); err != nil {
		return ds.replSeq, err
	}
	for _, rec := range decoded {
		ds.foldLocked(rec)
	}
	ds.replSeq = last
	if ds.closedN >= compactAfter {
		_ = ds.compactLocked()
	}
	return ds.replSeq, nil
}

// Term returns the persisted fencing term (zero before any election).
func (ds *DeployerStore) Term() uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.snap.Term
}

// SaveTerm durably records a fencing term the deployer acknowledged, and
// clears the ingest high-water mark: the new term's leader numbers its
// own stream, which starts with a Reset batch. The record is not sent on
// its own: a won term's first flush carries it.
func (ds *DeployerStore) SaveTerm(term uint64) error {
	ds.mu.Lock()
	ds.replSeq = 0
	snap := ds.snap
	snap.Term = term
	snap.NextEpoch = ds.nextEpoch
	ds.mu.Unlock()
	return ds.appendPolicy(false, snap)
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

// stamp fills a soft-state snapshot's epoch high-water mark and the
// persisted fencing term, which soft-state snapshots never carry.
func (ds *DeployerStore) stamp(snap snapshotRec) snapshotRec {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	snap.NextEpoch = ds.nextEpoch
	if snap.Term == 0 {
		snap.Term = ds.snap.Term
	}
	return snap
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
// drills: once the next write carrying a record of the given kind lands
// durably, whole, the store marks itself dead — every later write fails
// with store.ErrClosed — and, after the observers of the records up to
// that one, fn runs (typically closing the deployer). The checkpoint
// itself survives; only everything after it is lost, exactly like a
// crash between the fsync and the next instruction.
func (ds *DeployerStore) CrashAfter(kind byte, fn func()) {
	ds.armCrash(kind, false, fn)
}

// CrashBefore arms the same stand-in one step earlier: the next write
// carrying a record of the given kind never lands — nothing of it is
// durable — the store marks itself dead, fn runs, and the write fails
// with store.ErrClosed, as a crash just before the fsync would leave it.
func (ds *DeployerStore) CrashBefore(kind byte, fn func()) {
	ds.armCrash(kind, true, fn)
}

func (ds *DeployerStore) armCrash(kind byte, before bool, fn func()) {
	ds.mu.Lock()
	ds.crashKind, ds.crashBefore, ds.onCrash = kind, before, fn
	ds.mu.Unlock()
}

// ObserveAppend arms a one-shot, NON-fatal hook: fn runs immediately
// after the next record of the given kind lands durably (its whole
// write, offered to replication), with the store still alive; re-armed
// from fn, it sees the later records of the same write. Failover drills
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

// checkpoint performs the write a wave asked for and returns its result,
// with the detector's current verdicts, as the wave's next input. The
// write carries the records o.recs names, in that order, as one batch:
// RecGoalState folds the wave's moves into the goal table (one record
// per touched host), and RecSnapshot records a committed wave's
// relocations first so the snapshot carries them. The goal table takes
// the fold only once the write is durable, except for a goal-only write
// (a resumed commit's re-fold, whose decision already is), which is
// best-effort. Without a store every write succeeds.
func (d *DeployerComponent) checkpoint(c *waveCore, o waveOutput) waveInput {
	d.mu.Lock()
	ds := d.store
	d.mu.Unlock()
	in := waveInput{kind: inCheckpoint, dead: d.deadAmong(c.parts)}
	var recs []walRecord
	var fold map[model.HostID]*goalEntry
	for _, kind := range o.recs {
		switch kind {
		case RecEpochOpen:
			recs = append(recs, epochOpenRec{Epoch: c.epoch, Moves: c.moves, Participants: c.parts, Coordinator: c.coordinator})
		case RecEpochDecided:
			recs = append(recs, epochDecidedRec{Epoch: c.epoch, Commit: o.commit})
		case RecGoalState:
			var goals []walRecord
			fold, goals = d.foldWave(c.moves)
			recs = append(recs, goals...)
		case RecEpochClosed:
			recs = append(recs, epochMarkRec{Kind: RecEpochClosed, Epoch: c.epoch})
		case RecSnapshot:
			if c.committed() {
				d.recordRelocations(c.moves)
			}
			if ds != nil {
				recs = append(recs, d.softSnapshot(ds))
			}
		}
	}
	goalOnly := o.recs[0] == RecGoalState
	if ds != nil && len(recs) > 0 {
		in.err = ds.appendPolicy(!goalOnly, recs...)
	}
	if fold != nil && (in.err == nil || goalOnly) {
		in.gens = d.installFold(fold)
	}
	if goalOnly {
		in.err = nil
	}
	return in
}

// ckptGoal persists the hosts' goal-state entries as one write, in host
// order (best-effort: a dead store must never fail a wave — Resume's
// idempotent re-apply heals the gap, and a memory-only deployer simply
// keeps the table soft). The replication send waits for the next flush.
func (d *DeployerComponent) ckptGoal(hosts ...model.HostID) {
	sortHostIDs(hosts)
	d.mu.Lock()
	ds := d.store
	var recs []walRecord
	if ds != nil {
		for _, h := range hosts {
			recs = append(recs, d.goal.entry(h).record(h))
		}
	}
	d.mu.Unlock()
	if len(recs) > 0 {
		_ = ds.appendPolicy(false, recs...)
	}
}

// softSnapshot captures the relocation table, dedup windows, and
// incarnation map, stamped by ds.
func (d *DeployerComponent) softSnapshot(ds *DeployerStore) snapshotRec {
	fd := d.Detector()
	var snap snapshotRec
	if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
		snap.Reloc = dc.RelocationSnapshot()
		snap.Dedup = dc.SnapshotDedup("")
	}
	if fd != nil {
		snap.Incarnations = fd.Incarnations()
	}
	return ds.stamp(snap)
}

// ckptSnapshot persists the soft state (best-effort, last-wins).
func (d *DeployerComponent) ckptSnapshot() {
	d.mu.Lock()
	ds := d.store
	d.mu.Unlock()
	if ds != nil {
		_ = ds.append(d.softSnapshot(ds))
	}
}
