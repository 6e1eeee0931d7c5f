package prism

import (
	"maps"
	"sort"

	"dif/internal/model"
	"dif/internal/obs"
)

// Goal-state control plane (the streamed successor to wave broadcast).
//
// The deployer maintains a per-agent desired manifest — the components
// each host should be running, with their factory types and the
// coordinator's relocation hints — under a monotonically increasing
// generation number. Reconfiguration is level-triggered: an agent that
// connects, rejoins after a partition, restarts, or survives a leader
// failover announces its current generation and manifest, and the
// deployer ships ONE delta that converges it to the latest goal state.
// No wave replay, no replan: the delta is computed against what the
// agent actually has, not against the history it missed.
//
// The two-phase wave machinery is rebuilt on top of goal-state
// transitions: a wave is a fenced generation bump proposed to its
// participants (ReconfigCommand.Gen carries the generation each
// destination reaches if the wave commits) and committed by publishing
// the new generations in the outcome broadcast (WaveOutcome.Gens).
// Aborted waves never advance a generation.

// Goal-state control event names.
const (
	EvGoalAnnounce = "admin.goalAnnounce"
	EvGoalDelta    = "admin.goalDelta"
	EvGoalAck      = "admin.goalAck"
)

// GoalStateVersion is the schema version stamped on every goal-state
// frame. Decoders reject frames from a NEWER major version with a clean
// error (never a misparse), and skip the extension tail same-version
// writers may append — the two halves of rolling-upgrade safety.
const GoalStateVersion = 1

// GoalComponent is one entry of a host's desired manifest: the
// component and the factory type an agent needs to re-instantiate it
// when the live instance died with a previous lifetime.
type GoalComponent struct {
	ID   string
	Type string
}

// RelocEntry is one relocation hint shipped with a delta, priming the
// agent's bounce table so stale routes resolve without a coordinator
// round trip.
type RelocEntry struct {
	Comp string
	Host model.HostID
}

// GoalAnnounce is the agent's level report: its current generation and
// the manifest it is actually running. Sent on connect, rejoin,
// restart, and leader failover; the deployer answers with a GoalDelta.
type GoalAnnounce struct {
	Host        model.HostID
	Incarnation uint64
	Generation  uint64
	Manifest    []string // sorted component IDs currently hosted
}

// GoalDelta converges one agent to the current goal state. Full deltas
// (the announce-triggered resync path) are computed against the
// announced manifest, so applying Acquire and Remove yields exactly the
// goal manifest at Generation.
type GoalDelta struct {
	Host model.HostID
	// Coordinator is the live leader that computed the delta — the ack
	// target, and the origin the agent's fence learns a higher term from.
	Coordinator model.HostID
	// Term is the issuing leader's fencing term (zero = legacy unfenced);
	// agents drop deltas below their fence exactly like wave frames.
	Term uint64
	// FromGen is the generation the agent announced.
	FromGen uint64
	// Generation is the goal generation reached after applying.
	Generation uint64
	// Full marks a level resync: Acquire/Remove were computed against the
	// agent's announced manifest rather than a generation diff.
	Full    bool
	Acquire []GoalComponent
	Remove  []string
	Reloc   []RelocEntry
}

// GoalAck confirms an applied delta and carries the agent's post-apply
// manifest — the byte-for-byte witness the resync invariant checks.
type GoalAck struct {
	Host       model.HostID
	Generation uint64
	Manifest   []string // sorted component IDs after applying the delta
}

// Goal-state frame op codes (after the version field).
const (
	goalOpAnnounce byte = 1
	goalOpDelta    byte = 2
	goalOpAck      byte = 3
)

// appendGoalPayload encodes a goal-state payload: version, op, op
// fields, then a length-prefixed extension tail (empty at v1) that
// same-version decoders skip — unknown appended fields are forward
// compatible without a version bump.
func appendGoalPayload(dst []byte, p any) []byte {
	dst = appendUvarint(dst, GoalStateVersion)
	switch g := p.(type) {
	case GoalAnnounce:
		dst = append(dst, goalOpAnnounce)
		dst = appendString(dst, string(g.Host))
		dst = appendUvarint(dst, g.Incarnation)
		dst = appendUvarint(dst, g.Generation)
		dst = appendStrings(dst, g.Manifest)
	case GoalDelta:
		dst = append(dst, goalOpDelta)
		dst = appendString(dst, string(g.Host))
		dst = appendString(dst, string(g.Coordinator))
		dst = appendUvarint(dst, g.Term)
		dst = appendUvarint(dst, g.FromGen)
		dst = appendUvarint(dst, g.Generation)
		dst = appendBool(dst, g.Full)
		dst = appendGoalComponents(dst, g.Acquire)
		dst = appendStrings(dst, g.Remove)
		dst = appendUvarint(dst, uint64(len(g.Reloc)))
		for _, re := range g.Reloc {
			dst = appendString(dst, re.Comp)
			dst = appendString(dst, string(re.Host))
		}
	case GoalAck:
		dst = append(dst, goalOpAck)
		dst = appendString(dst, string(g.Host))
		dst = appendUvarint(dst, g.Generation)
		dst = appendStrings(dst, g.Manifest)
	}
	dst = appendUvarint(dst, 0) // extension tail: empty at v1
	return dst
}

// appendGoalComponents encodes a manifest: a delta's acquisitions and a
// goal-state WAL record's entries.
func appendGoalComponents(dst []byte, gcs []GoalComponent) []byte {
	dst = appendUvarint(dst, uint64(len(gcs)))
	for _, gc := range gcs {
		dst = appendString(appendString(dst, gc.ID), gc.Type)
	}
	return dst
}

func (r *binReader) goalComponents() []GoalComponent {
	n := r.count("manifest entries")
	var out []GoalComponent
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, GoalComponent{ID: r.str(), Type: r.str()})
	}
	return out
}

// decodeGoalPayload decodes a goal-state payload from r; the error is
// also left in r.err.
func decodeGoalPayload(r *binReader) (any, error) {
	switch version := r.uvarint(); {
	case r.err != nil:
	case version > GoalStateVersion:
		r.failf("binary event: unsupported goal-state version %d (this peer speaks v%d)", version, GoalStateVersion)
	case version == 0:
		r.failf("binary event: goal-state version 0 is invalid")
	}
	var payload any
	switch op := r.byte(); {
	case r.err != nil:
	case op == goalOpAnnounce:
		payload = GoalAnnounce{Host: r.host(), Incarnation: r.uvarint(), Generation: r.uvarint(), Manifest: readStrings[string](r)}
	case op == goalOpDelta:
		g := GoalDelta{Host: r.host(), Coordinator: r.host(), Term: r.uvarint(), FromGen: r.uvarint(),
			Generation: r.uvarint(), Full: r.byte() != 0}
		g.Acquire = r.goalComponents()
		g.Remove = readStrings[string](r)
		n := r.count("relocation hints")
		for i := 0; i < n && r.err == nil; i++ {
			g.Reloc = append(g.Reloc, RelocEntry{Comp: r.str(), Host: r.host()})
		}
		payload = g
	case op == goalOpAck:
		payload = GoalAck{Host: r.host(), Generation: r.uvarint(), Manifest: readStrings[string](r)}
	default:
		r.failf("binary event: unknown goal-state op %d", op)
	}
	// Skip the extension tail: fields appended by a same-version peer we
	// do not know about yet.
	r.skipTail()
	if r.err != nil {
		return nil, r.err
	}
	return payload, nil
}

// goalEntry is one agent's goal state as the deployer tracks it.
type goalEntry struct {
	Gen      uint64
	Acked    uint64            // highest generation the agent acknowledged
	Manifest map[string]string // component ID → factory type
}

// record is h's goal-state WAL record.
func (g *goalEntry) record(h model.HostID) goalStateRec {
	rec := goalStateRec{Host: h, Gen: g.Gen}
	for _, id := range g.sortedIDs() {
		rec.Manifest = append(rec.Manifest, GoalComponent{ID: id, Type: g.Manifest[id]})
	}
	return rec
}

func (g *goalEntry) sortedIDs() []string {
	out := make([]string, 0, len(g.Manifest))
	for id := range g.Manifest {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// goalTable is the deployer's per-agent goal state. With a durable
// store attached its mutations are checkpointed (RecGoalState) and
// replicated to standbys through the same stream as the wave records,
// so generations survive restarts and leader failovers.
type goalTable struct {
	entries map[model.HostID]*goalEntry
}

func newGoalTable() *goalTable {
	return &goalTable{entries: make(map[model.HostID]*goalEntry)}
}

func (t *goalTable) entry(h model.HostID) *goalEntry {
	e := t.entries[h]
	if e == nil {
		e = &goalEntry{Manifest: make(map[string]string)}
		t.entries[h] = e
	}
	return e
}

// ownerOf finds the host whose goal manifest currently names comp.
func (t *goalTable) ownerOf(comp string) (model.HostID, bool) {
	for h, e := range t.entries {
		if _, ok := e.Manifest[comp]; ok {
			return h, true
		}
	}
	return "", false
}

// SeedGoalState installs the initial per-host goal manifests at
// generation 1. Hosts already carrying goal state (a restarted deployer
// restored them from its log) are left untouched, so seeding after a
// resume never rolls a generation back.
func (d *DeployerComponent) SeedGoalState(manifests map[model.HostID][]GoalComponent) {
	d.mu.Lock()
	var hosts []model.HostID
	for h, comps := range manifests {
		e := d.goal.entry(h)
		if e.Gen > 0 {
			continue
		}
		e.Gen = 1
		e.Manifest = make(map[string]string, len(comps))
		for _, gc := range comps {
			e.Manifest[gc.ID] = gc.Type
		}
		hosts = append(hosts, h)
	}
	d.mu.Unlock()
	d.ckptGoal(hosts...)
}

// RelocateGoal records an out-of-band placement in the goal table: comp
// (of the given factory type) now belongs on host `to`; whichever host's
// manifest previously named it loses it. Both touched generations bump.
// Callers use it for placements that bypass the wave machinery — crash
// recovery restoring origin copies on the master, test worlds placing
// components directly.
func (d *DeployerComponent) RelocateGoal(comp, typeName string, to model.HostID) {
	d.mu.Lock()
	var touched []model.HostID
	if from, ok := d.goal.ownerOf(comp); ok {
		if from == to {
			// Type refresh only; no generation bump.
			d.goal.entry(to).Manifest[comp] = typeName
			d.mu.Unlock()
			d.ckptGoal(to)
			return
		}
		e := d.goal.entry(from)
		delete(e.Manifest, comp)
		e.Gen++
		touched = append(touched, from)
	}
	if to != "" {
		e := d.goal.entry(to)
		e.Manifest[comp] = typeName
		e.Gen++
		touched = append(touched, to)
	}
	d.mu.Unlock()
	d.ckptGoal(touched...)
}

// foldWave folds a committed wave's moves into copies of the goal
// entries they touch, each at its next generation, and returns those
// entries with their goal-state records in host order; installFold puts
// them in the table once they are durable. Idempotent: a move whose
// destination already owns the component is skipped, so Resume can
// re-fold a decided wave whose goal records were lost between the
// decision and the crash.
func (d *DeployerComponent) foldWave(moves map[string]model.HostID) (map[model.HostID]*goalEntry, []walRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := make(map[model.HostID]*goalEntry)
	touch := func(h model.HostID) *goalEntry {
		if next[h] == nil {
			e := d.goal.entry(h)
			next[h] = &goalEntry{Gen: e.Gen + 1, Manifest: maps.Clone(e.Manifest)}
		}
		return next[h]
	}
	for _, comp := range sortedKeys(moves) {
		dst := moves[comp]
		from, ok := d.goal.ownerOf(comp)
		if ok && from == dst {
			continue
		}
		typeName := ""
		if ok {
			typeName = d.goal.entries[from].Manifest[comp]
			delete(touch(from).Manifest, comp)
		}
		touch(dst).Manifest[comp] = typeName
	}
	var recs []walRecord
	for _, h := range sortedKeys(next) {
		recs = append(recs, next[h].record(h))
	}
	return next, recs
}

// installFold puts folded entries in the goal table and returns every
// host's generation — a commit outcome's Gens.
func (d *DeployerComponent) installFold(next map[model.HostID]*goalEntry) map[model.HostID]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for h, ne := range next {
		e := d.goal.entry(h)
		e.Gen, e.Manifest = ne.Gen, ne.Manifest
	}
	gens := make(map[model.HostID]uint64, len(d.goal.entries))
	for h, e := range d.goal.entries {
		gens[h] = e.Gen
	}
	return gens
}

// GoalGeneration returns the deployer's current goal generation for h.
func (d *DeployerComponent) GoalGeneration(h model.HostID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.goal.entries[h]; e != nil {
		return e.Gen
	}
	return 0
}

// GoalAcked returns the highest generation h has acknowledged.
func (d *DeployerComponent) GoalAcked(h model.HostID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.goal.entries[h]; e != nil {
		return e.Acked
	}
	return 0
}

// GoalManifest returns the sorted component IDs of h's goal manifest.
func (d *DeployerComponent) GoalManifest(h model.HostID) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.goal.entries[h]; e != nil {
		return e.sortedIDs()
	}
	return nil
}

// handleGoalAnnounce answers an agent's level report with one full
// delta converging it to the current goal state (goalDelta). Only the
// lease holder answers; a deposed deployer's reply would be fenced anyway.
func (d *DeployerComponent) handleGoalAnnounce(ga GoalAnnounce) {
	if ga.Host == "" || d.deposed() {
		return
	}
	var reloc map[string]model.HostID
	if dc := d.arch.DistributionConnector(d.cfg.Bus); dc != nil {
		reloc = dc.RelocationSnapshot()
	}
	term, host := d.term(), string(d.arch.Host())
	d.mu.Lock()
	delta, diverged := goalDelta(*d.goal.entry(ga.Host), ga, reloc, d.arch.Host(), term)
	d.mu.Unlock()
	if diverged {
		d.arch.Obs().Counter(obs.Name("prism_goal_divergence_total", "host", host)).Inc()
	}
	d.arch.Obs().Counter(obs.Name("prism_goal_delta_sent_total", "host", host)).Inc()
	_ = d.sender.send(ga.Host, Event{
		Name: EvGoalDelta, Target: AdminID, Payload: delta, SizeKB: 0.5,
	})
}

// handleGoalAck records an agent's acknowledged generation and counts a
// break of the resync invariant (goalEntry.noteAck).
func (d *DeployerComponent) handleGoalAck(ack GoalAck) {
	if ack.Host == "" {
		return
	}
	d.mu.Lock()
	mismatch := d.goal.entry(ack.Host).noteAck(ack)
	d.mu.Unlock()
	if mismatch {
		d.arch.Obs().Counter(obs.Name("prism_goal_resync_mismatch_total",
			"host", string(d.arch.Host()))).Inc()
	}
}

// localManifest is the sorted list of application components the agent
// is actually running (admin and deployer excluded).
func (a *AdminComponent) localManifest() []string {
	var out []string
	for _, id := range a.arch.ComponentIDs() {
		if id != AdminID && id != DeployerID {
			out = append(out, id)
		}
	}
	return out
}

// GoalGeneration returns the agent's current goal generation.
func (a *AdminComponent) GoalGeneration() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.voter.gen
}

// AnnounceGoalState sends the agent's level report (generation +
// manifest) to the current lease holder. Call it on connect, rejoin,
// restart, and whenever leadership moved: the deployer answers with one
// delta that converges this host to the latest goal state, whatever was
// missed in between. Until a delta from the lease holder is applied the
// announce stays pending, and every heartbeat repeats it.
func (a *AdminComponent) AnnounceGoalState() error {
	return a.vote(voterInput{kind: vAnnounce})
}

// applyDelta does the architecture work of a goal delta the voter
// accepted, before the ack reports the post-apply manifest: evict
// components the goal no longer assigns here (their buffered traffic is
// relayed toward the relocation hint, or the coordinator when there is
// none), re-instantiate missing ones from the factory registry, and prime
// the bounce table with the relocation hints. Idempotent — a re-announced
// resync computes an empty delta.
func (a *AdminComponent) applyDelta(gd GoalDelta) {
	host := string(a.arch.Host())
	reloc := make(map[string]model.HostID, len(gd.Reloc))
	dc := a.arch.DistributionConnector(a.cfg.Bus)
	for _, re := range gd.Reloc {
		reloc[re.Comp] = re.Host
		if dc != nil && re.Host != a.arch.Host() {
			dc.RecordRelocation(re.Comp, re.Host)
		}
	}
	bus := a.arch.Connector(a.cfg.Bus)
	for _, comp := range gd.Remove {
		if a.arch.Component(comp) == nil {
			continue
		}
		if _, err := a.arch.RemoveComponent(comp); err != nil {
			continue
		}
		if dc != nil {
			dc.dropDedup(comp)
		}
		if bus != nil {
			newHost := reloc[comp]
			if newHost == "" || newHost == a.arch.Host() {
				newHost = gd.Coordinator
			}
			a.relayHeld(bus, comp, newHost, gd.Coordinator)
		}
		a.arch.Obs().Counter(obs.Name("prism_goal_evicted_total", "host", host)).Inc()
	}
	for _, gc := range gd.Acquire {
		if a.arch.Component(gc.ID) != nil {
			continue
		}
		comp, err := a.cfg.Registry.New(gc.Type, gc.ID)
		if err != nil {
			a.arch.Obs().Counter(obs.Name("prism_goal_acquire_failed_total", "host", host)).Inc()
			continue
		}
		if err := a.arch.AddComponent(comp); err != nil {
			continue
		}
		if err := a.arch.Weld(gc.ID, a.cfg.Bus); err != nil {
			continue
		}
		a.arch.Obs().Counter(obs.Name("prism_goal_acquired_total", "host", host)).Inc()
	}
}
