package objective

import (
	"fmt"
	"math"

	"dif/internal/model"
)

// Delta evaluation. Local-search and population-based algorithms score
// enormous numbers of single-move and pair-swap perturbations; fully
// re-quantifying the objective for each one costs O(interactions). A
// DeltaState maintains the score of a working deployment and evaluates a
// perturbation in O(deg) — the number of interactions incident to the
// moved components — by adding the difference the move makes.
//
// Protocol: Begin captures the deployment. Move/SwapPair stage exactly
// one candidate perturbation and return the score the deployment would
// have with it applied; the caller then either Commit()s (the staged
// change becomes the working deployment) or Revert()s (the working
// deployment is unchanged). Staging a second perturbation while one is
// pending panics — the contract is strictly evaluate-then-resolve.
//
// Availability and Latency implement DeltaQuantifier over the system's
// dense matrices (model.DenseSystem), so a candidate evaluation does zero
// map lookups; their Quantify is the score a fresh state starts from.
// Every other quantifier — composites included — works through
// BeginDelta's fallback, which re-quantifies in full but honors the same
// protocol.

// DeltaState incrementally evaluates an objective over a mutating
// deployment. Implementations are not safe for concurrent use.
type DeltaState interface {
	// Score returns the objective value of the working deployment
	// (excluding any staged, uncommitted perturbation).
	Score() float64
	// Move stages relocating component c to host `to` and returns the
	// resulting score.
	Move(c model.ComponentID, to model.HostID) float64
	// SwapPair stages exchanging the hosts of c1 and c2 and returns the
	// resulting score.
	SwapPair(c1, c2 model.ComponentID) float64
	// Commit folds the staged perturbation into the working deployment.
	Commit()
	// Revert discards the staged perturbation.
	Revert()
}

// DeltaQuantifier is implemented by quantifiers that support O(deg)
// incremental evaluation of moves and swaps.
type DeltaQuantifier interface {
	Quantifier
	// Begin returns a DeltaState for deployment d of system s. It is
	// BeginDense over s.Dense() and d's assignment.
	Begin(s *model.System, d model.Deployment) DeltaState
	// BeginDense returns a DeltaState for an assignment over ds
	// (component index → host index, -1 while undeployed). The state
	// owns assign from then on: Move and SwapPair write to it.
	BeginDense(ds *model.DenseSystem, assign []int) DeltaState
}

// BeginDelta returns a DeltaState for any quantifier: the quantifier's
// own O(deg) evaluator when it implements DeltaQuantifier, and a
// full-requantify fallback (correct for composites and custom
// objectives) otherwise.
func BeginDelta(q Quantifier, s *model.System, d model.Deployment) DeltaState {
	if dq, ok := q.(DeltaQuantifier); ok {
		return dq.Begin(s, d)
	}
	return beginFull(q, s, d)
}

// QuantifyDense scores an assignment over ds, s's dense view, without
// building a Deployment when the quantifier has a dense evaluator: the
// same sum Quantify runs, so the two agree to the bit. Any other
// quantifier scores the materialized Deployment. assign is only read.
func QuantifyDense(q Quantifier, s *model.System, ds *model.DenseSystem, assign []int) float64 {
	if dq, ok := q.(DeltaQuantifier); ok {
		return dq.BeginDense(ds, assign).Score()
	}
	return q.Quantify(s, ds.Deployment(assign))
}

// deltaRebaseInterval bounds floating-point drift: after this many
// commits a dense delta state recomputes its running sums from scratch.
const deltaRebaseInterval = 4096

const (
	stagedNone = iota
	stagedMove
	stagedSwap
)

// denseDelta holds the bookkeeping shared by the dense delta states: the
// dense view, the working assignment, and the staged perturbation.
type denseDelta struct {
	ds     *model.DenseSystem
	assign []int

	staged       int
	c1, prev1    int
	c2, prev2    int
	delta        float64 // staged change to the running sum
	commits      int
	onRebase     func()
	runningDelta *float64 // the sum `delta` applies to on Commit
}

func (dd *denseDelta) mustIndex(c model.ComponentID) int {
	i := dd.ds.CompIndex(c)
	if i < 0 {
		panic(fmt.Sprintf("objective: delta evaluation of unknown component %s", c))
	}
	return i
}

func (dd *denseDelta) stageMove(c model.ComponentID, to model.HostID, moveDelta func(ci, ti int) float64) {
	if dd.staged != stagedNone {
		panic("objective: delta perturbation already staged")
	}
	ci := dd.mustIndex(c)
	ti := dd.ds.HostIndex(to)
	dd.delta = moveDelta(ci, ti)
	dd.c1, dd.prev1 = ci, dd.assign[ci]
	dd.assign[ci] = ti
	dd.staged = stagedMove
}

func (dd *denseDelta) stageSwap(c1, c2 model.ComponentID, moveDelta func(ci, ti int) float64) {
	if dd.staged != stagedNone {
		panic("objective: delta perturbation already staged")
	}
	i1, i2 := dd.mustIndex(c1), dd.mustIndex(c2)
	p1, p2 := dd.assign[i1], dd.assign[i2]
	// Two sequential moves through the intermediate state compose
	// exactly: each delta is computed against the assignment it applies
	// to.
	d := moveDelta(i1, p2)
	dd.assign[i1] = p2
	d += moveDelta(i2, p1)
	dd.assign[i2] = p1
	dd.delta = d
	dd.c1, dd.prev1 = i1, p1
	dd.c2, dd.prev2 = i2, p2
	dd.staged = stagedSwap
}

// Commit implements DeltaState.
func (dd *denseDelta) Commit() {
	if dd.staged == stagedNone {
		panic("objective: Commit with no staged perturbation")
	}
	*dd.runningDelta += dd.delta
	dd.staged = stagedNone
	dd.commits++
	if dd.commits%deltaRebaseInterval == 0 {
		dd.onRebase()
	}
}

// Revert implements DeltaState.
func (dd *denseDelta) Revert() {
	switch dd.staged {
	case stagedMove:
		dd.assign[dd.c1] = dd.prev1
	case stagedSwap:
		dd.assign[dd.c1] = dd.prev1
		dd.assign[dd.c2] = dd.prev2
	default:
		panic("objective: Revert with no staged perturbation")
	}
	dd.staged = stagedNone
}

// availDelta evaluates Availability incrementally: it maintains
// num = Σ freq·rel over interactions with both endpoints deployed, with
// den = Σ freq fixed by the system.
type availDelta struct {
	denseDelta
	num, den float64
}

var _ DeltaState = (*availDelta)(nil)

// Begin implements DeltaQuantifier.
func (a Availability) Begin(s *model.System, d model.Deployment) DeltaState {
	ds := s.Dense()
	return a.BeginDense(ds, ds.Assign(d))
}

// BeginDense implements DeltaQuantifier.
func (Availability) BeginDense(ds *model.DenseSystem, assign []int) DeltaState {
	st := &availDelta{
		denseDelta: denseDelta{ds: ds, assign: assign},
		den:        ds.TotalFreq,
	}
	st.runningDelta = &st.num
	st.onRebase = st.rebase
	st.rebase()
	return st
}

func (st *availDelta) rebase() {
	// Locals keep the loop's slices in registers: the sweep is Stochastic's
	// per-trial cost.
	nh, assign, rel := st.ds.NH, st.assign, st.ds.Rel
	freq := st.ds.Freq[:len(st.ds.Edges)]
	num := 0.0
	for i, e := range st.ds.Edges {
		a, b := assign[e.A], assign[e.B]
		if a < 0 || b < 0 {
			continue
		}
		num += freq[i] * rel[a*nh+b]
	}
	st.num = num
}

// moveDelta returns the change to num from moving component ci to host
// ti, given the current assignment.
func (st *availDelta) moveDelta(ci, ti int) float64 {
	fi := st.assign[ci]
	if fi == ti {
		return 0
	}
	nh := st.ds.NH
	rel := st.ds.Rel
	d := 0.0
	for _, arc := range st.ds.Adj[ci] {
		oi := st.assign[arc.Other]
		if oi < 0 {
			continue
		}
		var before, after float64
		if fi >= 0 {
			before = rel[fi*nh+oi]
		}
		if ti >= 0 {
			after = rel[ti*nh+oi]
		}
		d += st.ds.Freq[arc.Edge] * (after - before)
	}
	return d
}

func (st *availDelta) scoreWith(delta float64) float64 {
	if st.den == 0 {
		return 1
	}
	v := (st.num + delta) / st.den
	// num is maintained incrementally; availability is a weighted average
	// of probabilities, so anything outside [0,1] is accumulated
	// floating-point error.
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Score implements DeltaState.
func (st *availDelta) Score() float64 { return st.scoreWith(0) }

// Move implements DeltaState.
func (st *availDelta) Move(c model.ComponentID, to model.HostID) float64 {
	st.stageMove(c, to, st.moveDelta)
	return st.scoreWith(st.delta)
}

// SwapPair implements DeltaState.
func (st *availDelta) SwapPair(c1, c2 model.ComponentID) float64 {
	st.stageSwap(c1, c2, st.moveDelta)
	return st.scoreWith(st.delta)
}

// latencyDelta evaluates Latency incrementally, maintaining the total
// expected latency per unit time.
type latencyDelta struct {
	denseDelta
	total   float64
	penalty float64
}

var _ DeltaState = (*latencyDelta)(nil)

// Begin implements DeltaQuantifier.
func (l Latency) Begin(s *model.System, d model.Deployment) DeltaState {
	ds := s.Dense()
	return l.BeginDense(ds, ds.Assign(d))
}

// BeginDense implements DeltaQuantifier.
func (l Latency) BeginDense(ds *model.DenseSystem, assign []int) DeltaState {
	penalty := l.PartitionPenalty
	if penalty == 0 {
		penalty = DefaultPartitionPenalty
	}
	st := &latencyDelta{
		denseDelta: denseDelta{ds: ds, assign: assign},
		penalty:    penalty,
	}
	st.runningDelta = &st.total
	st.onRebase = st.rebase
	st.rebase()
	return st
}

// arcCost is the latency contribution of one interaction between hosts a
// and b (dense indices, -1 = undeployed).
func (st *latencyDelta) arcCost(freq, size float64, a, b int) float64 {
	if a < 0 || b < 0 {
		return freq * st.penalty
	}
	nh := st.ds.NH
	bw := st.ds.BW[a*nh+b]
	if bw <= 0 {
		return freq * st.penalty
	}
	return freq * (size/bw*1000 + st.ds.Delay[a*nh+b])
}

// rebase is arcCost summed over the edges in order, to the bit. Between
// two deployed components it computes the linked and the cut cost and
// selects one by a bit mask: whether a pair of hosts is linked varies
// from edge to edge, and a branch on it mispredicts.
func (st *latencyDelta) rebase() {
	nh, assign, bws, delay, penalty := st.ds.NH, st.assign, st.ds.BW, st.ds.Delay, st.penalty
	freq, size := st.ds.Freq[:len(st.ds.Edges)], st.ds.Size[:len(st.ds.Edges)]
	total := 0.0
	for i, e := range st.ds.Edges {
		f := freq[i]
		a, b := assign[e.A], assign[e.B]
		if a < 0 || b < 0 {
			total += f * penalty
			continue
		}
		bw := bws[a*nh+b]
		linked := math.Float64bits(f * (size[i]/bw*1000 + delay[a*nh+b]))
		cut := math.Float64bits(f * penalty)
		var keep uint64
		if !(bw <= 0) {
			keep = ^uint64(0)
		}
		total += math.Float64frombits(linked&keep | cut&^keep)
	}
	st.total = total
}

func (st *latencyDelta) moveDelta(ci, ti int) float64 {
	fi := st.assign[ci]
	if fi == ti {
		return 0
	}
	d := 0.0
	for _, arc := range st.ds.Adj[ci] {
		oi := st.assign[arc.Other]
		freq, size := st.ds.Freq[arc.Edge], st.ds.Size[arc.Edge]
		d += st.arcCost(freq, size, ti, oi) - st.arcCost(freq, size, fi, oi)
	}
	return d
}

// Score implements DeltaState.
func (st *latencyDelta) Score() float64 { return st.total }

// Move implements DeltaState.
func (st *latencyDelta) Move(c model.ComponentID, to model.HostID) float64 {
	st.stageMove(c, to, st.moveDelta)
	return st.total + st.delta
}

// SwapPair implements DeltaState.
func (st *latencyDelta) SwapPair(c1, c2 model.ComponentID) float64 {
	st.stageSwap(c1, c2, st.moveDelta)
	return st.total + st.delta
}

var (
	_ DeltaQuantifier = Availability{}
	_ DeltaQuantifier = Latency{}
)

// fullDelta is the universal fallback DeltaState: it applies the staged
// perturbation to a scratch deployment and re-quantifies in full. Correct
// for any quantifier, O(interactions) per evaluation.
type fullDelta struct {
	q Quantifier
	s *model.System
	d model.Deployment

	score       float64
	stagedScore float64
	undo        []fullUndo
}

type fullUndo struct {
	c    model.ComponentID
	prev model.HostID
	had  bool
}

var _ DeltaState = (*fullDelta)(nil)

func beginFull(q Quantifier, s *model.System, d model.Deployment) *fullDelta {
	scratch := d.Clone()
	return &fullDelta{q: q, s: s, d: scratch, score: q.Quantify(s, scratch)}
}

func (st *fullDelta) set(c model.ComponentID, h model.HostID) {
	prev, had := st.d[c]
	st.undo = append(st.undo, fullUndo{c: c, prev: prev, had: had})
	st.d[c] = h
}

// Score implements DeltaState.
func (st *fullDelta) Score() float64 { return st.score }

// Move implements DeltaState.
func (st *fullDelta) Move(c model.ComponentID, to model.HostID) float64 {
	if len(st.undo) != 0 {
		panic("objective: delta perturbation already staged")
	}
	st.set(c, to)
	st.stagedScore = st.q.Quantify(st.s, st.d)
	return st.stagedScore
}

// SwapPair implements DeltaState.
func (st *fullDelta) SwapPair(c1, c2 model.ComponentID) float64 {
	if len(st.undo) != 0 {
		panic("objective: delta perturbation already staged")
	}
	h1, h2 := st.d[c1], st.d[c2]
	st.set(c1, h2)
	st.set(c2, h1)
	st.stagedScore = st.q.Quantify(st.s, st.d)
	return st.stagedScore
}

// Commit implements DeltaState.
func (st *fullDelta) Commit() {
	if len(st.undo) == 0 {
		panic("objective: Commit with no staged perturbation")
	}
	st.score = st.stagedScore
	st.undo = st.undo[:0]
}

// Revert implements DeltaState.
func (st *fullDelta) Revert() {
	if len(st.undo) == 0 {
		panic("objective: Revert with no staged perturbation")
	}
	for i := len(st.undo) - 1; i >= 0; i-- {
		u := st.undo[i]
		if u.had {
			st.d[u.c] = u.prev
		} else {
			delete(st.d, u.c)
		}
	}
	st.undo = st.undo[:0]
}
