package algo

import (
	"cmp"
	"context"
	"slices"
	"time"

	"dif/internal/model"
	"dif/internal/objective"
)

// Avala is the paper's greedy algorithm (DSN'04 §5.1, [12]): it
// incrementally assigns software components to hardware hosts, at each
// step selecting the assignment that maximally contributes to the
// objective function by choosing the "best" host and "best" component.
//
// The best host is the one with the highest sum of network reliabilities
// and bandwidths with the other hosts, and the highest memory capacity.
// The best component is the one with the highest frequency of interaction
// with other components — weighted toward components already placed on
// the host being filled — and the lowest required memory. Once found, the
// best component is assigned to the best host (honoring location and
// collocation constraints); the algorithm packs the host until full, then
// moves to the next best host. Complexity O(n³).
//
// The search runs on the system's dense indices: the assignment is a
// slice, affinity scoring walks the dense interaction adjacency, and
// each placement is judged by the run's placer (the incremental
// constraint checker under the stock constraints).
//
// Cost model: an affinity is an O(deg) walk of one component's arcs.
// Each ranking round reads C of them and each tried candidate up to H
// more. The run caches each (component, host) affinity until one of the
// component's partners is placed, so a round recomputes only its stale
// entries, heapifies the C candidates in O(C) and pops a try in O(log C).
type Avala struct{}

var _ Algorithm = (*Avala)(nil)

// Name implements Algorithm.
func (*Avala) Name() string { return "avala" }

// avalaRun is one Avala search's state.
type avalaRun struct {
	*searchSpace
	p      placer
	assign []int     // p's live assignment
	used   []float64 // memory placed per host, in placement order
	placed int
	res    *Result

	rounds, accepted int              // ranking rounds and placed candidates
	cands            []avalaCandidate // ranking heap, best first
	hosts            []avalaHost      // repair's ranking buffer

	// aff[ci*NH+hi] caches affinity(ci, hi) while its stamp is 1 +
	// ver[ci] (0: never computed). Placing a component bumps its
	// partners' ver; the first placement bumps every row.
	aff []avalaAffinity
	ver []uint32
	// weight row hi (NH+1 wide) is what a partner adds per unit of
	// frequency: at 1+oh, Rel to its host oh; at 0, for an unplaced
	// partner, 1 until the first placement and 0 after it.
	weight []float64
	// arcFreq[ci][k] is the frequency of the arc ds.Adj[ci][k], laid out
	// beside the arcs so that sumAffinity streams it rather than reading
	// Freq at each arc's edge.
	arcFreq [][]float64
}

type avalaAffinity struct {
	v     float64
	stamp uint32
}

// avalaHost is one allowed host ranked for a straggler by repair.
type avalaHost struct {
	hi             int
	affinity, free float64
}

// avalaCandidate is one unplaced component ranked for a host.
type avalaCandidate struct {
	ci       int
	affinity float64
	key      float64 // affinity − normalized memory
}

// Run implements Algorithm.
func (a *Avala) Run(ctx context.Context, s *model.System, initial model.Deployment, cfg Config) (Result, error) {
	start := time.Now()
	res := Result{
		Algorithm:    a.Name(),
		InitialScore: scoreInitial(cfg.Objective, s, initial),
	}
	v := newSearchSpace(s, cfg.checker())
	r := &avalaRun{searchSpace: v, p: v.begin(nil), used: make([]float64, v.ds.NH), res: &res,
		aff: make([]avalaAffinity, len(v.ds.Comps)*v.ds.NH), ver: make([]uint32, len(v.ds.Comps))}
	r.assign = r.p.assignment()
	nh := v.ds.NH
	r.weight = make([]float64, nh*(nh+1))
	for hi := 0; hi < nh; hi++ {
		r.weight[hi*(nh+1)] = 1
		copy(r.weight[hi*(nh+1)+1:], v.ds.Rel[hi*nh:hi*nh+nh])
	}
	r.arcFreq = make([][]float64, len(v.ds.Comps))
	freqs := make([]float64, 2*len(v.ds.Edges))
	for ci, arcs := range v.ds.Adj {
		fs := freqs[:len(arcs):len(arcs)]
		freqs = freqs[len(arcs):]
		for k, arc := range arcs {
			fs[k] = v.ds.Freq[arc.Edge]
		}
		r.arcFreq[ci] = fs
	}
	defer func() {
		met := cfg.metrics(a.Name())
		met.iterations.Add(float64(r.rounds))
		met.accepted.Add(float64(r.accepted))
		met.rejected.Add(float64(res.Nodes - r.accepted))
	}()

	// Pre-place every component pinned to a single host: their locations
	// are foregone conclusions, and having them on the board lets the
	// greedy affinity ranking pull their partners toward them.
	for ci, hosts := range v.allowed {
		if len(hosts) != 1 {
			continue
		}
		if !r.p.canPlace(ci, hosts[0]) {
			res.Elapsed = time.Since(start)
			return res, ErrNoValidDeployment
		}
		r.place(ci, hosts[0])
	}

	filled := make([]int, 0, len(s.Hosts))
	for len(filled) < len(s.Hosts) {
		select {
		case <-ctx.Done():
			res.Elapsed = time.Since(start)
			return res, ctx.Err()
		default:
		}
		hi := nextBestHost(s, filled)
		if hi < 0 {
			break // every live host filled; stragglers go to repair
		}
		r.packHost(hi)
		filled = append(filled, hi)
		if r.placed == len(r.assign) {
			break
		}
	}

	// Repair pass: any component every ranked host rejected (typically a
	// tight location constraint) goes to its least-loaded allowed host.
	if r.placed == len(r.assign) || r.repair() {
		d := v.ds.Deployment(r.assign)
		if err := v.check.Check(s, d); err == nil {
			res.Evaluations++
			res.Deployment = d
			res.Score = objective.QuantifyFast(cfg.Objective, s, d)
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}
	res.Elapsed = time.Since(start)
	return res, ErrNoValidDeployment
}

// place records ci on hi and stales the cached affinities that changes.
func (r *avalaRun) place(ci, hi int) {
	r.p.place(ci, hi)
	r.used[hi] += r.cons.compMem[ci]
	if r.placed == 0 {
		for i := range r.ver {
			r.ver[i]++
		}
		for i := 0; i < len(r.weight); i += r.ds.NH + 1 {
			r.weight[i] = 0
		}
	}
	for _, arc := range r.ds.Adj[ci] {
		r.ver[arc.Other]++
	}
	r.placed++
}

// packHost fills host hi with the best remaining components until none
// fit.
func (r *avalaRun) packHost(hi int) {
	for {
		r.rounds++
		placedAny := false
		for r.rank(hi); len(r.cands) > 0; {
			c := r.pop()
			// Once anything is placed, only components that positively
			// benefit from host hi join it; the rest wait for a host
			// they actually interact well with (or the repair pass).
			if r.placed > 0 && c.affinity <= 0 {
				break
			}
			r.res.Nodes++
			// Membership in the allowed set gates the placement itself,
			// not just the better-host comparison: a checker whose Allowed
			// is stricter than CheckPartial (DegradationAware) must hold
			// here too. Components that would contribute more on some
			// other host that still has room for them are skipped:
			// greedily claiming them for hi strands their high-frequency
			// partners across weak links.
			if !r.allows(c.ci, hi) || !r.p.canPlace(c.ci, hi) || r.betterHostExists(c.ci, hi, c.affinity) {
				continue
			}
			r.place(c.ci, hi)
			r.accepted++
			placedAny = true
			break // re-rank: placements change the affinity scores
		}
		if !placedAny {
			return
		}
	}
}

// repair places stragglers on the allowed host where they contribute the
// most (breaking ties toward free memory). Reports whether every
// component ended up placed.
func (r *avalaRun) repair() bool {
	for ci, hi := range r.assign {
		if hi >= 0 {
			continue
		}
		ranked := r.hosts[:0]
		for _, h := range r.allowed[ci] {
			ranked = append(ranked, avalaHost{h, r.affinity(ci, h), r.cons.hostMem[h] - r.used[h]})
		}
		slices.SortFunc(ranked, func(x, y avalaHost) int {
			if c := cmp.Compare(y.affinity, x.affinity); c != 0 {
				return c
			}
			if c := cmp.Compare(y.free, x.free); c != 0 {
				return c
			}
			return cmp.Compare(x.hi, y.hi)
		})
		r.hosts = ranked
		placed := false
		for _, h := range ranked {
			if r.p.canPlace(ci, h.hi) {
				r.place(ci, h.hi)
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	return true
}

// nextBestHost picks the host to fill next, as a dense index (-1 once
// every live host is filled): the live unfilled host with the highest
// hostScore toward the filled hosts, the lowest index among equals. The
// first host is scored toward every other host, the paper's best-host
// criterion (highest sum of network reliabilities and bandwidths with
// other hosts, and highest memory); later ones toward the filled hosts
// only — the links that the resulting deployment will actually route
// its remote interactions over.
func nextBestHost(s *model.System, filled []int) int {
	ds := s.Dense()
	maxBW, maxMem := hostScales(s, ds)
	best, bestScore := -1, 0.0
	for hi, h := range ds.Hosts {
		if s.Hosts[h].Down || slices.Contains(filled, hi) {
			continue
		}
		if score := hostScore(s, ds, hi, filled, maxBW, maxMem); best < 0 || score > bestScore {
			best, bestScore = hi, score
		}
	}
	return best
}

// hostScore is host hi's normalized memory plus the reliability and
// normalized bandwidth of its links toward the given hosts, or toward
// every other host when none is given. It sums in host index order, so
// its bits do not depend on the order of the Links map; an unlinked
// pair's Rel and BW are 0 and add nothing.
func hostScore(s *model.System, ds *model.DenseSystem, hi int, toward []int, maxBW, maxMem float64) float64 {
	nh := ds.NH
	score := s.Hosts[ds.Hosts[hi]].Memory() / maxMem
	add := func(j int) { score += ds.Rel[hi*nh+j] + ds.BW[hi*nh+j]/maxBW }
	if len(toward) > 0 {
		for _, j := range toward {
			add(j)
		}
		return score
	}
	for j := 0; j < nh; j++ {
		if j != hi {
			add(j)
		}
	}
	return score
}

// hostScales returns the largest link bandwidth and host memory, each
// at least 1, which normalize hostScore.
func hostScales(s *model.System, ds *model.DenseSystem) (maxBW, maxMem float64) {
	maxBW, maxMem = 1.0, 1.0
	for i, h := range ds.Hosts {
		for j := i + 1; j < ds.NH; j++ {
			maxBW = max(maxBW, ds.BW[i*ds.NH+j])
		}
		maxMem = max(maxMem, s.Hosts[h].Memory())
	}
	return maxBW, maxMem
}

// betterHostExists reports whether some other allowed host with free
// capacity offers component ci a strictly higher affinity than its
// affinity on hi.
func (r *avalaRun) betterHostExists(ci, hi int, affinityOnH float64) bool {
	need := r.cons.compMem[ci]
	for _, other := range r.allowed[ci] {
		if other == hi {
			continue
		}
		if r.cons.checkMem && r.used[other]+need > r.cons.hostMem[other] {
			continue
		}
		if r.affinity(ci, other) > affinityOnH {
			return true
		}
	}
	return false
}

// affinity scores placing component ci on host hi given the partial
// assignment: full frequency for partners already on hi, link-reliability
// weighted frequency for partners elsewhere, and (only while nothing at
// all is placed) full frequency for unplaced partners. A stale cache
// entry is summed afresh in arc order, never adjusted by a delta, so
// every value has the bits of a from-scratch sum.
func (r *avalaRun) affinity(ci, hi int) float64 {
	e := &r.aff[ci*r.ds.NH+hi]
	if e.stamp != r.ver[ci]+1 {
		e.v, e.stamp = r.sumAffinity(ci, hi), r.ver[ci]+1
	}
	return e.v
}

// sumAffinity weighs every arc through host hi's weight row, where an
// unplaced partner's weight is 1 or 0 and a partner on hi has Rel 1. A
// frequency is finite and positive or 0, so f·1 is f and adding f·0 or
// 0·w leaves the sum as it was: the bits are those of adding only what
// counts.
func (r *avalaRun) sumAffinity(ci, hi int) float64 {
	w := r.weight[hi*(r.ds.NH+1):]
	arcs, fs := r.ds.Adj[ci], r.arcFreq[ci]
	fs = fs[:len(arcs)]
	a := 0.0
	for k, arc := range arcs {
		a += fs[k] * w[r.assign[arc.Other]+1]
	}
	return a
}

// rank orders the unplaced components for host hi by descending
// affinity and ascending memory. Affinity counts interaction frequency
// with components already on hi at full weight (they would become local)
// and frequency with components on other hosts at the connecting link's
// reliability. When nothing is placed yet, the seed component is the one
// with the highest total interaction frequency (the paper's criterion).
// It leaves the candidates in r.cands as a heap that pop empties in
// that order.
func (r *avalaRun) rank(hi int) {
	cands := r.cands[:0]
	maxMem := 1.0
	for ci, h := range r.assign {
		if h >= 0 {
			continue
		}
		if m := r.cons.compMem[ci]; m > maxMem {
			maxMem = m
		}
		cands = append(cands, avalaCandidate{ci: ci, affinity: r.affinity(ci, hi)})
	}
	for i := range cands {
		cands[i].key = cands[i].affinity - r.cons.compMem[cands[i].ci]/maxMem
	}
	for i := len(cands)/2 - 1; i >= 0; i-- {
		siftDown(cands, i)
	}
	r.cands = cands
}

// pop removes and returns the best candidate left in the heap.
func (r *avalaRun) pop() avalaCandidate {
	h := r.cands
	c, n := h[0], len(h)-1
	h[0] = h[n]
	r.cands = h[:n]
	siftDown(r.cands, 0)
	return c
}

// before is the ranking order: key descending, then index ascending.
func (c avalaCandidate) before(o avalaCandidate) bool {
	if c.key != o.key {
		return c.key > o.key
	}
	return c.ci < o.ci
}

// siftDown moves h[i] down until neither child comes before it.
func siftDown(h []avalaCandidate, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if l+1 < len(h) && h[l+1].before(h[l]) {
			l++
		}
		if !h[l].before(h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}
