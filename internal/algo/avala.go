package algo

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"time"

	"dif/internal/model"
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
// each placement is judged by the run's incremental constraint checker,
// compiled from the configured checker.
//
// Cost model: an affinity is a walk of one component's arcs to placed
// partners, O(placed partners): each component keeps a bitset over its
// arcs, and placing p sets p's bit in each partner's set through the
// twin index (where p's arc sits in the partner's list). Each ranking
// round reads C affinities and each tried candidate up to H more. The
// run caches each (component, host) affinity until one of the
// component's partners is placed, so a round recomputes only its stale
// entries, heapifies the C candidates in O(C) and pops a try in O(log C).
// A reader of a whole row (a tried candidate's better-host test, repair)
// refreshes a stale row for every host in one pass over the placed arcs.
type Avala struct{}

var _ Algorithm = (*Avala)(nil)

// Name implements Algorithm.
func (*Avala) Name() string { return "avala" }

// avalaRun is one Avala search's state.
type avalaRun struct {
	*searchSpace
	p      *incChecker
	assign []int     // p's live assignment
	used   []float64 // memory placed per host, in placement order
	placed int
	res    *Result

	rounds, accepted int              // ranking rounds and placed candidates
	cands            []avalaCandidate // ranking heap, best first
	hosts            []avalaHost      // repair's ranking buffer

	// aff[ci*NH+hi] caches affinity(ci, hi) while stamp[ci*NH+hi] is
	// 1 + ver[ci] (0: never computed). Placing a component bumps its
	// partners' ver. Nothing is cached before the first placement.
	aff   []float64
	stamp []uint32
	ver   []uint32
	// total[ci] is the sum of ci's arcs' frequencies in arc order: every
	// affinity of ci before the first placement.
	total []float64
	// twin[ci][k] is the position of the arc ds.Adj[ci][k] in its
	// partner's list. Bit k of placedArcs[ci] is set once the partner of
	// ds.Adj[ci][k] is placed. Each is a window of one backing array,
	// like Adj.
	twin       [][]int32
	placedArcs [][]uint64
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
	r := newAvalaRun(v, &res)
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
			res.Score = cfg.Objective.Quantify(s, d)
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}
	res.Elapsed = time.Since(start)
	return res, ErrNoValidDeployment
}

// newAvalaRun allocates a search over v with nothing placed.
func newAvalaRun(v *searchSpace, res *Result) *avalaRun {
	ds, nc := v.ds, len(v.ds.Comps)
	r := &avalaRun{searchSpace: v, p: v.begin(nil), used: make([]float64, ds.NH), res: res,
		aff: make([]float64, nc*ds.NH), stamp: make([]uint32, nc*ds.NH), ver: make([]uint32, nc),
		total: make([]float64, nc), twin: make([][]int32, nc), placedArcs: make([][]uint64, nc)}
	r.assign = r.p.assign
	nw := 0
	for _, arcs := range ds.Adj {
		nw += (len(arcs) + 63) / 64
	}
	twins, words := make([]int32, 2*len(ds.Edges)), make([]uint64, nw)
	// pos[e] is the position of edge e's arc in the list of its end A,
	// which comes first in index order (A < B).
	pos := make([]int32, len(ds.Edges))
	for ci, arcs := range ds.Adj {
		tw := twins[:len(arcs):len(arcs)]
		twins = twins[len(arcs):]
		for k, arc := range arcs {
			r.total[ci] += ds.Freq[arc.Edge]
			if o := int(arc.Other); o > ci {
				pos[arc.Edge] = int32(k)
			} else {
				tw[k], r.twin[o][pos[arc.Edge]] = pos[arc.Edge], int32(k)
			}
		}
		r.twin[ci] = tw
		n := (len(arcs) + 63) / 64
		r.placedArcs[ci], words = words[:n:n], words[n:]
	}
	return r
}

// place records ci on hi: it sets ci's bit in each partner's placedArcs
// and stales the partner's cached affinities.
func (r *avalaRun) place(ci, hi int) {
	r.p.place(ci, hi)
	r.used[hi] += r.cons.compMem[ci]
	tw := r.twin[ci]
	for k, arc := range r.ds.Adj[ci] {
		t := tw[k]
		r.placedArcs[arc.Other][t>>6] |= 1 << (t & 63)
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
			ranked = append(ranked, avalaHost{h, r.rowAffinity(ci, h), r.cons.hostMem[h] - r.used[h]})
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
		if r.rowAffinity(ci, other) > affinityOnH {
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
//
// An unplaced partner weighs 1 before the first placement and 0 after
// it. A frequency is finite and positive or 0, so f·1 is f, and adding
// f·0 = +0 to a sum of such terms leaves it as it was: the sums below
// add only the terms of placed partners, and their bits are those of
// weighing every arc.
func (r *avalaRun) affinity(ci, hi int) float64 {
	if r.placed == 0 {
		return r.total[ci]
	}
	i := ci*r.ds.NH + hi
	if r.stamp[i] != r.ver[ci]+1 {
		r.aff[i], r.stamp[i] = r.sumAffinity(ci, hi), r.ver[ci]+1
	}
	return r.aff[i]
}

// rowAffinity is affinity for a reader that goes on to ci's other
// hosts: a stale entry refreshes ci's whole row in one pass.
func (r *avalaRun) rowAffinity(ci, hi int) float64 {
	if r.placed > 0 && r.stamp[ci*r.ds.NH+hi] != r.ver[ci]+1 {
		r.sumRow(ci)
	}
	return r.affinity(ci, hi)
}

// sumAffinity adds f·Rel(hi, host) over ci's arcs to placed partners, in
// arc order. A partner on hi has Rel 1.
func (r *avalaRun) sumAffinity(ci, hi int) float64 {
	nh := r.ds.NH
	rel := r.ds.Rel[hi*nh : hi*nh+nh]
	arcs := r.ds.Adj[ci]
	a := 0.0
	for w, word := range r.placedArcs[ci] {
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			arc := arcs[k]
			a += r.ds.Freq[arc.Edge] * rel[r.assign[arc.Other]]
		}
	}
	return a
}

// sumRow computes sumAffinity(ci, h) for every host h in one pass over
// ci's placed arcs, one accumulator per host, and stamps the row fresh.
// Each host's sum adds the same terms in the same arc order, so its bits
// are sumAffinity's.
func (r *avalaRun) sumRow(ci int) {
	nh := r.ds.NH
	row := r.aff[ci*nh : ci*nh+nh]
	clear(row)
	arcs := r.ds.Adj[ci]
	for w, word := range r.placedArcs[ci] {
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			arc := arcs[k]
			f, oh := r.ds.Freq[arc.Edge], r.assign[arc.Other]
			// Rel is symmetric (the dense values write both halves), so
			// the partner host's row holds Rel(h, oh) for every h: it is
			// read in place of column oh.
			rel := r.ds.Rel[oh*nh:][:len(row)]
			for h := range row {
				row[h] += f * rel[h]
			}
		}
	}
	stamp := r.stamp[ci*nh : ci*nh+nh]
	for h := range stamp {
		stamp[h] = r.ver[ci] + 1
	}
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
