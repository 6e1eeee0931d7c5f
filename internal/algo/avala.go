package algo

import (
	"context"
	"sort"
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
	cands            []avalaCandidate // ranking buffer
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
	r := &avalaRun{searchSpace: v, p: v.begin(nil), used: make([]float64, v.ds.NH), res: &res}
	r.assign = r.p.assignment()
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

	filled := make([]model.HostID, 0, len(s.Hosts))
	for len(filled) < len(s.Hosts) {
		select {
		case <-ctx.Done():
			res.Elapsed = time.Since(start)
			return res, ctx.Err()
		default:
		}
		h := nextBestHost(s, filled)
		if h == "" {
			break // every live host filled; stragglers go to repair
		}
		r.packHost(v.ds.HostIndex(h))
		filled = append(filled, h)
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

func (r *avalaRun) place(ci, hi int) {
	r.p.place(ci, hi)
	r.used[hi] += r.cons.compMem[ci]
	r.placed++
}

// packHost fills host hi with the best remaining components until none
// fit.
func (r *avalaRun) packHost(hi int) {
	for {
		r.rounds++
		placedAny := false
		for _, c := range r.rank(hi) {
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
	type hostRank struct {
		hi             int
		affinity, free float64
	}
	for ci, hi := range r.assign {
		if hi >= 0 {
			continue
		}
		ranked := make([]hostRank, 0, len(r.allowed[ci]))
		for _, h := range r.allowed[ci] {
			ranked = append(ranked, hostRank{h, r.affinity(ci, h), r.cons.hostMem[h] - r.used[h]})
		}
		sort.Slice(ranked, func(i, j int) bool {
			x, y := ranked[i], ranked[j]
			if x.affinity != y.affinity {
				return x.affinity > y.affinity
			}
			if x.free != y.free {
				return x.free > y.free
			}
			return x.hi < y.hi
		})
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

// nextBestHost picks the host to fill next. The first host is the
// globally best-connected one (the paper's criterion: highest sum of
// network reliabilities and bandwidths with other hosts, and highest
// memory). Subsequent hosts are chosen by their reliability and bandwidth
// toward the hosts already filled — the links that the resulting
// deployment will actually route its remote interactions over.
func nextBestHost(s *model.System, filled []model.HostID) model.HostID {
	isFilled := make(map[model.HostID]bool, len(filled))
	for _, h := range filled {
		isFilled[h] = true
	}
	if len(filled) == 0 {
		if ranked := rankHosts(s); len(ranked) > 0 {
			return ranked[0]
		}
		return ""
	}
	maxBW, maxMem := 1.0, 1.0
	for _, l := range s.Links {
		if bw := l.Bandwidth(); bw > maxBW {
			maxBW = bw
		}
	}
	for _, h := range s.Hosts {
		if m := h.Memory(); m > maxMem {
			maxMem = m
		}
	}
	var best model.HostID
	bestScore := 0.0
	first := true
	for _, h := range s.UpHostIDs() {
		if isFilled[h] {
			continue
		}
		score := s.Hosts[h].Memory() / maxMem
		for _, f := range filled {
			if l := s.Link(h, f); l != nil {
				score += l.Reliability() + l.Bandwidth()/maxBW
			}
		}
		if first || score > bestScore {
			best, bestScore, first = h, score, false
		}
	}
	return best
}

// rankHosts orders hosts by descending (Σ reliability + Σ normalized
// bandwidth + normalized memory), the paper's best-host criterion.
func rankHosts(s *model.System) []model.HostID {
	hosts := s.UpHostIDs()
	maxBW, maxMem := 1.0, 1.0
	for _, l := range s.Links {
		if bw := l.Bandwidth(); bw > maxBW {
			maxBW = bw
		}
	}
	for _, h := range s.Hosts {
		if m := h.Memory(); m > maxMem {
			maxMem = m
		}
	}
	score := make(map[model.HostID]float64, len(hosts))
	for pair, l := range s.Links {
		v := l.Reliability() + l.Bandwidth()/maxBW
		score[pair.A] += v
		score[pair.B] += v
	}
	for _, h := range hosts {
		score[h] += s.Hosts[h].Memory() / maxMem
	}
	sort.Slice(hosts, func(i, j int) bool {
		if score[hosts[i]] != score[hosts[j]] {
			return score[hosts[i]] > score[hosts[j]]
		}
		return hosts[i] < hosts[j]
	})
	return hosts
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
// all is placed) full frequency for unplaced partners.
func (r *avalaRun) affinity(ci, hi int) float64 {
	nh := r.ds.NH
	rel := r.ds.Rel[hi*nh : hi*nh+nh]
	empty := r.placed == 0
	a := 0.0
	for _, arc := range r.ds.Adj[ci] {
		switch oh := r.assign[arc.Other]; {
		case oh < 0:
			if empty {
				a += arc.Freq
			}
		case oh == hi:
			a += arc.Freq
		default:
			a += arc.Freq * rel[oh]
		}
	}
	return a
}

// rank orders the unplaced components for host hi by descending
// affinity and ascending memory. Affinity counts interaction frequency
// with components already on hi at full weight (they would become local)
// and frequency with components on other hosts at the connecting link's
// reliability. When nothing is placed yet, the seed component is the one
// with the highest total interaction frequency (the paper's criterion).
// The returned slice is reused by the next call.
func (r *avalaRun) rank(hi int) []avalaCandidate {
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
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].key != cands[j].key {
			return cands[i].key > cands[j].key
		}
		return cands[i].ci < cands[j].ci
	})
	r.cands = cands
	return cands
}
