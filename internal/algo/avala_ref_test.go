package algo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// This file keeps Avala's ranking, packing and repair as they were
// before the run cached affinities and popped candidates from a heap:
// every affinity summed afresh, every round sorted in full, every host
// scored by walking the Links map. TestAvalaMatchesReference holds the
// shipped search to it.

// refAvalaRun is one Avala search's state.
type refAvalaRun struct {
	*searchSpace
	p      *incChecker
	assign []int     // p's live assignment
	used   []float64 // memory placed per host, in placement order
	placed int
	res    *Result

	rounds, accepted int                 // ranking rounds and placed candidates
	cands            []refAvalaCandidate // ranking buffer
}

// refAvalaCandidate is one unplaced component ranked for a host.
type refAvalaCandidate struct {
	ci       int
	affinity float64
	key      float64 // affinity − normalized memory
}

// avalaReference is Avala.Run as it was before the affinity cache.
func avalaReference(ctx context.Context, s *model.System, initial model.Deployment, cfg Config) (Result, error) {
	start := time.Now()
	res := Result{
		Algorithm:    "avala",
		InitialScore: scoreInitial(cfg.Objective, s, initial),
	}
	v := newSearchSpace(s, cfg.checker())
	r := &refAvalaRun{searchSpace: v, p: v.begin(nil), used: make([]float64, v.ds.NH), res: &res}
	r.assign = r.p.assign
	defer func() {
		met := cfg.metrics("avala")
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
		h := refNextBestHost(s, filled)
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
			res.Score = cfg.Objective.Quantify(s, d)
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}
	res.Elapsed = time.Since(start)
	return res, ErrNoValidDeployment
}

func (r *refAvalaRun) place(ci, hi int) {
	r.p.place(ci, hi)
	r.used[hi] += r.cons.compMem[ci]
	r.placed++
}

// packHost fills host hi with the best remaining components until none
// fit.
func (r *refAvalaRun) packHost(hi int) {
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
func (r *refAvalaRun) repair() bool {
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

// refNextBestHost picks the host to fill next. The first host is the
// globally best-connected one (the paper's criterion: highest sum of
// network reliabilities and bandwidths with other hosts, and highest
// memory). Subsequent hosts are chosen by their reliability and bandwidth
// toward the hosts already filled — the links that the resulting
// deployment will actually route its remote interactions over.
func refNextBestHost(s *model.System, filled []model.HostID) model.HostID {
	isFilled := make(map[model.HostID]bool, len(filled))
	for _, h := range filled {
		isFilled[h] = true
	}
	if len(filled) == 0 {
		if ranked := refRankHosts(s); len(ranked) > 0 {
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

// refRankHosts orders hosts by descending (Σ reliability + Σ normalized
// bandwidth + normalized memory), the paper's best-host criterion.
func refRankHosts(s *model.System) []model.HostID {
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
func (r *refAvalaRun) betterHostExists(ci, hi int, affinityOnH float64) bool {
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
func (r *refAvalaRun) affinity(ci, hi int) float64 {
	nh := r.ds.NH
	rel := r.ds.Rel[hi*nh : hi*nh+nh]
	empty := r.placed == 0
	a := 0.0
	for _, arc := range r.ds.Adj[ci] {
		switch oh := r.assign[arc.Other]; {
		case oh < 0:
			if empty {
				a += r.ds.Freq[arc.Edge]
			}
		case oh == hi:
			a += r.ds.Freq[arc.Edge]
		default:
			a += r.ds.Freq[arc.Edge] * rel[oh]
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
func (r *refAvalaRun) rank(hi int) []refAvalaCandidate {
	cands := r.cands[:0]
	maxMem := 1.0
	for ci, h := range r.assign {
		if h >= 0 {
			continue
		}
		if m := r.cons.compMem[ci]; m > maxMem {
			maxMem = m
		}
		cands = append(cands, refAvalaCandidate{ci: ci, affinity: r.affinity(ci, hi)})
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

// TestAvalaMatchesReference runs Avala and the reference on 130
// generated systems from 4×20 to 20×400, each under the stock checker
// and under DegradationAware, with degraded and down hosts, pins,
// location restrictions and collocation pairs mixed in by seed. Every
// run must return the same result (deployment, score bits, Nodes,
// Evaluations), the same error and the same algo_* counters.
func TestAvalaMatchesReference(t *testing.T) {
	sizes := []struct{ hosts, comps, systems int }{
		{4, 20, 45}, {6, 40, 35}, {8, 80, 25}, {10, 100, 15}, {12, 150, 8}, {20, 400, 2},
	}
	runs, failed := 0, 0
	for _, sz := range sizes {
		for k := 0; k < sz.systems; k++ {
			seed := int64(1000*sz.hosts + k)
			s, d := referenceSystem(t, sz.hosts, sz.comps, seed)
			for _, check := range []ConstraintChecker{nil, DegradationAware{Current: d}} {
				name := fmt.Sprintf("%dx%d/seed%d/%T", sz.hosts, sz.comps, seed, check)
				got, gotCounters, gotErr := runAvalaCounted(s, d, check, (&Avala{}).Run)
				want, wantCounters, wantErr := runAvalaCounted(s, d, check, avalaReference)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
					t.Fatalf("%s: result %+v, reference %+v", name, got, want)
				}
				if gotCounters != wantCounters {
					t.Fatalf("%s: counters\n%s\nreference\n%s", name, gotCounters, wantCounters)
				}
				runs++
				if gotErr != nil {
					failed++
				}
			}
		}
	}
	if runs < 250 || failed == 0 || failed == runs {
		t.Fatalf("%d runs, %d without a deployment: the mix does not cover both outcomes", runs, failed)
	}
	t.Logf("%d runs, %d without a deployment", runs, failed)
}

// referenceSystem generates one system of TestAvalaMatchesReference's
// mix; the seed picks tight memory and the constraints and host states.
func referenceSystem(t *testing.T, hosts, comps int, seed int64) (*model.System, model.Deployment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := model.DefaultGeneratorConfig(hosts, comps)
	if rng.Intn(2) == 0 {
		fair := cfg.ComponentMemory.Mid() * float64(comps) / float64(hosts)
		cfg.HostMemory = model.Range{Min: fair, Max: fair * 1.5}
		cfg.MemoryHeadroom = 1.2
	}
	s, d, err := model.NewGenerator(cfg, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	hs, cs := s.HostIDs(), s.ComponentIDs()
	host := func() model.HostID { return hs[rng.Intn(len(hs))] }
	comp := func() model.ComponentID { return cs[rng.Intn(len(cs))] }
	for n := rng.Intn(3); n > 0; n-- {
		s.SetHostDegraded(host(), 0.2+0.8*rng.Float64())
	}
	if rng.Intn(4) == 0 {
		s.SetHostDown(host(), true)
	}
	if rng.Intn(3) == 0 {
		s.Constraints.Pin(comp(), host())
	}
	if rng.Intn(3) == 0 {
		s.Constraints.Restrict(comp(), host(), host())
	}
	if rng.Intn(3) == 0 {
		s.Constraints.RequireCollocation(comp(), comp())
	}
	for n := rng.Intn(3); n > 0; n-- {
		s.Constraints.ForbidCollocation(comp(), comp())
	}
	return s, d
}

// runAvalaCounted runs one Avala implementation with its own registry and
// returns its result without Elapsed, its counters and its error.
func runAvalaCounted(s *model.System, d model.Deployment, check ConstraintChecker,
	run func(context.Context, *model.System, model.Deployment, Config) (Result, error)) (Result, string, error) {
	reg := obs.NewRegistry()
	res, err := run(context.Background(), s, d, Config{Objective: availability(), Constraints: check, Obs: reg})
	res.Elapsed = 0
	return res, reg.Snapshot().String(), err
}
