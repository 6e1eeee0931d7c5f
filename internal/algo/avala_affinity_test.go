package algo

import (
	"math"
	"math/rand"
	"testing"

	"dif/internal/model"
)

// arcLoop is Avala's affinity as it was summed before the run skipped
// unplaced partners: every arc of the component, weighed through the
// host's weight row. Slot 1+oh of row hi holds Rel(hi, oh); slot 0, an
// unplaced partner's, holds 1 until the first placement and 0 after it.
type arcLoop struct {
	ds     *model.DenseSystem
	weight []float64
}

func newArcLoop(ds *model.DenseSystem) *arcLoop {
	nh := ds.NH
	l := &arcLoop{ds: ds, weight: make([]float64, nh*(nh+1))}
	for hi := 0; hi < nh; hi++ {
		l.weight[hi*(nh+1)] = 1
		copy(l.weight[hi*(nh+1)+1:], ds.Rel[hi*nh:hi*nh+nh])
	}
	return l
}

// firstPlaced zeroes every row's unplaced slot.
func (l *arcLoop) firstPlaced() {
	for i := 0; i < len(l.weight); i += l.ds.NH + 1 {
		l.weight[i] = 0
	}
}

func (l *arcLoop) sum(assign []int, ci, hi int) float64 {
	w := l.weight[hi*(l.ds.NH+1):]
	a := 0.0
	for _, arc := range l.ds.Adj[ci] {
		a += l.ds.Freq[arc.Edge] * w[assign[arc.Other]+1]
	}
	return a
}

// affinityTestSystem is a generated system with host pairs unlinked,
// zero-frequency interactions written through the Modifier and through
// Params plus Touch, two pinned components, and components whose arc
// counts sit on either side of a bitset word: 63, 64, 65, 128 and 129.
func affinityTestSystem(t *testing.T, seed int64) (*model.System, map[model.ComponentID]int) {
	t.Helper()
	s, _ := genSystem(t, 8, 200, seed)
	hs, cs := s.HostIDs(), s.ComponentIDs()
	mod := model.NewModifier(s)
	for _, p := range [][2]int{{0, 1}, {2, 5}, {3, 7}} {
		if s.Link(hs[p[0]], hs[p[1]]) != nil {
			if err := mod.RemoveLink(hs[p[0]], hs[p[1]]); err != nil {
				t.Fatal(err)
			}
		}
	}
	degree := map[model.ComponentID]int{cs[10]: 63, cs[11]: 64, cs[12]: 65, cs[13]: 128, cs[14]: 129}
	for c, want := range degree {
		have := map[model.ComponentID]bool{}
		for _, l := range s.InteractionsOf(c) {
			have[l.Components.A], have[l.Components.B] = true, true
		}
		delete(have, c)
		for _, o := range cs {
			if _, target := degree[o]; target || o == c {
				continue
			}
			switch {
			case len(have) > want && have[o]:
				if err := mod.RemoveInteraction(c, o); err != nil {
					t.Fatal(err)
				}
				delete(have, o)
			case len(have) < want && !have[o]:
				p := model.Params{}
				p.Set(model.ParamFrequency, float64(1+len(have)%7))
				p.Set(model.ParamEventSize, 1)
				if _, err := s.AddInteraction(c, o, p); err != nil {
					t.Fatal(err)
				}
				have[o] = true
			}
		}
	}
	keys := s.InteractionKeys()
	for i, k := range keys {
		switch {
		case i%11 == 0:
			if err := mod.SetInteractionParam(k.A, k.B, model.ParamFrequency, 0); err != nil {
				t.Fatal(err)
			}
		case i%13 == 0:
			s.Interaction(k.A, k.B).Params.Set(model.ParamFrequency, 0)
		}
	}
	s.Touch()
	s.Constraints.Pin(cs[3], hs[2])
	s.Constraints.Pin(cs[11], hs[4])
	return s, degree
}

// TestAvalaAffinitySumsMatchArcLoop holds the run's affinities — the
// cached single entry, the row pass and the sum before the first
// placement — to the weighted loop over every arc, bit for bit, along
// random placement sequences.
func TestAvalaAffinitySumsMatchArcLoop(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, degree := affinityTestSystem(t, seed)
		v := newSearchSpace(s, Config{}.checker())
		ds := v.ds
		short, zero, unlinked := false, false, false
		for ci, arcs := range ds.Adj {
			if want, ok := degree[ds.Comps[ci]]; ok && len(arcs) != want {
				t.Fatalf("seed %d: %s has %d arcs, want %d", seed, ds.Comps[ci], len(arcs), want)
			}
			short = short || len(arcs) < 64
		}
		for _, f := range ds.Freq {
			zero = zero || f == 0
		}
		for _, rel := range ds.Rel {
			unlinked = unlinked || rel == 0
		}
		if !short || !zero || !unlinked {
			t.Fatalf("seed %d: system lacks a case: short %v, zero frequency %v, unlinked pair %v", seed, short, zero, unlinked)
		}

		r := newAvalaRun(v, &Result{})
		ref := newArcLoop(ds)
		rng := rand.New(rand.NewSource(seed))
		same := func(what string, ci, hi int, got float64) {
			t.Helper()
			if want := ref.sum(r.assign, ci, hi); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, %d placed: %s(%s, %s) = %v, arc loop %v",
					seed, r.placed, what, ds.Comps[ci], ds.Hosts[hi], got, want)
			}
		}
		// check reads every affinity of one component in every `every`
		// through the cache, the row first or one entry first, then sums
		// as many others afresh. Components it skips stay stale across
		// placements.
		check := func(every int) {
			t.Helper()
			for ci := range ds.Comps {
				if rng.Intn(every) != 0 {
					continue
				}
				first := rng.Intn(ds.NH)
				if rng.Intn(2) == 0 {
					same("affinity", ci, first, r.affinity(ci, first))
				} else {
					same("rowAffinity", ci, first, r.rowAffinity(ci, first))
				}
				for hi := 0; hi < ds.NH; hi++ {
					same("rowAffinity", ci, hi, r.rowAffinity(ci, hi))
					same("affinity", ci, hi, r.affinity(ci, hi))
				}
			}
			if r.placed == 0 {
				return
			}
			for ci := range ds.Comps {
				if rng.Intn(every) != 0 {
					continue
				}
				for hi := 0; hi < ds.NH; hi++ {
					same("sumAffinity", ci, hi, r.sumAffinity(ci, hi))
				}
				r.sumRow(ci)
				for hi := 0; hi < ds.NH; hi++ {
					same("sumRow", ci, hi, r.aff[ci*ds.NH+hi])
				}
			}
		}
		place := func(ci, hi int) {
			if r.placed == 0 {
				ref.firstPlaced()
			}
			r.place(ci, hi)
			check(4)
		}

		check(1)
		pinned := 0
		for ci, hosts := range v.allowed {
			if len(hosts) == 1 {
				place(ci, hosts[0])
				pinned++
			}
		}
		if pinned != 2 {
			t.Fatalf("seed %d: %d pinned components placed, want 2", seed, pinned)
		}
		for _, ci := range rng.Perm(len(ds.Comps)) {
			if hosts := v.allowed[ci]; r.assign[ci] < 0 && len(hosts) > 0 {
				place(ci, hosts[rng.Intn(len(hosts))])
			}
		}
		check(1)
	}
}
