package algo

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dif/internal/model"
)

func TestDegradationAwareFiltersDegradedHosts(t *testing.T) {
	s, d := genSystem(t, 4, 8, 7)
	hosts := s.HostIDs()
	bad := hosts[0]
	s.SetHostDegraded(bad, 1)

	check := DegradationAware{Current: d}
	for _, c := range s.ComponentIDs() {
		allowed := check.Allowed(s, c)
		for _, h := range allowed {
			if h == bad && d[c] != bad {
				t.Fatalf("component %s allowed on degraded host %s it does not occupy", c, bad)
			}
		}
	}
}

func TestDegradationAwareKeepsCurrentHost(t *testing.T) {
	s, d := genSystem(t, 4, 8, 7)
	// Find a component and degrade the host it lives on: the host must
	// stay in that component's allowed set (no force-migration) while
	// vanishing from everyone else's.
	var comp model.ComponentID
	var bad model.HostID
	for c, h := range d {
		comp, bad = c, h
		break
	}
	s.SetHostDegraded(bad, 0.5)
	check := DegradationAware{Current: d}
	found := false
	for _, h := range check.Allowed(s, comp) {
		if h == bad {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded host %s dropped from resident component %s's allowed set", bad, comp)
	}
}

func TestDegradationAwareNeverInfeasible(t *testing.T) {
	s, d := genSystem(t, 3, 6, 7)
	for _, h := range s.HostIDs() {
		s.SetHostDegraded(h, 1)
	}
	// Planning from scratch in an all-degraded cluster: the filter must
	// fall back to the full set rather than declare infeasibility.
	scratch := DegradationAware{}
	plain := SystemConstraints{}
	for _, c := range s.ComponentIDs() {
		got, want := scratch.Allowed(s, c), plain.Allowed(s, c)
		if len(got) != len(want) {
			t.Fatalf("all-degraded fallback: component %s allowed %v, want full set %v", c, got, want)
		}
	}
	// With a live deployment, a resident component keeps (at least) its
	// own host — everything pinned in place, nothing infeasible.
	resident := DegradationAware{Current: d}
	for _, c := range s.ComponentIDs() {
		got := resident.Allowed(s, c)
		if len(got) == 0 {
			t.Fatalf("component %s has empty allowed set", c)
		}
		found := false
		for _, h := range got {
			if h == d[c] {
				found = true
			}
		}
		if !found {
			t.Fatalf("component %s lost its current host %s from %v", c, d[c], got)
		}
	}
}

// TestDegradationAwareSteersPlanning runs real algorithms under the
// wrapper: no component that lives elsewhere may be newly placed on the
// degraded host.
func TestDegradationAwareSteersPlanning(t *testing.T) {
	s, d := genSystem(t, 4, 10, 11)
	bad := s.HostIDs()[1]
	s.SetHostDegraded(bad, 1)
	for _, name := range []string{"stochastic", "avala", "genetic", "swap"} {
		alg, err := NewRegistry().New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := alg.Run(context.Background(), s, d, Config{
			Objective:   availability(),
			Constraints: DegradationAware{Current: d},
			Seed:        1,
			Trials:      20,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c, h := range res.Deployment {
			if h == bad && d[c] != bad {
				t.Fatalf("%s newly placed %s on degraded host %s", name, c, bad)
			}
		}
	}
}

// degradedFilter is the reference for DegradationAware.Allowed: the
// inner checker's hosts minus the degraded ones other than the
// component's current host, or all of them when that leaves none.
func degradedFilter(s *model.System, current model.Deployment, c model.ComponentID) []model.HostID {
	all := SystemConstraints{}.Allowed(s, c)
	var kept []model.HostID
	for _, h := range all {
		if s.HostDegraded(h) == 0 || (current != nil && current[c] == h) {
			kept = append(kept, h)
		}
	}
	if len(kept) == 0 {
		return all
	}
	return kept
}

// TestDegradationAwareAllowedMatchesReference compares Allowed with the
// reference filter on random systems with no, one, several and every
// host degraded, with and without a current deployment.
func TestDegradationAwareAllowedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string]int{}
	for i, s := range denseTrialSystems(100) {
		hosts := s.HostIDs()
		if i%4 == 0 {
			for _, h := range hosts {
				s.SetHostDegraded(h, 1)
			}
		} else if i%4 == 1 {
			s.SetHostDegraded(hosts[rng.Intn(len(hosts))], 0.3)
		}
		for _, current := range []model.Deployment{nil, randomDeployment(rng, s)} {
			for _, c := range s.ComponentIDs() {
				got, want := DegradationAware{Current: current}.Allowed(s, c), degradedFilter(s, current, c)
				if !slices.Equal(got, want) {
					t.Fatalf("system %d, %s, current %v: Allowed %v, reference %v", i, c, current[c], got, want)
				}
				all := SystemConstraints{}.Allowed(s, c)
				switch {
				case len(got) == len(all):
					cases["full set"]++
				case current != nil && slices.Contains(got, current[c]) && s.HostDegraded(current[c]) > 0:
					cases["current degraded host kept"]++
				default:
					cases["filtered"]++
				}
			}
		}
	}
	if cases["full set"] < 100 || cases["current degraded host kept"] < 50 || cases["filtered"] < 100 {
		t.Fatalf("too little coverage: %v", cases)
	}
}
