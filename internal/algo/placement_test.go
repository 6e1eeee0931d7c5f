package algo

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dif/internal/model"
	"dif/internal/obs"
)

// randomConstrainedSystem builds a small system that exercises every
// constraint kind: integer memory and CPU (so sums land exactly on
// capacities), location rows including an explicit false entry,
// must/cannot-collocate pairs (a self pair among them now and then),
// CheckCPU, and a down host.
func randomConstrainedSystem(rng *rand.Rand) *model.System {
	s := model.NewSystem()
	s.Constraints = model.NewConstraints()
	s.Constraints.CheckCPU = rng.Intn(2) == 0
	nh, nc := 3+rng.Intn(4), 8+rng.Intn(12)
	for i := 0; i < nh; i++ {
		var p model.Params
		p.Set(model.ParamMemory, float64(10+rng.Intn(20)))
		p.Set(model.ParamCPU, float64(8+rng.Intn(16)))
		s.AddHost(model.HostName(i), p)
	}
	for i := 0; i < nc; i++ {
		var p model.Params
		p.Set(model.ParamMemory, float64(1+rng.Intn(8)))
		p.Set(model.ParamCPU, float64(1+rng.Intn(6)))
		s.AddComponent(model.ComponentName(i), p)
	}
	hosts, comps := s.HostIDs(), s.ComponentIDs()
	s.SetHostDown(hosts[rng.Intn(nh)], true)
	for _, c := range comps {
		if rng.Intn(3) == 0 {
			s.Constraints.Restrict(c, hosts[rng.Intn(nh)], hosts[rng.Intn(nh)])
			s.Constraints.Location[c][hosts[rng.Intn(nh)]] = false
		}
	}
	pick := func() model.ComponentID { return comps[rng.Intn(nc)] }
	for i := 0; i < 1+rng.Intn(3); i++ {
		s.Constraints.RequireCollocation(pick(), pick())
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		s.Constraints.ForbidCollocation(pick(), pick())
	}
	return s
}

// TestCompiledAllowedMatchesChecker requires each shipped checker's
// compiled allowed rows to list exactly the hosts its Allowed returns,
// in the same order, and the membership table to agree with the rows.
// The systems carry pins and restrictions (some naming a host the system
// does not have), a self separation pair, down hosts, degraded hosts (one
// of them down as well) and Current maps that skip components or name an
// empty or unknown host.
func TestCompiledAllowedMatchesChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string]int{}
	for i := 0; i < 200; i++ {
		s := randomConstrainedSystem(rng)
		hosts, comps := s.HostIDs(), s.ComponentIDs()
		for _, c := range comps {
			switch rng.Intn(6) {
			case 0:
				s.Constraints.Pin(c, hosts[rng.Intn(len(hosts))])
			case 1:
				s.Constraints.Pin(c, "ghost")
			case 2:
				s.Constraints.Restrict(c, "ghost", hosts[rng.Intn(len(hosts))])
			}
		}
		if i%2 == 0 {
			c := comps[rng.Intn(len(comps))]
			s.Constraints.ForbidCollocation(c, c)
		}
		switch i % 4 {
		case 1:
			s.SetHostDegraded(hosts[rng.Intn(len(hosts))], 0.5)
		case 2:
			for _, h := range hosts {
				if rng.Intn(2) == 0 {
					s.SetHostDegraded(h, 1)
				}
			}
			s.SetHostDown(hosts[0], true)
			s.SetHostDegraded(hosts[0], 0.7)
		case 3:
			for _, h := range hosts {
				s.SetHostDegraded(h, 0.2)
			}
		}
		current := model.Deployment{}
		for _, c := range comps {
			switch rng.Intn(5) {
			case 0:
			case 1:
				current[c] = ""
			case 2:
				current[c] = "ghost"
			default:
				current[c] = hosts[rng.Intn(len(hosts))]
			}
		}
		checkers := map[string]ConstraintChecker{
			"system":             SystemConstraints{},
			"degraded":           DegradationAware{},
			"degraded+current":   DegradationAware{Current: current},
			"degraded+degraded":  DegradationAware{Inner: DegradationAware{Current: current}},
			"degraded+emptyCurr": DegradationAware{Current: model.Deployment{}},
		}
		for name, check := range checkers {
			cons := check.Incremental(s)
			ds := cons.ds
			for ci, c := range ds.Comps {
				var got []model.HostID
				for _, hi := range cons.allowed[ci] {
					got = append(got, ds.Hosts[hi])
				}
				want := check.Allowed(s, c)
				if !slices.Equal(got, want) {
					t.Fatalf("system %d, %s, %s: compiled %v, Allowed %v", i, name, c, got, want)
				}
				for hi, h := range ds.Hosts {
					if cons.admits[ci*ds.NH+hi] != slices.Contains(want, h) {
						t.Fatalf("system %d, %s, %s: admits %s = %v, Allowed %v", i, name, c, h, cons.admits[ci*ds.NH+hi], want)
					}
				}
				all := s.Constraints.AllowedHosts(s, c)
				switch {
				case len(want) == 0:
					cases["empty"]++
				case len(want) < len(all):
					cases["narrowed"]++
				case slices.ContainsFunc(want, func(h model.HostID) bool { return s.HostDegraded(h) > 0 }):
					cases["degraded kept"]++
				default:
					cases["full"]++
				}
			}
		}
	}
	if cases["empty"] < 100 || cases["narrowed"] < 100 || cases["degraded kept"] < 100 || cases["full"] < 100 {
		t.Fatalf("too little coverage: %v", cases)
	}
}

// TestIncrementalCheckerMatchesConstraints drives the incremental
// checker through random walks of places, unplaces, moves and swaps and
// requires every answer to equal model.Constraints on the Deployment the
// change would produce: CheckPartial while some component is unplaced,
// Check once all are placed.
func TestIncrementalCheckerMatchesConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	asked := map[string]int{}
	for sys := 0; sys < 40; sys++ {
		s := randomConstrainedSystem(rng)
		ds := s.Dense()
		inc := SystemConstraints{}.Incremental(s).begin(ds.Assign(nil))
		d := model.NewDeployment(len(ds.Comps))
		judge := func(trial model.Deployment) bool {
			if len(trial) == len(ds.Comps) {
				return s.Constraints.Check(s, trial) == nil
			}
			return s.Constraints.CheckPartial(s, trial) == nil
		}
		agree := func(op string, got bool, trial model.Deployment) {
			t.Helper()
			asked[op]++
			if want := judge(trial); got != want {
				t.Fatalf("system %d: %s on %v: incremental says %v, Constraints %v", sys, op, trial, got, want)
			}
		}
		for step := 0; step < 400; step++ {
			ci, hi := rng.Intn(len(ds.Comps)), rng.Intn(ds.NH)
			c, h := ds.Comps[ci], ds.Hosts[hi]
			cur := inc.assign[ci]
			switch {
			case cur < 0:
				trial := d.Clone()
				trial[c] = h
				ok := inc.canPlace(ci, hi)
				agree("place", ok, trial)
				if ok {
					inc.place(ci, hi)
					d[c] = h
				}
			case rng.Intn(6) == 0:
				inc.unplace(ci)
				delete(d, c)
			case rng.Intn(2) == 0 && cur != hi:
				trial := d.Clone()
				trial[c] = h
				ok := inc.canMove(ci, hi)
				agree("move", ok, trial)
				if ok {
					inc.move(ci, hi)
					d[c] = h
				}
			default:
				cj := rng.Intn(len(ds.Comps))
				other := inc.assign[cj]
				if other < 0 || other == cur {
					continue
				}
				trial := d.Clone()
				trial[c], trial[ds.Comps[cj]] = ds.Hosts[other], ds.Hosts[cur]
				ok := inc.canSwap(ci, cj)
				agree("swap", ok, trial)
				if ok {
					inc.swap(ci, cj)
					d[c], d[ds.Comps[cj]] = ds.Hosts[other], ds.Hosts[cur]
				}
			}
			if !reflect.DeepEqual(ds.Deployment(inc.assign), d) {
				t.Fatalf("system %d step %d: checker assignment drifted from the deployment", sys, step)
			}
		}
	}
	for _, op := range []string{"place", "move", "swap"} {
		if asked[op] < 100 {
			t.Errorf("only %d %s questions asked: %v", asked[op], op, asked)
		}
	}
}

// TestSearchesAgreeUnderWrappersWithNoDegradedHost runs every search
// under the stock checker, DegradationAware and DegradationAware wrapping
// DegradationAware, on systems with no degraded host: the three see the
// same constraints, so results and search statistics must be identical.
func TestSearchesAgreeUnderWrappersWithNoDegradedHost(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s, _ := genSystem(t, 4, 12, seed)
		if seed > 0 {
			cs := s.ComponentIDs()
			s.Constraints.Pin(cs[0], s.HostIDs()[1])
			s.Constraints.RequireCollocation(cs[1], cs[2])
			s.Constraints.ForbidCollocation(cs[3], cs[4])
		}
		start, err := (&Stochastic{}).Run(context.Background(), s, nil, Config{Objective: availability(), Seed: 1, Trials: 50})
		if err != nil {
			t.Fatalf("seed %d: no valid start: %v", seed, err)
		}
		for _, alg := range []Algorithm{&Avala{}, &Stochastic{}, &Exact{}, &Genetic{}, &Swap{}} {
			var base Result
			for i, check := range []ConstraintChecker{nil, DegradationAware{}, DegradationAware{Inner: DegradationAware{}}} {
				res, err := alg.Run(context.Background(), s, start.Deployment, Config{
					Objective: availability(), Constraints: check, Seed: 3, Trials: 10,
				})
				if err != nil {
					t.Fatalf("seed %d %s under %T: %v", seed, alg.Name(), check, err)
				}
				res.Elapsed = 0
				if i == 0 {
					base = res
				} else if !reflect.DeepEqual(res, base) {
					t.Errorf("seed %d %s: under %T got %+v, stock checker got %+v", seed, alg.Name(), check, res, base)
				}
			}
		}
	}
}

// TestSwapDegradationAwareTakesIncrementalPath: the wrapper's tables,
// compiled from its inner checker's, must — with no degraded host —
// accept exactly the moves the stock checker accepts.
func TestSwapDegradationAwareTakesIncrementalPath(t *testing.T) {
	s, d := genSystem(t, 10, 80, 4)
	runs := map[string]Result{}
	counts := map[string]string{}
	for name, check := range map[string]ConstraintChecker{"stock": nil, "aware": DegradationAware{Current: d}} {
		reg := obs.NewRegistry()
		res, err := (&Swap{}).Run(context.Background(), s, d, Config{Objective: availability(), Constraints: check, Trials: 3, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		runs[name] = res
		counts[name] = fmt.Sprint(
			reg.Counter(obs.Name("algo_candidates_accepted_total", "algo", "swap")).Value(),
			reg.Counter(obs.Name("algo_candidates_rejected_total", "algo", "swap")).Value())
	}
	if !reflect.DeepEqual(runs["stock"], runs["aware"]) || counts["stock"] != counts["aware"] {
		t.Fatalf("stock %+v (accepted, rejected %s) != aware %+v (%s)", runs["stock"], counts["stock"], runs["aware"], counts["aware"])
	}
}

// TestPlannerCountersMatchResult: Avala and Stochastic feed the
// algo_* counters, and every candidate counted in Result.Nodes is either
// accepted or rejected.
func TestPlannerCountersMatchResult(t *testing.T) {
	s, d := genSystem(t, 6, 30, 2)
	for _, alg := range []Algorithm{&Avala{}, &Stochastic{}} {
		reg := obs.NewRegistry()
		res := runAll(t, alg, s, d, Config{Objective: availability(), Seed: 1, Trials: 8, Obs: reg})
		val := func(base string) float64 { return reg.Counter(obs.Name(base, "algo", alg.Name())).Value() }
		acc, rej := val("algo_candidates_accepted_total"), val("algo_candidates_rejected_total")
		if val("algo_iterations_total") == 0 || acc == 0 || int(acc+rej) != res.Nodes {
			t.Errorf("%s: iterations %v, accepted %v + rejected %v, want sum %d", alg.Name(), val("algo_iterations_total"), acc, rej, res.Nodes)
		}
	}
}
