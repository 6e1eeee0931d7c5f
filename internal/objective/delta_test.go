package objective

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dif/internal/model"
)

func deltaTestSystem(t *testing.T, hosts, comps int, seed int64) (*model.System, model.Deployment) {
	t.Helper()
	s, d, err := model.NewGenerator(model.DefaultGeneratorConfig(hosts, comps), seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func relClose(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

// TestDeltaMatchesQuantifyRandomOps drives each dense delta evaluator
// through a long randomized Move/SwapPair/Commit/Revert sequence,
// cross-checking every staged score and every committed score against
// the reference walk of a shadow deployment. The op count crosses the rebase
// interval so drift control is exercised.
func TestDeltaMatchesQuantifyRandomOps(t *testing.T) {
	for _, q := range []DeltaQuantifier{Availability{}, Latency{}} {
		t.Run(q.Name(), func(t *testing.T) {
			s, d := deltaTestSystem(t, 6, 24, 7)
			shadow := d.Clone()
			st := q.Begin(s, shadow)
			rng := rand.New(rand.NewSource(42))
			hosts := s.HostIDs()
			comps := s.ComponentIDs()

			const ops = 6000
			for i := 0; i < ops; i++ {
				staged := shadow.Clone()
				var got float64
				if rng.Intn(2) == 0 {
					c := comps[rng.Intn(len(comps))]
					h := hosts[rng.Intn(len(hosts))]
					got = st.Move(c, h)
					staged[c] = h
				} else {
					c1 := comps[rng.Intn(len(comps))]
					c2 := comps[rng.Intn(len(comps))]
					for c2 == c1 {
						c2 = comps[rng.Intn(len(comps))]
					}
					got = st.SwapPair(c1, c2)
					staged[c1], staged[c2] = shadow[c2], shadow[c1]
				}
				if want := referenceQuantify(t, q, s, staged); !relClose(got, want, 1e-12) {
					t.Fatalf("op %d: staged score %v, reference %v", i, got, want)
				}
				if rng.Intn(10) < 7 {
					st.Commit()
					shadow = staged
				} else {
					st.Revert()
				}
				if i%97 == 0 {
					if got, want := st.Score(), referenceQuantify(t, q, s, shadow); !relClose(got, want, 1e-12) {
						t.Fatalf("op %d: committed score %v, reference %v", i, got, want)
					}
				}
			}
		})
	}
}

// TestDeltaFallbackExact checks that a quantifier without its own delta
// evaluator still honors the DeltaState protocol through BeginDelta's
// full-requantify fallback, scoring every perturbation as the reference
// walk does.
func TestDeltaFallbackExact(t *testing.T) {
	s, d := deltaTestSystem(t, 5, 16, 11)
	var q Quantifier = CommCost{}
	if _, ok := q.(DeltaQuantifier); ok {
		t.Fatal("CommCost unexpectedly implements DeltaQuantifier; pick another fallback subject")
	}
	shadow := d.Clone()
	st := BeginDelta(q, s, shadow)
	rng := rand.New(rand.NewSource(5))
	hosts := s.HostIDs()
	comps := s.ComponentIDs()

	for i := 0; i < 300; i++ {
		staged := shadow.Clone()
		var got float64
		if rng.Intn(2) == 0 {
			c := comps[rng.Intn(len(comps))]
			h := hosts[rng.Intn(len(hosts))]
			got = st.Move(c, h)
			staged[c] = h
		} else {
			c1 := comps[rng.Intn(len(comps))]
			c2 := comps[rng.Intn(len(comps))]
			for c2 == c1 {
				c2 = comps[rng.Intn(len(comps))]
			}
			got = st.SwapPair(c1, c2)
			staged[c1], staged[c2] = shadow[c2], shadow[c1]
		}
		if want := referenceQuantify(t, q, s, staged); !relClose(got, want, 1e-12) {
			t.Fatalf("op %d: staged score %v, reference %v", i, got, want)
		}
		if rng.Intn(2) == 0 {
			st.Commit()
			shadow = staged
		} else {
			st.Revert()
		}
		if got, want := st.Score(), referenceQuantify(t, q, s, shadow); !relClose(got, want, 1e-12) {
			t.Fatalf("op %d: committed score %v, reference %v", i, got, want)
		}
	}
}

// TestDeltaProtocolPanics pins the evaluate-then-resolve contract:
// staging twice, or resolving with nothing staged, is a programming
// error.
func TestDeltaProtocolPanics(t *testing.T) {
	s, d := deltaTestSystem(t, 4, 8, 17)
	comps := s.ComponentIDs()
	hosts := s.HostIDs()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}

	st := Availability{}.Begin(s, d)
	st.Move(comps[0], hosts[0])
	mustPanic("double stage", func() { st.Move(comps[1], hosts[1]) })

	st2 := Availability{}.Begin(s, d)
	mustPanic("commit without stage", func() { st2.Commit() })
	mustPanic("revert without stage", func() { st2.Revert() })
}

// TestQuantifyDenseMatchesQuantify: QuantifyDense is Quantify's sum to
// the bit, through a dense evaluator or, for any other quantifier (here
// a composite), over the deployment the assignment spells. The
// assignment is left as it was.
func TestQuantifyDenseMatchesQuantify(t *testing.T) {
	s, d := deltaTestSystem(t, 6, 24, 3)
	ds := s.Dense()
	assign := ds.Assign(d)
	comp, err := NewComposite(Term{Quantifier: Availability{}, Weight: 1}, Term{Quantifier: Latency{}, Weight: 0.5, Scale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quantifier{Availability{}, Latency{}, comp} {
		if got, want := QuantifyDense(q, s, ds, assign), q.Quantify(s, d); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: QuantifyDense %v, Quantify %v", q.Name(), got, want)
		}
	}
	if !slices.Equal(assign, ds.Assign(d)) {
		t.Fatal("QuantifyDense wrote to the assignment")
	}
}

// TestLatencyRebaseMatchesArcCost: the latency sweep's masked select is
// the arcCost sum in edge order, to the bit, on sparse host graphs
// (disconnected pairs), with undeployed components, zero frequencies and
// links whose bandwidth is zero, negative or NaN. Every other system has
// two or three components, so that a term's last bit shows in the sum.
func TestLatencyRebaseMatchesArcCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := map[string]int{}
	for i := 0; i < 400; i++ {
		comps := 10 + rng.Intn(40)
		if i%2 == 1 {
			comps = 2 + rng.Intn(2)
		}
		cfg := model.DefaultGeneratorConfig(3+rng.Intn(6), comps)
		cfg.LinkDensity = 0.2
		s, d, err := model.NewGenerator(cfg, int64(i)).Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range s.LinkKeys() {
			// A NaN makes the whole sum NaN, so only every fourth
			// system has one.
			switch rng.Intn(8) {
			case 0:
				s.Links[k].Params.Set(model.ParamBandwidth, 0)
			case 1:
				s.Links[k].Params.Set(model.ParamBandwidth, -5)
			case 2:
				if i%4 == 0 {
					s.Links[k].Params.Set(model.ParamBandwidth, math.NaN())
				}
			}
		}
		for _, k := range s.InteractionKeys() {
			if rng.Intn(5) == 0 {
				s.Interacts[k].Params.Set(model.ParamFrequency, 0)
			}
		}
		s.Touch()
		ds := s.Dense()
		assign := ds.Assign(d)
		for ci := range assign {
			if rng.Intn(6) == 0 {
				assign[ci] = -1
			}
		}
		st := Latency{}.BeginDense(ds, assign).(*latencyDelta)
		want := 0.0
		for e, edge := range ds.Edges {
			a, b := assign[edge.A], assign[edge.B]
			want += st.arcCost(ds.Freq[e], ds.Size[e], a, b)
			switch {
			case a < 0 || b < 0:
				cases["undeployed"]++
			case ds.Freq[e] == 0:
				cases["zero frequency"]++
			case !(ds.BW[a*ds.NH+b] > 0):
				cases["cut"]++
			default:
				cases["linked"]++
			}
		}
		if math.Float64bits(st.Score()) != math.Float64bits(want) {
			t.Fatalf("system %d: rebase %v, arcCost sum %v", i, st.Score(), want)
		}
	}
	for _, k := range []string{"undeployed", "zero frequency", "cut", "linked"} {
		if cases[k] < 100 {
			t.Fatalf("too little coverage: %v", cases)
		}
	}
}
