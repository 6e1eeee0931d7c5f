package algo

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dif/internal/model"
	"dif/internal/objective"
)

// zeroFrequencyTwins returns a generated system whose first host pair is
// disconnected and some of whose interactions have a frequency of 0 or
// below, written through the Modifier and by a direct Params write plus
// Touch (one of these with an infinite event size), and a twin of it
// without those interactions. One of them joins components the
// generator placed across the disconnected pair, so the latency sums
// meet it on the partition-penalty branch.
func zeroFrequencyTwins(t *testing.T, hosts, comps int, seed int64) (s, twin *model.System, d model.Deployment) {
	t.Helper()
	s, d = genSystem(t, hosts, comps, seed)
	hs := s.HostIDs()
	if s.Link(hs[0], hs[1]) != nil {
		if err := model.NewModifier(s).RemoveLink(hs[0], hs[1]); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.InteractionKeys()
	zeroed := []model.ComponentPair{keys[0], keys[len(keys)/3], keys[len(keys)/2], keys[len(keys)-1]}
	for _, k := range keys {
		if a, b := d[k.A], d[k.B]; (a == hs[0] && b == hs[1]) || (a == hs[1] && b == hs[0]) {
			zeroed[0] = k
			break
		}
	}
	if a, b := d[zeroed[0].A], d[zeroed[0].B]; s.Link(a, b) != nil || a == b {
		t.Fatalf("no interaction across the disconnected pair %s-%s", hs[0], hs[1])
	}
	twin = s.Clone()
	mod := model.NewModifier(s)
	for i, k := range zeroed {
		var err error
		switch i {
		case 0:
			err = mod.SetInteractionParam(k.A, k.B, model.ParamFrequency, 0)
		case 1:
			err = mod.SetInteractionParam(k.A, k.B, model.ParamFrequency, -2)
		case 2:
			// An infinite size that reached a sum would make 0·Inf a NaN.
			s.Interaction(k.A, k.B).Params.Set(model.ParamFrequency, 0)
			s.Interaction(k.A, k.B).Params.Set(model.ParamEventSize, math.Inf(1))
		default:
			s.Interaction(k.A, k.B).Params.Set(model.ParamFrequency, -5)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := model.NewModifier(twin).RemoveInteraction(k.A, k.B); err != nil {
			t.Fatal(err)
		}
	}
	s.Touch()
	if got, want := len(s.Dense().Edges), len(twin.Dense().Edges)+len(zeroed); got != want {
		t.Fatalf("%d dense edges with the zeroed interactions kept, want %d", got, want)
	}
	return s, twin, d
}

// sameResult reports whether two search results agree to the bit: the
// deployment, both scores, and the search statistics.
func sameResult(got, want Result) bool {
	return reflect.DeepEqual(got.Deployment, want.Deployment) &&
		math.Float64bits(got.Score) == math.Float64bits(want.Score) &&
		math.Float64bits(got.InitialScore) == math.Float64bits(want.InitialScore) &&
		got.Nodes == want.Nodes && got.Evaluations == want.Evaluations
}

// TestZeroFrequencyMatchesRemoved pins the rule that a dense edge whose
// frequency is not positive adds +0 to every sum: the scores and the
// plans of a system with such interactions are those of the same system
// without them, bit for bit.
func TestZeroFrequencyMatchesRemoved(t *testing.T) {
	objectives := []objective.Quantifier{objective.Availability{}, objective.Latency{}}
	s, twin, d := zeroFrequencyTwins(t, 6, 30, 3)
	partial := d.Clone()
	for _, c := range s.ComponentIDs()[:5] {
		delete(partial, c)
	}
	for _, q := range objectives {
		for _, dep := range []model.Deployment{d, partial} {
			got, want := q.Quantify(s, dep), q.Quantify(twin, dep)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s over %d placed components: %v with the zeroed interactions, %v without", q.Name(), len(dep), got, want)
			}
		}
	}

	run := func(a Algorithm, s *model.System, d model.Deployment, cfg Config) Result {
		t.Helper()
		res, err := a.Run(context.Background(), s, d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		return res
	}
	for _, q := range objectives {
		cfg := Config{Objective: q, Seed: 5, Trials: 20, Workers: 1}
		for _, a := range []Algorithm{&Avala{}, &Stochastic{}, &Swap{}} {
			if got, want := run(a, s, d, cfg), run(a, twin, d, cfg); !sameResult(got, want) {
				t.Fatalf("%s under %s: %+v with the zeroed interactions, %+v without", a.Name(), q.Name(), got, want)
			}
		}
	}
	small, smallTwin, smallD := zeroFrequencyTwins(t, 4, 10, 3)
	cfg := Config{Objective: objective.Availability{}}
	if got, want := run(&Exact{}, small, smallD, cfg), run(&Exact{}, smallTwin, smallD, cfg); !sameResult(got, want) {
		t.Fatalf("exact: %+v with the zeroed interactions, %+v without", got, want)
	}
}
