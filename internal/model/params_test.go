package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParamsGetSet(t *testing.T) {
	var p Params
	if p.Get(ParamMemory) != 0 {
		t.Fatalf("unset param = %v, want 0", p.Get(ParamMemory))
	}
	if p.Has(ParamMemory) {
		t.Fatal("Has on empty params = true")
	}
	p.Set(ParamMemory, 42)
	if got := p.Get(ParamMemory); got != 42 {
		t.Fatalf("Get after Set = %v, want 42", got)
	}
	if !p.Has(ParamMemory) {
		t.Fatal("Has after Set = false")
	}
	p.Set(ParamMemory, 7)
	if got := p.Get(ParamMemory); got != 7 {
		t.Fatalf("Get after overwrite = %v, want 7", got)
	}
}

func TestParamsGetDefault(t *testing.T) {
	var p Params
	if got := p.GetDefault("x", 3.5); got != 3.5 {
		t.Fatalf("GetDefault on missing = %v, want 3.5", got)
	}
	p.Set("x", 0)
	if got := p.GetDefault("x", 3.5); got != 0 {
		t.Fatalf("GetDefault on explicit zero = %v, want 0", got)
	}
}

func TestParamsClone(t *testing.T) {
	var p Params
	p.Set("a", 1)
	p.Set("b", 2)
	q := p.Clone()
	q.Set("a", 99)
	if p.Get("a") != 1 {
		t.Fatal("Clone is not independent of the original")
	}
	if q.Get("b") != 2 {
		t.Fatal("Clone missed key b")
	}
	var empty Params
	if c := empty.Clone(); len(c.Names()) != 0 || !c.Equal(empty) {
		t.Fatal("Clone of empty params is not empty")
	}
}

func TestParamsNamesSorted(t *testing.T) {
	var p Params
	p.Set("zeta", 1)
	p.Set("alpha", 2)
	p.Set("mid", 3)
	names := p.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestParamsEqual(t *testing.T) {
	var a, b Params
	a.Set("x", 1)
	b.Set("x", 1)
	if !a.Equal(b) {
		t.Fatal("identical params not Equal")
	}
	b.Set("y", 0)
	if a.Equal(b) {
		t.Fatal("different key sets reported Equal")
	}
	var c Params
	c.Set("x", 2)
	if a.Equal(c) {
		t.Fatal("different values reported Equal")
	}
}

func TestParamsMaxDelta(t *testing.T) {
	var a, b Params
	a.Set("x", 100)
	b.Set("x", 90)
	got := a.MaxDelta(b)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MaxDelta = %v, want 0.1", got)
	}
	// Missing key counts as delta 1.
	b.Set("y", 5)
	if got := a.MaxDelta(b); got != 1 {
		t.Fatalf("MaxDelta with missing key = %v, want 1", got)
	}
	// Identical sets have delta 0.
	if got := a.MaxDelta(a.Clone()); got != 0 {
		t.Fatalf("MaxDelta self = %v, want 0", got)
	}
	// Both zero values contribute nothing.
	var z1, z2 Params
	z1.Set("k", 0)
	z2.Set("k", 0)
	if got := z1.MaxDelta(z2); got != 0 {
		t.Fatalf("MaxDelta zeros = %v, want 0", got)
	}
}

func TestParamsMaxDeltaSymmetric(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		var a, b Params
		a.Set("v", x)
		b.Set("v", y)
		return a.MaxDelta(b) == b.MaxDelta(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamsMaxDeltaBounded(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		var a, b Params
		a.Set("v", x)
		b.Set("v", y)
		d := a.MaxDelta(b)
		return d >= 0 && d <= 2 // |x-y|/max(|x|,|y|) ≤ 2 for any signs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamsString(t *testing.T) {
	var p Params
	if p.String() != "" {
		t.Fatalf("empty params String = %q", p.String())
	}
	p.Set("b", 2)
	p.Set("a", 1.5)
	if got, want := p.String(), "a=1.5 b=2"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// refMaxDelta is MaxDelta over the map representation Params replaced.
func refMaxDelta(p, q map[string]float64) float64 {
	max := 0.0
	seen := map[string]bool{}
	check := func(a, b map[string]float64) {
		for k, v := range a {
			if seen[k] {
				continue
			}
			seen[k] = true
			w, ok := b[k]
			if !ok {
				max = math.Max(max, 1)
				continue
			}
			denom := math.Max(math.Abs(v), math.Abs(w))
			if denom == 0 {
				continue
			}
			max = math.Max(max, math.Abs(v/denom-w/denom))
		}
	}
	check(p, q)
	check(q, p)
	return max
}

func refEqual(p, q map[string]float64) bool {
	if len(p) != len(q) {
		return false
	}
	for k, v := range p {
		if w, ok := q[k]; !ok || v != w {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// TestParamsMatchMapModel applies seeded random Set sequences over
// well-known and extension names to a Params and to a plain map, and
// checks that every method agrees with the map after each sequence.
func TestParamsMatchMapModel(t *testing.T) {
	names := []string{
		ParamMemory, ParamCPU, ParamReliability, ParamBandwidth, ParamDelay,
		ParamFrequency, ParamEventSize, ParamSecurity, ParamPower,
		"owner", "alpha", "zeta", "jitter",
	}
	values := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.3, 1e300, math.NaN(), math.Inf(1)}
	type set struct {
		name string
		v    float64
	}
	rng := rand.New(rand.NewSource(44))
	randomSets := func() []set {
		out := make([]set, rng.Intn(12))
		for i := range out {
			out[i] = set{names[rng.Intn(len(names))], values[rng.Intn(len(values))]}
			if rng.Intn(3) == 0 {
				out[i].v = rng.NormFloat64() * 100
			}
		}
		return out
	}
	apply := func(sets []set) (Params, map[string]float64) {
		var p Params
		ref := map[string]float64{}
		for _, s := range sets {
			p.Set(s.name, s.v)
			ref[s.name] = s.v
		}
		return p, ref
	}
	check := func(label string, p Params, ref map[string]float64) {
		t.Helper()
		for _, name := range append(names, "unset") {
			want, ok := ref[name]
			if got := p.Get(name); !sameFloat(got, want) {
				t.Fatalf("%s: Get(%s) = %v, want %v", label, name, got, want)
			}
			def := want
			if !ok {
				def = 3.5
			}
			if got := p.GetDefault(name, 3.5); !sameFloat(got, def) {
				t.Fatalf("%s: GetDefault(%s) = %v, want %v", label, name, got, def)
			}
			if p.Has(name) != ok {
				t.Fatalf("%s: Has(%s) = %v, want %v", label, name, !ok, ok)
			}
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := p.Names(); !slices.Equal(got, keys) {
			t.Fatalf("%s: Names = %v, want %v", label, got, keys)
		}
		var sb strings.Builder
		for i, k := range keys {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s=%g", k, ref[k])
		}
		if got := p.String(); got != sb.String() {
			t.Fatalf("%s: String = %q, want %q", label, got, sb.String())
		}
	}

	// The fixed first sequence sets a well-known name to 0, stores a
	// NaN, and sets a name twice.
	sequences := [][]set{{
		{ParamMemory, 0}, {ParamFrequency, math.NaN()}, {"owner", 1}, {ParamDelay, 3}, {ParamDelay, 4}, {"owner", 2},
	}}
	for i := 0; i < 2000; i++ {
		sequences = append(sequences, randomSets())
	}
	for i, seq := range sequences {
		label := fmt.Sprintf("sequence %d %v", i, seq)
		p, ref := apply(seq)
		check(label, p, ref)

		// A second set: the same sequence, maybe with one more write.
		qseq := randomSets()
		if rng.Intn(2) == 0 {
			qseq = slices.Clone(seq)
			if rng.Intn(2) == 0 {
				qseq = append(qseq, randomSets()...)
			}
		}
		q, qref := apply(qseq)
		if got, want := p.Equal(q), refEqual(ref, qref); got != want {
			t.Fatalf("%s: Equal(%v) = %v, want %v", label, qseq, got, want)
		}
		if got, want := p.MaxDelta(q), refMaxDelta(ref, qref); !sameFloat(got, want) {
			t.Fatalf("%s: MaxDelta(%v) = %v, want %v", label, qseq, got, want)
		}

		// A clone shares nothing: writes to it, well-known or not,
		// leave the original as it was.
		c := p.Clone()
		if got, want := c.Equal(p), refEqual(ref, ref); got != want {
			t.Fatalf("%s: Clone().Equal = %v, want %v", label, got, want)
		}
		c.Set("owner", 99)
		c.Set("clone-only", 1)
		c.Set(ParamMemory, 99)
		check(label+" after writes to its clone", p, ref)
	}
}
