package model

import (
	"math"
	"reflect"
	"testing"
)

func denseTestSystem(t *testing.T, hosts, comps int, seed int64) (*System, Deployment) {
	t.Helper()
	s, d, err := NewGenerator(DefaultGeneratorConfig(hosts, comps), seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func TestDenseMatricesMatchSystem(t *testing.T) {
	s, _ := denseTestSystem(t, 6, 20, 3)
	ds := s.Dense()
	if ds.NH != len(s.Hosts) || len(ds.Hosts) != ds.NH {
		t.Fatalf("NH = %d, hosts = %d", ds.NH, len(s.Hosts))
	}
	for i, a := range ds.Hosts {
		for j, b := range ds.Hosts {
			if got, want := ds.Rel[i*ds.NH+j], s.Reliability(a, b); got != want {
				t.Fatalf("Rel[%s,%s] = %v, want %v", a, b, got, want)
			}
			if got, want := ds.BW[i*ds.NH+j], s.Bandwidth(a, b); got != want {
				t.Fatalf("BW[%s,%s] = %v, want %v", a, b, got, want)
			}
			if got, want := ds.Delay[i*ds.NH+j], s.Delay(a, b); got != want {
				t.Fatalf("Delay[%s,%s] = %v, want %v", a, b, got, want)
			}
		}
	}
	// Edges come in InteractionKeys order: the scoring sums and Avala's
	// affinities add in this order, so it must not depend on how the
	// view was built.
	var keys []ComponentPair
	for _, k := range s.InteractionKeys() {
		if s.Interacts[k].Frequency() > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) != len(ds.Edges) {
		t.Fatalf("%d dense edges, %d positive interactions", len(ds.Edges), len(keys))
	}
	total := 0.0
	for i, e := range ds.Edges {
		if e.Freq <= 0 {
			t.Fatalf("dense edge with freq %v", e.Freq)
		}
		if ds.Comps[e.A] != keys[i].A || ds.Comps[e.B] != keys[i].B {
			t.Fatalf("edge %d is %s-%s, InteractionKeys has %v", i, ds.Comps[e.A], ds.Comps[e.B], keys[i])
		}
		total += e.Freq
	}
	if math.Abs(total-ds.TotalFreq) > 1e-9 {
		t.Fatalf("TotalFreq = %v, edges sum to %v", ds.TotalFreq, total)
	}
}

func TestDenseCacheReuseAndInvalidation(t *testing.T) {
	s, _ := denseTestSystem(t, 4, 10, 5)
	d1 := s.Dense()
	if d2 := s.Dense(); d2 != d1 {
		t.Fatal("Dense() rebuilt without any mutation")
	}

	// Mutation through the Modifier invalidates automatically.
	var a, b HostID
	for pair := range s.Links {
		a, b = pair.A, pair.B
		break
	}
	if err := NewModifier(s).SetLinkParam(a, b, ParamReliability, 0.123); err != nil {
		t.Fatal(err)
	}
	d2 := s.Dense()
	if d2 == d1 {
		t.Fatal("Dense() not rebuilt after Modifier.SetLinkParam")
	}
	i, j := d2.HostIndex(a), d2.HostIndex(b)
	if got := d2.Rel[i*d2.NH+j]; got != 0.123 {
		t.Fatalf("rebuilt Rel = %v, want 0.123", got)
	}

	// Direct Params writes bypass the Modifier; Touch must invalidate.
	s.Link(a, b).Params.Set(ParamReliability, 0.456)
	s.Touch()
	d3 := s.Dense()
	if d3 == d2 {
		t.Fatal("Dense() not rebuilt after Touch")
	}
	if got := d3.Rel[i*d3.NH+j]; got != 0.456 {
		t.Fatalf("rebuilt Rel = %v, want 0.456", got)
	}

	// Structural mutations rebuild too.
	s.AddHost("extra-host", nil)
	d4 := s.Dense()
	if d4 == d3 || d4.NH != d3.NH+1 {
		t.Fatalf("Dense() after AddHost: NH = %d, want %d", d4.NH, d3.NH+1)
	}
}

func TestDenseAssignRoundTrip(t *testing.T) {
	s, d := denseTestSystem(t, 5, 15, 9)
	ds := s.Dense()
	assign := ds.Assign(d)
	if got := ds.Deployment(assign); !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip = %v, want %v", got, d)
	}

	// An undeployed component maps to -1 and is omitted on the way back.
	partial := d.Clone()
	victim := ds.Comps[0]
	delete(partial, victim)
	assign = ds.Assign(partial)
	if assign[0] != -1 {
		t.Fatalf("assign[0] = %d for undeployed component, want -1", assign[0])
	}
	if got := ds.Deployment(assign); !reflect.DeepEqual(got, partial) {
		t.Fatalf("partial round trip = %v, want %v", got, partial)
	}
}
