package model

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestXADLRoundTrip(t *testing.T) {
	s := testSystem(t)
	s.Constraints.Pin("c1", "hostA")
	s.Constraints.Restrict("c2", "hostA", "hostB")
	s.Constraints.RequireCollocation("c1", "c2")
	s.Constraints.ForbidCollocation("c3", "c4")
	d := testDeployment()

	var buf bytes.Buffer
	if err := WriteXADL(&buf, s, d); err != nil {
		t.Fatal(err)
	}
	s2, d2, err := ReadXADL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Equal(d) {
		t.Fatalf("deployment round trip: got %v, want %v", d2, d)
	}
	if len(s2.Hosts) != len(s.Hosts) || len(s2.Components) != len(s.Components) {
		t.Fatal("element counts differ after round trip")
	}
	for pair, l := range s.Links {
		l2, ok := s2.Links[pair]
		if !ok || !l.Params.Equal(l2.Params) {
			t.Fatalf("link %v lost or changed", pair)
		}
	}
	for _, l := range s.Interactions() {
		pair := l.Components
		l2 := s2.Interaction(pair.A, pair.B)
		if l2 == nil || !l.Params.Equal(l2.Params) {
			t.Fatalf("interaction %v lost or changed", pair)
		}
	}
	if !s2.Constraints.Allows("c1", "hostA") || s2.Constraints.Allows("c1", "hostB") {
		t.Fatal("location constraints lost")
	}
	if len(s2.Constraints.MustCollocate) != 1 || len(s2.Constraints.CannotCollocate) != 1 {
		t.Fatal("collocation constraints lost")
	}
	if !s2.Constraints.CheckMemory {
		t.Fatal("CheckMemory flag lost")
	}
}

func TestXADLWithoutDeployment(t *testing.T) {
	s := testSystem(t)
	var buf bytes.Buffer
	if err := WriteXADL(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	_, d, err := ReadXADL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("expected nil deployment, got %v", d)
	}
}

func TestXADLOutputIsStructured(t *testing.T) {
	s := testSystem(t)
	var buf bytes.Buffer
	if err := WriteXADL(&buf, s, testDeployment()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<architecture>", "<hosts>", "<components>",
		"<physicalLinks>", "<logicalLinks>", "<deployment>", `name="reliability"`} {
		if !strings.Contains(out, want) {
			t.Errorf("xADL output missing %q", want)
		}
	}
}

func TestXADLRoundTripEquivalentChecks(t *testing.T) {
	// A deployment valid under the original constraints must stay valid
	// under the round-tripped constraints, and vice versa.
	s := testSystem(t)
	s.Constraints.Pin("c4", "hostC")
	d := testDeployment()
	var buf bytes.Buffer
	if err := WriteXADL(&buf, s, d); err != nil {
		t.Fatal(err)
	}
	s2, d2, err := ReadXADL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Constraints.Check(s2, d2); err != nil {
		t.Fatalf("round-tripped deployment invalid: %v", err)
	}
	bad := d2.Clone()
	bad["c4"] = "hostA"
	if err := s2.Constraints.Check(s2, bad); err == nil {
		t.Fatal("round-tripped constraints lost the pin")
	}
}

func TestXADLReadErrors(t *testing.T) {
	if _, _, err := ReadXADL(strings.NewReader("not xml")); err == nil {
		t.Fatal("garbage input accepted")
	}
	// A link referencing an undeclared host must fail.
	doc := `<architecture>
	  <hosts><host id="h1"></host></hosts>
	  <components></components>
	  <physicalLinks><link from="h1" to="h2"></link></physicalLinks>
	</architecture>`
	if _, _, err := ReadXADL(strings.NewReader(doc)); err == nil {
		t.Fatal("dangling link reference accepted")
	}
}

func TestXADLRoundTripPreservesStructureProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, d, err := NewGenerator(DefaultGeneratorConfig(4, 10), seed).Generate()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteXADL(&buf, s, d); err != nil {
			return false
		}
		s2, d2, err := ReadXADL(&buf)
		if err != nil {
			return false
		}
		if !d2.Equal(d) {
			return false
		}
		if len(s2.Hosts) != len(s.Hosts) || len(s2.Links) != len(s.Links) ||
			len(s2.Components) != len(s.Components) || len(s2.Interactions()) != len(s.Interactions()) {
			return false
		}
		for pair, l := range s.Links {
			l2, ok := s2.Links[pair]
			if !ok || !l.Params.Equal(l2.Params) {
				return false
			}
		}
		return s2.Constraints.Check(s2, d2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// sameParamBits reports whether p and q hold the same names with the same
// float bits, so a NaN read from disk compares equal to itself.
func sameParamBits(p, q Params) bool {
	names := p.Names()
	if !slices.Equal(names, q.Names()) {
		return false
	}
	for _, name := range names {
		if math.Float64bits(p.Get(name)) != math.Float64bits(q.Get(name)) {
			return false
		}
	}
	return true
}

// FuzzReadXADL feeds arbitrary bytes to ReadXADL, the decoder cmd/desi and
// cmd/deployer run on architecture files. A document is either refused
// with an error, or it survives WriteXADL → ReadXADL with the same
// elements, the same parameters on each (bit for bit) and the same
// deployment.
func FuzzReadXADL(f *testing.F) {
	s, d, err := NewGenerator(DefaultGeneratorConfig(4, 10), 3).Generate()
	if err != nil {
		f.Fatal(err)
	}
	s.Components[ComponentName(0)].Params.Set("owner", 7)
	var buf bytes.Buffer
	if err := WriteXADL(&buf, s, d); err != nil {
		f.Fatal(err)
	}
	generated := buf.String()
	f.Add(generated)
	// The same document with the first host's memory named twice: the
	// later value, a NaN, wins.
	i := strings.Index(generated, "</param>") + len("</param>")
	f.Add(generated[:i] + `<param name="memory" value="NaN"></param>` + generated[i:])
	f.Add(`<architecture><hosts><host id="h"><param name="memory" value="1"></param><param name="memory" value="2"></param></host></hosts></architecture>`)
	f.Add("not xml")

	f.Fuzz(func(t *testing.T, doc string) {
		s1, d1, err := ReadXADL(strings.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteXADL(&out, s1, d1); err != nil {
			t.Fatalf("WriteXADL of an accepted document: %v", err)
		}
		s2, d2, err := ReadXADL(&out)
		if err != nil {
			t.Fatalf("ReadXADL of WriteXADL's output: %v\n%s", err, out.String())
		}
		if !d2.Equal(d1) {
			t.Fatalf("deployment %v became %v", d1, d2)
		}
		if len(s2.Hosts) != len(s1.Hosts) || len(s2.Components) != len(s1.Components) ||
			len(s2.Links) != len(s1.Links) || len(s2.Interactions()) != len(s1.Interactions()) {
			t.Fatal("element counts changed in the round trip")
		}
		for id, h := range s1.Hosts {
			if h2, ok := s2.Hosts[id]; !ok || !sameParamBits(h.Params, h2.Params) {
				t.Fatalf("host %q: %v became %v", id, h.Params, s2.Hosts[id])
			}
		}
		for id, c := range s1.Components {
			if c2, ok := s2.Components[id]; !ok || !sameParamBits(c.Params, c2.Params) {
				t.Fatalf("component %q: %v became %v", id, c.Params, s2.Components[id])
			}
		}
		for pair, l := range s1.Links {
			if l2, ok := s2.Links[pair]; !ok || !sameParamBits(l.Params, l2.Params) {
				t.Fatalf("link %v: %v became %v", pair, l.Params, s2.Links[pair])
			}
		}
		for _, l := range s1.Interactions() {
			pair := l.Components
			if l2 := s2.Interaction(pair.A, pair.B); l2 == nil || !sameParamBits(l.Params, l2.Params) {
				t.Fatalf("interaction %v: %v became %v", pair, l.Params, l2)
			}
		}
	})
}
