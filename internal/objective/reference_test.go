package objective

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"dif/internal/model"
)

// referenceQuantify scores d by walking the system's maps in sorted
// InteractionKeys order, one lookup per endpoint and link: the
// definition the dense edge-order sums are checked against. As in the
// dense view, an interaction of non-positive frequency weighs 0 and a
// component on a host the system does not name counts as undeployed.
func referenceQuantify(t *testing.T, q Quantifier, s *model.System, d model.Deployment) float64 {
	t.Helper()
	type term struct {
		freq, size float64
		ha, hb     model.HostID
		placed     bool
	}
	var terms []term
	for _, pair := range s.InteractionKeys() {
		link := s.Interaction(pair.A, pair.B)
		if link.Frequency() <= 0 {
			continue
		}
		ha, aok := d[pair.A]
		hb, bok := d[pair.B]
		_, aknown := s.Hosts[ha]
		_, bknown := s.Hosts[hb]
		terms = append(terms, term{link.Frequency(), link.EventSize(), ha, hb, aok && bok && aknown && bknown})
	}
	switch q := q.(type) {
	case Availability, Security:
		var num, den float64
		for _, tm := range terms {
			den += tm.freq
			switch {
			case !tm.placed:
			case tm.ha == tm.hb:
				num += tm.freq
			case q == Availability{}:
				num += tm.freq * s.Reliability(tm.ha, tm.hb)
			default:
				if pl := s.Link(tm.ha, tm.hb); pl != nil {
					num += tm.freq * pl.Params.Get(model.ParamSecurity)
				}
			}
		}
		if den == 0 {
			return 1
		}
		return num / den
	case Latency:
		penalty := q.PartitionPenalty
		if penalty == 0 {
			penalty = DefaultPartitionPenalty
		}
		total := 0.0
		for _, tm := range terms {
			if bw := s.Bandwidth(tm.ha, tm.hb); !tm.placed || bw <= 0 {
				total += tm.freq * penalty
			} else {
				total += tm.freq * (tm.size/bw*1000 + s.Delay(tm.ha, tm.hb))
			}
		}
		return total
	case CommCost:
		total := 0.0
		for _, tm := range terms {
			if tm.placed && tm.ha != tm.hb {
				total += tm.freq * tm.size
			}
		}
		return total
	case *Composite:
		total := 0.0
		for _, tm := range q.Terms {
			scale := tm.Scale
			if scale == 0 {
				scale = 1
			}
			v := referenceQuantify(t, tm.Quantifier, s, d) / scale
			if tm.Quantifier.Direction() == Minimize {
				v = -v
			}
			total += tm.Weight * v
		}
		return total
	}
	t.Fatalf("no reference walk for %s", q.Name())
	return 0
}

// TestQuantifyMatchesReference: every objective's Quantify is the sorted
// reference walk within 1e-12, on generated systems whose deployments
// leave components undeployed or on hosts the system does not name, and
// whose interactions include zero and negative frequencies.
func TestQuantifyMatchesReference(t *testing.T) {
	comp, err := NewComposite(
		Term{Quantifier: Availability{}, Weight: 1},
		Term{Quantifier: Latency{}, Weight: 0.5, Scale: 1000},
	)
	if err != nil {
		t.Fatal(err)
	}
	quantifiers := []Quantifier{Availability{}, Latency{}, Latency{PartitionPenalty: 42}, CommCost{}, Security{}, comp}
	for seed := int64(1); seed <= 12; seed++ {
		s, d := deltaTestSystem(t, 3+int(seed%5), 8+3*int(seed), seed)
		for i, k := range s.LinkKeys() {
			s.Links[k].Params.Set(model.ParamSecurity, float64(i%4)/4)
		}
		for i, k := range s.InteractionKeys() {
			switch i % 9 {
			case 0:
				s.Interaction(k.A, k.B).Params.Set(model.ParamFrequency, 0)
			case 1:
				s.Interaction(k.A, k.B).Params.Set(model.ParamFrequency, -2)
			}
		}
		s.Touch()
		odd := d.Clone()
		for i, c := range s.ComponentIDs() {
			switch i % 7 {
			case 0:
				delete(odd, c)
			case 1:
				odd[c] = "unnamed"
			}
		}
		for _, dep := range []model.Deployment{d, odd} {
			for _, q := range quantifiers {
				if got, want := q.Quantify(s, dep), referenceQuantify(t, q, s, dep); !relClose(got, want, 1e-12) {
					t.Errorf("seed %d, %s: Quantify %v, reference %v", seed, q.Name(), got, want)
				}
			}
		}
	}
}

// TestQuantifyIsDeterministic: repeated calls on one 20×400 deployment
// give one bit pattern per objective, whether or not a Touch makes the
// dense values be read again in between.
func TestQuantifyIsDeterministic(t *testing.T) {
	s, d := deltaTestSystem(t, 20, 400, 1)
	for i, k := range s.LinkKeys() {
		s.Links[k].Params.Set(model.ParamSecurity, 0.5+float64(i%7)/16)
	}
	s.Touch()
	for _, q := range []Quantifier{Availability{}, Latency{}, CommCost{}, Security{}} {
		seen := map[uint64]bool{}
		for i := 0; i < 50; i++ {
			if i%2 == 1 {
				s.Touch()
			}
			seen[math.Float64bits(q.Quantify(s, d))] = true
		}
		if len(seen) != 1 {
			t.Errorf("%s: 50 calls gave %d distinct scores", q.Name(), len(seen))
		}
	}
}

// TestNoMapRangeInObjectives keeps every sum in a fixed order: no
// non-test file of this package ranges over one of model.System's maps,
// whose iteration order Go randomizes.
func TestNoMapRangeInObjectives(t *testing.T) {
	mapFields := map[string]bool{"Hosts": true, "Components": true, "Links": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			if r, ok := n.(*ast.RangeStmt); ok {
				if sel, ok := r.X.(*ast.SelectorExpr); ok && mapFields[sel.Sel.Name] {
					t.Errorf("%s: range over the map %s", fset.Position(r.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
}
