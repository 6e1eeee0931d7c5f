package algo

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"dif/internal/model"
)

// plannerFingerprint is what a search produced, reduced to what must not
// drift when its internals change: the deployment (hashed in sorted
// component order), the search statistics, and the score.
type plannerFingerprint struct {
	hash        string
	nodes, eval int
	score       float64
}

func fingerprint(res Result) plannerFingerprint {
	comps := make([]string, 0, len(res.Deployment))
	for c := range res.Deployment {
		comps = append(comps, string(c))
	}
	sort.Strings(comps)
	h := fnv.New64a()
	for _, c := range comps {
		fmt.Fprintf(h, "%s=%s;", c, res.Deployment[model.ComponentID(c)])
	}
	return plannerFingerprint{fmt.Sprintf("%016x", h.Sum64()), res.Nodes, res.Evaluations, res.Score}
}

// goldenSystem builds one of the golden test's fixed systems. Every
// system has host01 degraded, which only DegradationAware notices.
// "tight" sizes host memory so that the components barely fit (Exact
// otherwise packs 4×10 onto one host at the first leaf); "constrained"
// adds a pin, a location restriction and must/cannot-collocate pairs.
func goldenSystem(t testing.TB, hosts, comps int, seed int64, tight, constrained bool) (*model.System, model.Deployment) {
	t.Helper()
	cfg := model.DefaultGeneratorConfig(hosts, comps)
	if tight {
		fair := cfg.ComponentMemory.Mid() * float64(comps) / float64(hosts)
		cfg.HostMemory = model.Range{Min: fair, Max: fair * 1.5}
		cfg.MemoryHeadroom = 1.2
	}
	s, d, err := model.NewGenerator(cfg, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	hs, cs := s.HostIDs(), s.ComponentIDs()
	s.SetHostDegraded(hs[1], 1)
	if constrained {
		s.Constraints.Pin(cs[0], hs[2])
		s.Constraints.Restrict(cs[5], hs[0], hs[1], hs[3])
		s.Constraints.RequireCollocation(cs[1], cs[2])
		s.Constraints.ForbidCollocation(cs[3], cs[4])
		s.Constraints.ForbidCollocation(cs[1], cs[7])
	}
	return s, d
}

// plannerGolden holds every planner's fingerprint on fixed systems and
// seeds. The values were recorded before the searches moved onto dense
// state and the incremental constraint checker; any change to a plan, a
// node count or an evaluation count is a behaviour change, not a
// refactor.
var plannerGolden = map[string]plannerFingerprint{
	"avala/10x100/seed1/stock":      {"f64b0cd20e40a632", 778, 1, 0.7026866647058896},
	"avala/10x100/seed1/aware":      {"63f4bbdfa7735857", 778, 1, 0.7039985252022242},
	"avala/20x400/seed2/stock":      {"e9e95b837f35b566", 6867, 1, 0.628134923436442},
	"avala/20x400/seed2/aware":      {"e9e95b837f35b566", 6867, 1, 0.6281349234364492},
	"avala/10x100/seed7/stock":      {"29fdf729daf6b07b", 545, 1, 0.7441050610900217},
	"avala/10x100/seed7/aware":      {"29fdf729daf6b07b", 545, 1, 0.7441050610900218},
	"avala/10x100/seed4/stock":      {"error: no valid deployment found", 476, 0, 0},
	"avala/10x100/seed4/aware":      {"error: no valid deployment found", 476, 0, 0},
	"avala/40x800/seed3/stock":      {"f801b7cbb9f486d0", 28937, 1, 0.6064976380684927},
	"avala/40x800/seed3/aware":      {"521a5c275dc715b9", 28937, 1, 0.5998453626146364},
	"stochastic/10x100/seed1/stock": {"3931ff932e9b07fc", 25, 25, 0.6490059195273082},
	"stochastic/10x100/seed1/aware": {"bbdc7460b8a19899", 25, 25, 0.6469924834709792},
	"stochastic/20x400/seed2/stock": {"55c45cc8718f2423", 25, 25, 0.5748343003880588},
	"stochastic/20x400/seed2/aware": {"f574edf672ac3d1d", 25, 25, 0.5843977696705092},
	"stochastic/10x100/seed7/stock": {"1825c703a2634d51", 25, 1, 0.6164577796267602},
	"stochastic/10x100/seed7/aware": {"error: no valid deployment found", 25, 0, 0},
	"stochastic/10x100/seed4/stock": {"c9acec2cf6752ff1", 25, 2, 0.6616592267628947},
	"stochastic/10x100/seed4/aware": {"f78cd6eff1903d99", 25, 3, 0.653291401700202},
	"exact/4x10/seed3/stock":        {"3e3e2f7bd83aaadf", 6012, 14, 0.9661149852906468},
	"exact/4x10/seed3/aware":        {"a0e1e1cabf285551", 1633, 10, 0.9466636670158695},
	"exact/4x10/seed5/stock":        {"63e296821ccd1dd7", 836, 11, 0.953675074715941},
	"exact/4x10/seed5/aware":        {"0e2c8921d3dc4d73", 365, 4, 0.9313080735489946},
	"genetic/10x100/seed1/stock":    {"7d3fa8600f4462ea", 2, 86, 0.6595574429108362},
	"genetic/10x100/seed1/aware":    {"0ef228b95ba1e089", 2, 86, 0.6567163237630309},
	"genetic/4x10/seed5/stock":      {"d2be810cc069e7d4", 2, 86, 0.9228549986006784},
	"genetic/4x10/seed5/aware":      {"464afdcb400d3000", 2, 86, 0.9106939450150183},
	"swap/10x100/seed1/stock":       {"e9d1c2d29bd6117d", 15578, 7173, 0.7872493164235331},
	"swap/10x100/seed1/aware":       {"1115ed5e7c61394b", 15087, 5533, 0.7678048223582189},
	"swap/10x100/seed7/stock":       {"4855eed2bc6b8ba9", 14532, 5450, 0.808322015024684},
	"swap/10x100/seed7/aware":       {"4855eed2bc6b8ba9", 14265, 5186, 0.808322015024684},
	"swap/20x400/seed2/stock":       {"1229f5e9a31fcfca", 242915, 85665, 0.6700129181740841},
}

// TestPlannersUnchangedGolden pins Avala, Stochastic, Exact, Genetic and
// Swap to their recorded outputs under the stock checker and under
// DegradationAware.
func TestPlannersUnchangedGolden(t *testing.T) {
	type system struct {
		hosts, comps       int
		seed               int64
		tight, constrained bool
	}
	small := system{10, 100, 1, false, false}
	std := system{20, 400, 2, false, false}
	big := system{40, 800, 3, false, false} // an arc bitset spans five words
	smallC := system{10, 100, 7, false, true}
	infeasible := system{10, 100, 4, false, true} // Avala strands a collocation pair
	tiny := system{4, 10, 3, true, false}
	tinyC := system{4, 10, 5, true, true}
	cases := []struct {
		alg     string
		systems []system
		aware   bool // also run under DegradationAware
		cfg     Config
	}{
		{"avala", []system{small, std, smallC, infeasible, big}, true, Config{}},
		{"stochastic", []system{small, std, smallC, infeasible}, true, Config{Seed: 7, Trials: 25, Workers: 2}},
		{"exact", []system{tiny, tinyC}, true, Config{}},
		{"genetic", []system{small, tinyC}, true, Config{Seed: 5, Trials: 2, Workers: 2}},
		{"swap", []system{small, smallC}, true, Config{Trials: 3}},
		// DegradationAware Swap at 20x400 took the full-Check path before
		// the incremental checker existed, far too slow to record.
		{"swap", []system{std}, false, Config{Trials: 3}},
	}
	reg := NewRegistry()
	for _, tc := range cases {
		for _, sy := range tc.systems {
			s, d := goldenSystem(t, sy.hosts, sy.comps, sy.seed, sy.tight, sy.constrained)
			checkers := map[string]ConstraintChecker{"stock": nil}
			if tc.aware {
				checkers["aware"] = DegradationAware{Current: d}
			}
			if tc.alg == "swap" && sy.constrained {
				// Swap needs a valid start: the generator's deployment does
				// not know about the added constraints, Avala's does.
				res, err := (&Avala{}).Run(context.Background(), s, nil, Config{Objective: availability()})
				if err != nil {
					t.Fatal(err)
				}
				d = res.Deployment
			}
			for _, name := range []string{"stock", "aware"} {
				check, ok := checkers[name]
				if !ok {
					continue
				}
				key := fmt.Sprintf("%s/%dx%d/seed%d/%s", tc.alg, sy.hosts, sy.comps, sy.seed, name)
				alg, err := reg.New(tc.alg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := tc.cfg
				cfg.Objective = availability()
				cfg.Constraints = check
				res, err := alg.Run(context.Background(), s, d, cfg)
				got := fingerprint(res)
				if err != nil {
					got.hash = "error: " + err.Error()
				}
				want, ok := plannerGolden[key]
				if !ok {
					t.Errorf("%s: no golden entry; got\n\t%q: {%q, %d, %d, %v},", key, key, got.hash, got.nodes, got.eval, got.score)
					continue
				}
				if got.hash != want.hash || got.nodes != want.nodes || got.eval != want.eval ||
					math.Abs(got.score-want.score) > 1e-12 {
					t.Errorf("%s: got %+v, recorded %+v", key, got, want)
				}
			}
		}
	}
}
