package decap

import (
	"context"
	"testing"

	"dif/internal/algo"
	"dif/internal/model"
	"dif/internal/objective"
)

// buildTwoClusterSystem creates a system whose optimal deployment is
// obvious: two chatty component clusters and two well-connected hosts,
// with the initial deployment deliberately crossing the clusters.
func buildTwoClusterSystem(t *testing.T) (*model.System, model.Deployment) {
	t.Helper()
	s := model.NewSystem()
	s.Constraints = model.NewConstraints()
	var hp model.Params
	hp.Set(model.ParamMemory, 100)
	s.AddHost("h1", hp)
	s.AddHost("h2", hp)
	var cp model.Params
	cp.Set(model.ParamMemory, 10)
	for _, c := range []model.ComponentID{"a1", "a2", "b1", "b2"} {
		s.AddComponent(c, cp)
	}
	var lp model.Params
	lp.Set(model.ParamReliability, 0.5)
	lp.Set(model.ParamBandwidth, 100)
	if _, err := s.AddLink("h1", "h2", lp); err != nil {
		t.Fatal(err)
	}
	chatty := func(x, y model.ComponentID) {
		var p model.Params
		p.Set(model.ParamFrequency, 10)
		if _, err := s.AddInteraction(x, y, p); err != nil {
			t.Fatal(err)
		}
	}
	quiet := func(x, y model.ComponentID) {
		var p model.Params
		p.Set(model.ParamFrequency, 0.1)
		if _, err := s.AddInteraction(x, y, p); err != nil {
			t.Fatal(err)
		}
	}
	chatty("a1", "a2")
	chatty("b1", "b2")
	quiet("a1", "b1")
	// The clusters start split across the hosts.
	d := model.Deployment{"a1": "h1", "a2": "h2", "b1": "h2", "b2": "h1"}
	return s, d
}

func TestDecApReunitesClusters(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	res, err := New(Config{}).Run(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deployment["a1"] != res.Deployment["a2"] {
		t.Fatalf("cluster a still split: %v", res.Deployment)
	}
	if res.Deployment["b1"] != res.Deployment["b2"] {
		t.Fatalf("cluster b still split: %v", res.Deployment)
	}
	if res.Score <= res.InitialScore {
		t.Fatalf("availability did not improve: %v → %v", res.InitialScore, res.Score)
	}
}

func TestAnnouncementCarriesInteractionProfile(t *testing.T) {
	s, _ := buildTwoClusterSystem(t)
	ann := makeAnnouncement(s, "a1")
	if ann.comp != "a1" || ann.mem != 10 {
		t.Fatalf("announcement = %+v", ann)
	}
	// a1 interacts with a2 (10/s) and b1 (0.1/s).
	if len(ann.partners) != 2 {
		t.Fatalf("partners = %+v", ann.partners)
	}
	seen := map[model.ComponentID]float64{}
	for _, p := range ann.partners {
		seen[p.other] = p.freq
	}
	if seen["a2"] != 10 || seen["b1"] != 0.1 {
		t.Fatalf("partner freqs = %v", seen)
	}
}

func TestAgentContributionUsesLocalKnowledgeOnly(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	s.AddHost("h3", model.Params{}) // isolated host an agent cannot see
	agents := buildAgents(s, LinkAwareness{}, nil)
	ag := agents["h1"]
	ann := makeAnnouncement(s, "a1")
	// a2 on h2 (known): contributes 10·rel(h1,h2)=5. Move a2 to the
	// unknown h3: its contribution vanishes from h1's perspective.
	if got := ag.contribution(s, ann, d, "h1"); got < 5 {
		t.Fatalf("contribution = %v, want ≥ 5", got)
	}
	d2 := d.Clone()
	d2["a2"] = "h3"
	withUnknown := ag.contribution(s, ann, d2, "h1")
	if withUnknown >= 5 {
		t.Fatalf("contribution %v counts a host the agent cannot see", withUnknown)
	}
}

func TestBidRefusesOverCapacity(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	s.Hosts["h2"].Params.Set(model.ParamMemory, 20) // full with its 2 comps
	agents := buildAgents(s, LinkAwareness{}, nil)
	ann := makeAnnouncement(s, "a1") // 10 KB
	if _, ok := agents["h2"].bid(s, algo.SystemConstraints{}, ann, d); ok {
		t.Fatal("full host placed a bid")
	}
}

func TestBidRefusesConstraintViolations(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	s.Constraints.Pin("a1", "h1")
	agents := buildAgents(s, LinkAwareness{}, nil)
	ann := makeAnnouncement(s, "a1")
	if _, ok := agents["h2"].bid(s, algo.SystemConstraints{}, ann, d); ok {
		t.Fatal("bid violating a location constraint accepted")
	}
	// The current holder can always "host" it (no-op).
	if !canHost(s, algo.SystemConstraints{}, ann, d, "h1") {
		t.Fatal("current host rejected its own component")
	}
}

func TestDecApMinGainHysteresis(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	// A huge MinGain freezes every migration.
	res, err := New(Config{MinGain: 1e9}).Run(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deployment.Equal(d) {
		t.Fatal("migration happened despite prohibitive MinGain")
	}
	if res.Stats.Migrations != 0 {
		t.Fatalf("migrations = %d", res.Stats.Migrations)
	}
}

func TestDecApMaxRoundsBound(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	res, err := New(Config{MaxRounds: 1}).Run(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want exactly 1", res.Stats.Rounds)
	}
}

func TestDecApScoreMatchesQuantifier(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	res, err := New(Config{}).Run(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	want := objective.Availability{}.Quantify(s, res.Deployment)
	if diff := res.Score - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("reported score %v, quantifier says %v", res.Score, want)
	}
}

func TestCoordinationVariationPoint(t *testing.T) {
	// Both protocols are iterated, so neither dominates per se: the
	// auction picks the best host per settlement, first-fit moves
	// earlier and lets later rounds correct. They must land within a
	// narrow quality band of each other, and first-fit must not exchange
	// more messages per settlement. Compare totals over several seeds.
	var auctionScore, firstFitScore float64
	var auctionMsgs, firstFitMsgs int
	for seed := int64(0); seed < 5; seed++ {
		s, d, err := model.NewGenerator(model.DefaultGeneratorConfig(6, 18), seed).Generate()
		if err != nil {
			t.Fatal(err)
		}
		ra, err := New(Config{Coordination: AuctionCoordination{}}).Run(context.Background(), s, d)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := New(Config{Coordination: FirstFitCoordination{}}).Run(context.Background(), s, d)
		if err != nil {
			t.Fatal(err)
		}
		auctionScore += ra.Score
		firstFitScore += rf.Score
		if ra.Stats.Auctions > 0 {
			auctionMsgs += (ra.Stats.Announcements + ra.Stats.Bids) / ra.Stats.Auctions
		}
		if rf.Stats.Auctions > 0 {
			firstFitMsgs += (rf.Stats.Announcements + rf.Stats.Bids) / rf.Stats.Auctions
		}
		// Both must produce valid deployments.
		if err := s.Constraints.Check(s, ra.Deployment); err != nil {
			t.Fatalf("auction produced invalid deployment: %v", err)
		}
		if err := s.Constraints.Check(s, rf.Deployment); err != nil {
			t.Fatalf("firstfit produced invalid deployment: %v", err)
		}
	}
	diff := auctionScore - firstFitScore
	if diff < -0.3 || diff > 0.3 {
		t.Fatalf("protocol quality diverged: auction %v vs firstfit %v", auctionScore, firstFitScore)
	}
	if firstFitMsgs > auctionMsgs {
		t.Fatalf("firstfit per-settlement messages %d above auction %d", firstFitMsgs, auctionMsgs)
	}
}

func TestCoordinationNames(t *testing.T) {
	if (AuctionCoordination{}).Name() != "auction" {
		t.Fatal("auction name wrong")
	}
	if (FirstFitCoordination{}).Name() != "firstfit" {
		t.Fatal("firstfit name wrong")
	}
}

func TestFirstFitSettlesEarly(t *testing.T) {
	s, d := buildTwoClusterSystem(t)
	// With one neighbor, first-fit and auction behave identically.
	ra, err := New(Config{Coordination: AuctionCoordination{}}).Run(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := New(Config{Coordination: FirstFitCoordination{}}).Run(context.Background(), s, d)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Score != rf.Score {
		t.Fatalf("two-host scores differ: auction %v, firstfit %v", ra.Score, rf.Score)
	}
}
