package prism

import (
	"strings"
	"testing"

	"dif/internal/model"
	"dif/internal/obs"
)

// goalAnnounceCase is a fully populated announce used by the codec-level
// tests below.
func goalAnnounceCase() GoalAnnounce {
	return GoalAnnounce{
		Host: "h7", Incarnation: 3, Generation: 12,
		Manifest: []string{"c1", "c2", "c9"},
	}
}

// TestGoalPayloadVersionGate pins the rolling-upgrade contract of the
// goal-state frame family: frames from a newer major version are
// rejected with a clean error (never misparsed), version zero is
// invalid, unknown ops are rejected, and an extension tail appended by
// a same-version peer is skipped without disturbing the known fields.
func TestGoalPayloadVersionGate(t *testing.T) {
	ga := goalAnnounceCase()
	valid := appendGoalPayload(nil, ga)

	decode := func(data []byte) (any, error) {
		r := &binReader{b: data}
		p, err := decodeGoalPayload(r)
		if err == nil && r.off != len(data) {
			t.Fatalf("decode left %d trailing bytes", len(data)-r.off)
		}
		return p, err
	}

	// The version field is the leading uvarint; at v1 it is one byte.
	if valid[0] != GoalStateVersion {
		t.Fatalf("leading version byte = %d, want %d", valid[0], GoalStateVersion)
	}

	skewed := append([]byte(nil), valid...)
	skewed[0] = 99
	if _, err := decode(skewed); err == nil || !strings.Contains(err.Error(), "unsupported goal-state version") {
		t.Fatalf("version-99 frame: err = %v, want unsupported-version", err)
	}

	zeroed := append([]byte(nil), valid...)
	zeroed[0] = 0
	if _, err := decode(zeroed); err == nil {
		t.Fatal("version-0 frame decoded")
	}

	badOp := append([]byte(nil), valid...)
	badOp[1] = 0x7f
	if _, err := decode(badOp); err == nil || !strings.Contains(err.Error(), "unknown goal-state op") {
		t.Fatalf("unknown-op frame: err = %v, want unknown-op", err)
	}

	// Unknown appended fields: replace the empty extension tail with a
	// three-byte one. A v1 decoder must skip it and still return the
	// announce intact — this is how a same-version peer grows the schema.
	ext := append(append([]byte(nil), valid[:len(valid)-1]...), 3, 0xde, 0xad, 0xbf)
	p, err := decode(ext)
	if err != nil {
		t.Fatalf("extension tail rejected: %v", err)
	}
	got, ok := p.(GoalAnnounce)
	if !ok || got.Host != ga.Host || got.Generation != ga.Generation || len(got.Manifest) != 3 {
		t.Fatalf("extension-tail decode = %+v, want %+v", p, ga)
	}

	// Truncation at every byte boundary errors cleanly, never panics.
	for i := 0; i < len(valid); i++ {
		if _, err := decode(valid[:i]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded", i, len(valid))
		}
	}
}

// goalWorld is a deployWorld with an obs registry on every architecture
// so the goal-state counters are readable.
func goalWorld(t *testing.T, hosts ...model.HostID) (*deployWorld, *obs.Registry) {
	t.Helper()
	dw := newDeployWorld(t, 1.0, hosts...)
	reg := obs.NewRegistry()
	for _, h := range hosts {
		dw.archs[h].SetObservability(reg, nil)
	}
	return dw, reg
}

func counterValue(reg *obs.Registry, metric string, host model.HostID) int {
	v, _ := reg.Snapshot().Value(obs.Name(metric, "host", string(host)))
	return int(v)
}

// TestDivergedAnnounceClampedBack pins the deployer side of the fence:
// an agent announcing a generation AHEAD of the goal table (a diverged
// lifetime, or a deployer that lost state) is counted as divergence and
// clamped back to the authoritative goal state, not believed.
func TestDivergedAnnounceClampedBack(t *testing.T) {
	dw, reg := goalWorld(t, "m", "s1")
	dw.addCounter(t, "s1", "c1", 5)
	dw.deployer.SeedGoalState(map[model.HostID][]GoalComponent{
		"m": nil, "s1": {{ID: "c1", Type: "counter"}},
	})
	dw.deployer.handleGoalAnnounce(GoalAnnounce{
		Host: "s1", Generation: 99, Manifest: []string{"c1"},
	})
	if got := counterValue(reg, "prism_goal_divergence_total", "m"); got != 1 {
		t.Fatalf("divergence counter = %d, want 1", got)
	}
	// The answering delta carries the table's generation, and the agent
	// adopts it: clamped to 1, not left at the diverged 99.
	waitForCond(t, func() bool { return dw.admins["s1"].GoalGeneration() == 1 })
	if acked := dw.deployer.GoalAcked("s1"); acked != 1 {
		t.Fatalf("acked generation = %d, want 1", acked)
	}
}
