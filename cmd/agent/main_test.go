package main

import (
	"bytes"
	"flag"
	"strings"
	"sync"
	"testing"
	"time"

	"dif/internal/cliflags"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// syncBuf is the output the agent's run and the test share.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAgentJoinsHostsAndRejoins runs the shipped agent in-process over
// loopback TCP against a deployer host built by the same
// framework.NewHost: the agent joins and heartbeats, takes a component in
// a committed wave, crashes, and rejoins on the next incarnation, where
// one goal-state delta gives it the component back.
func TestAgentJoinsHostsAndRejoins(t *testing.T) {
	const master, slave = model.HostID("m"), model.HostID("s1")
	fs := flag.NewFlagSet("deployer", flag.ContinueOnError)
	common := cliflags.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr, bus, err := common.Transport(master, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	hc := common.HostConfig(master, master, bus, reg, nil)
	hc.Deployer = true
	host, err := framework.NewHost(hc)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	fd := prism.NewFailureDetector(2*time.Second, 5*time.Second)
	host.Deployer.AttachDetector(fd)
	sys := model.NewSystem()
	sys.AddComponent("c1", model.Params{model.ParamMemory: 1})
	if err := host.Place(sys, "c1", 1); err != nil {
		t.Fatal(err)
	}
	host.Deployer.SeedGoalState(map[model.HostID][]prism.GoalComponent{
		master: {{ID: "c1", Type: framework.TrafficTypeName}}, slave: nil,
	})

	out := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-host", string(slave), "-master-host", string(master), "-master", tr.Addr(),
			"-heartbeat", "20ms", "-tick", "10ms", "-duration", "400ms",
			"-churn-crash-after", "600ms", "-churn-downtime", "100ms",
		}, out)
	}()

	waitFor(t, "the agent's first heartbeat", func() bool { return fd.State(slave) == prism.HostUp })
	res, err := host.Deployer.Enact(
		map[string]model.HostID{"c1": slave}, map[string]model.HostID{"c1": master}, 5*time.Second)
	if err != nil || !res.Committed || res.Received != res.Moved || res.Moved != 1 {
		t.Fatalf("wave to the agent: %+v, %v", res, err)
	}
	waitFor(t, "the rejoin on incarnation 1", func() bool { return fd.Incarnation(slave) == 1 })
	if err := <-done; err != nil {
		t.Fatalf("agent: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"agent s1 joined m (" + tr.Addr() + ") incarnation 0",
		"agent s1 crashed (incarnation 0)",
		"agent s1 joined m (" + tr.Addr() + ") incarnation 1",
		"agent s1 exiting; hosting [c1]",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("agent output lacks %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "hosting [c1]") != 2 {
		t.Fatalf("want c1 hosted at the end of both lifetimes (wave, then goal-state resync):\n%s", got)
	}
}
