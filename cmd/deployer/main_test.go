package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dif/internal/cliflags"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
)

// syncBuf is the output the deployer's goroutines and the test share.
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

// await polls out for re's first submatch until the deployer has printed it.
func await(t *testing.T, out *syncBuf, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := rx.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("deployer never printed %q; output:\n%s", re, out.String())
	return ""
}

// startAgent brings up a slave host the way cmd/agent does — shared flags
// → cliflags.Transport → framework.NewHost → Hello → goal-state announce —
// and ticks its traffic components until the test ends.
func startAgent(t *testing.T, id, master model.HostID, masterAddr string) {
	t.Helper()
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	common := cliflags.Register(fs)
	if err := fs.Parse([]string{"-heartbeat", "50ms"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr, bus, err := common.Transport(id, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddPeer(master, masterAddr)
	host, err := framework.NewHost(common.HostConfig(id, master, bus, reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Hello(master); err != nil {
		host.Close()
		t.Fatal(err)
	}
	_ = host.Admin.AnnounceGoalState()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				for _, c := range host.Arch.ComponentIDs() {
					if tc, ok := host.Arch.Component(c).(*framework.TrafficComponent); ok {
						tc.Tick()
					}
				}
			case <-stop:
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		host.Close()
	})
}

// committedWaves scrapes the deployer's /metrics endpoint.
func committedWaves(metricsAddr string) int {
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), " "); ok && strings.HasPrefix(name, "prism_wave_committed_total") {
			n, _ := strconv.ParseFloat(val, 64)
			return int(n)
		}
	}
	return 0
}

// TestDeployerLoopback runs the shipped deployer loop in-process over
// loopback TCP against two agents: a first lifetime that distributes the
// application and runs one Centralized cycle, then a second on the same
// -state-dir that must resume instead of distributing again.
func TestDeployerLoopback(t *testing.T) {
	dir := t.TempDir()
	sys, dep, err := model.NewGenerator(model.DefaultGeneratorConfig(3, 8), 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	arch := filepath.Join(dir, "arch.xml")
	f, err := os.Create(arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.WriteXADL(f, sys, dep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Both lifetimes listen on one port, so the agents of the first find
	// the second by redialling the address they already know.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listen := ln.Addr().String()
	ln.Close()
	hosts := sys.HostIDs()
	master := hosts[0]

	// lifetime runs the deployer to completion. join, when set, is called
	// once the deployer listens. It returns what the deployer printed, the
	// highest prism_wave_committed_total scraped while it ran, and the
	// span trees it dumped on exit.
	lifetime := func(t *testing.T, join func()) (string, int, []obs.SpanRecord) {
		t.Helper()
		out := &syncBuf{}
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		done := make(chan error, 1)
		go func() {
			done <- run([]string{
				"-arch", arch, "-host", string(master), "-listen", listen,
				"-cycles", "1", "-interval", "500ms", "-heartbeat", "50ms",
				"-state-dir", filepath.Join(dir, "state"),
				"-metrics-addr", "127.0.0.1:0", "-trace-out", trace,
			}, out)
		}()
		metrics := await(t, out, `metrics on http://(\S+)/metrics`)
		await(t, out, `listening on (\S+);`)
		if join != nil {
			join()
		}
		committed := 0
		for running := true; running; {
			if n := committedWaves(metrics); n > committed {
				committed = n
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("deployer: %v\n%s", err, out.String())
				}
				running = false
			case <-time.After(10 * time.Millisecond):
			}
		}
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var roots []obs.SpanRecord
		for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			var rec obs.SpanRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("trace line %q: %v", line, err)
			}
			roots = append(roots, rec)
		}
		return out.String(), committed, roots
	}
	// checkCycle asserts one Centralized cycle ran to completion with the
	// master's own report among those gathered.
	checkCycle := func(t *testing.T, out string, roots []obs.SpanRecord) {
		t.Helper()
		if want := fmt.Sprintf("cycle 1: %d reports", len(hosts)); !strings.Contains(out, want) {
			t.Fatalf("no %q (slaves plus the master's own) in:\n%s", want, out)
		}
		if !strings.Contains(out, "final deployment:") {
			t.Fatalf("cycle did not complete:\n%s", out)
		}
		for _, r := range roots {
			if r.Name != "cycle" {
				continue
			}
			var phases []string
			for _, c := range r.Children {
				phases = append(phases, c.Name)
			}
			if got := strings.Join(phases, ","); !strings.HasPrefix(got, "monitor,plan") {
				t.Fatalf("cycle span children = %s, want monitor, plan, ...", got)
			}
			return
		}
		t.Fatalf("no cycle span among %d trace roots", len(roots))
	}

	parent := t
	t.Run("fresh", func(t *testing.T) {
		out, committed, roots := lifetime(t, func() {
			// Registered on the parent test: the agents outlive this
			// lifetime and serve the restarted deployer too.
			for _, h := range hosts[1:] {
				startAgent(parent, h, master, listen)
			}
		})
		m := regexp.MustCompile(`distributed (\d+) components to 2 hosts \((\d+) confirmed\)`).FindStringSubmatch(out)
		if m == nil || m[1] != m[2] || m[1] == "0" {
			t.Fatalf("initial distribution did not commit whole (%v):\n%s", m, out)
		}
		if committed < 1 {
			t.Fatalf("prism_wave_committed_total = %d on /metrics, want >= 1", committed)
		}
		checkCycle(t, out, roots)
	})
	t.Run("restart", func(t *testing.T) {
		out, _, roots := lifetime(t, nil)
		if !strings.Contains(out, "resumed from") || strings.Contains(out, "distributed") {
			t.Fatalf("restart on the same -state-dir must resume, not distribute:\n%s", out)
		}
		checkCycle(t, out, roots)
	})
}
