package netsim

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dif/internal/model"
)

func newTestFabric(t *testing.T, rel float64) *Fabric {
	t.Helper()
	f := NewFabric(1)
	t.Cleanup(f.Close)
	for _, h := range []model.HostID{"h1", "h2", "h3"} {
		if err := f.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Connect("h1", "h2", LinkState{Reliability: rel, BandwidthKB: 1000, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSendDelivers(t *testing.T) {
	f := newTestFabric(t, 1.0)
	var mu sync.Mutex
	var got []Message
	done := make(chan struct{}, 1)
	if err := f.SetHandler("h2", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		done <- struct{}{}
	}); err != nil {
		t.Fatal(err)
	}
	lat, err := f.Send("h1", "h2", 10, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("latency = %v, want > 0", lat)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("message never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Payload != "hello" || got[0].From != "h1" {
		t.Fatalf("got %+v", got)
	}
}

func TestSendLocalAlwaysSucceeds(t *testing.T) {
	f := newTestFabric(t, 0) // even with a dead link, local is fine
	done := make(chan Message, 1)
	if err := f.SetHandler("h1", func(m Message) { done <- m }); err != nil {
		t.Fatal(err)
	}
	lat, err := f.Send("h1", "h1", 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 0 {
		t.Fatalf("local latency = %v, want 0", lat)
	}
	select {
	case m := <-done:
		if m.Payload != 42 {
			t.Fatalf("payload = %v", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("local message never delivered")
	}
}

func TestSendErrors(t *testing.T) {
	f := newTestFabric(t, 1.0)
	if _, err := f.Send("h1", "ghost", 1, nil); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown dest: %v", err)
	}
	if _, err := f.Send("ghost", "h1", 1, nil); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown source: %v", err)
	}
	if _, err := f.Send("h1", "h3", 1, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("no route: %v", err)
	}
}

func TestBernoulliLossMatchesReliability(t *testing.T) {
	f := newTestFabric(t, 0.7)
	const n = 5000
	delivered := 0
	for i := 0; i < n; i++ {
		if _, err := f.Send("h1", "h2", 1, nil); err == nil {
			delivered++
		} else if !errors.Is(err, ErrDropped) {
			t.Fatal(err)
		}
	}
	rate := float64(delivered) / n
	if math.Abs(rate-0.7) > 0.03 {
		t.Fatalf("delivery rate %v, want ≈0.7", rate)
	}
	stats, ok := f.Stats("h1", "h2")
	if !ok || stats.Sent != n || stats.Delivered != delivered {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Dropped != n-delivered {
		t.Fatalf("dropped = %d, want %d", stats.Dropped, n-delivered)
	}
}

func TestPartition(t *testing.T) {
	f := newTestFabric(t, 1.0)
	if err := f.SetPartitioned("h1", "h2", true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Send("h1", "h2", 1, nil); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned send: %v", err)
	}
	if err := f.SetPartitioned("h1", "h2", false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Send("h1", "h2", 1, nil); err != nil {
		t.Fatalf("healed send: %v", err)
	}
	if err := f.SetPartitioned("h1", "h3", true); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("partitioning a missing link: %v", err)
	}
}

func TestDisconnect(t *testing.T) {
	f := newTestFabric(t, 1.0)
	f.Disconnect("h2", "h1")
	if _, err := f.Send("h1", "h2", 1, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("send after disconnect: %v", err)
	}
	if _, ok := f.Link("h1", "h2"); ok {
		t.Fatal("link still visible after disconnect")
	}
}

func TestLatencyComputation(t *testing.T) {
	f := NewFabric(2)
	t.Cleanup(f.Close)
	for _, h := range []model.HostID{"a", "b"} {
		if err := f.AddHost(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	// 100 KB/s, 50ms delay: a 10KB message takes 50ms + 100ms = 150ms.
	if err := f.Connect("a", "b", LinkState{Reliability: 1, BandwidthKB: 100, Delay: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	lat, err := f.Send("a", "b", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 150 * time.Millisecond
	if lat < want-time.Millisecond || lat > want+time.Millisecond {
		t.Fatalf("latency = %v, want ≈%v", lat, want)
	}
}

func TestConnectValidation(t *testing.T) {
	f := newTestFabric(t, 1.0)
	if err := f.Connect("h1", "h1", LinkState{}); err == nil {
		t.Fatal("self-link accepted")
	}
	if err := f.Connect("h1", "ghost", LinkState{}); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	// Reconnect reconfigures in place and preserves stats.
	if _, err := f.Send("h1", "h2", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("h1", "h2", LinkState{Reliability: 0.5}); err != nil {
		t.Fatal(err)
	}
	stats, _ := f.Stats("h1", "h2")
	if stats.Sent != 1 {
		t.Fatal("reconnect reset the stats")
	}
	state, _ := f.Link("h1", "h2")
	if state.Reliability != 0.5 {
		t.Fatal("reconnect did not update state")
	}
}

func TestDuplicateHost(t *testing.T) {
	f := newTestFabric(t, 1.0)
	if err := f.AddHost("h1", nil); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestCloseStopsFabric(t *testing.T) {
	f := NewFabric(3)
	if err := f.AddHost("x", nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // idempotent
	if _, err := f.Send("x", "x", 1, nil); !errors.Is(err, ErrFabricClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := f.AddHost("y", nil); !errors.Is(err, ErrFabricClosed) {
		t.Fatalf("AddHost after close: %v", err)
	}
}

func TestResetStats(t *testing.T) {
	f := newTestFabric(t, 1.0)
	if _, err := f.Send("h1", "h2", 1, nil); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	stats, _ := f.Stats("h1", "h2")
	if stats.Sent != 0 || stats.BytesKB != 0 {
		t.Fatalf("stats after reset = %+v", stats)
	}
}

func TestFromModel(t *testing.T) {
	s, _, err := model.NewGenerator(model.DefaultGeneratorConfig(5, 5), 11).Generate()
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromModel(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if got := f.Hosts(); len(got) != 5 {
		t.Fatalf("Hosts = %v", got)
	}
	for _, pair := range s.LinkKeys() {
		state, ok := f.Link(pair.A, pair.B)
		if !ok {
			t.Fatalf("link %v missing from fabric", pair)
		}
		if math.Abs(state.Reliability-s.Links[pair].Reliability()) > 1e-12 {
			t.Fatalf("link %v reliability mismatch", pair)
		}
	}
}

func TestFluctuatorRandomWalk(t *testing.T) {
	f := newTestFabric(t, 0.8)
	fl := NewFluctuator(f, 5)
	fl.RegimeProb = 0
	fl.WalkSigma = 0.05
	before, _ := f.Link("h1", "h2")
	fl.StepN(10)
	after, _ := f.Link("h1", "h2")
	if before.Reliability == after.Reliability {
		t.Fatal("random walk did not move reliability")
	}
	if after.Reliability < fl.Floor || after.Reliability > fl.Ceil {
		t.Fatalf("reliability %v escaped [%v,%v]", after.Reliability, fl.Floor, fl.Ceil)
	}
}

func TestFluctuatorRegimeChanges(t *testing.T) {
	f := newTestFabric(t, 0.8)
	fl := NewFluctuator(f, 5)
	fl.RegimeProb = 1 // every step is a regime change
	fl.WalkSigma = 0
	if regimes := fl.StepN(10); regimes != 10 {
		t.Fatalf("regimes = %d, want 10", regimes)
	}
	state, _ := f.Link("h1", "h2")
	if state.Reliability < fl.RegimeRange.Min || state.Reliability > fl.RegimeRange.Max {
		t.Fatalf("regime reliability %v outside range", state.Reliability)
	}
}

func TestFluctuatorClipsAtFloor(t *testing.T) {
	f := newTestFabric(t, 0.06)
	fl := NewFluctuator(f, 9)
	fl.RegimeProb = 0
	fl.WalkSigma = 0.5 // violent walk; must stay clipped
	for i := 0; i < 50; i++ {
		fl.Step()
		state, _ := f.Link("h1", "h2")
		if state.Reliability < fl.Floor || state.Reliability > fl.Ceil {
			t.Fatalf("step %d: reliability %v out of bounds", i, state.Reliability)
		}
	}
}

func TestFluctuatorDeterministic(t *testing.T) {
	run := func() float64 {
		f := newTestFabric(t, 0.8)
		fl := NewFluctuator(f, 77)
		fl.StepN(25)
		state, _ := f.Link("h1", "h2")
		return state.Reliability
	}
	if run() != run() {
		t.Fatal("same seed produced different fluctuation traces")
	}
}

func TestConcurrentSends(t *testing.T) {
	f := newTestFabric(t, 1.0)
	var delivered sync.WaitGroup
	const n = 200
	delivered.Add(n)
	if err := f.SetHandler("h2", func(Message) { delivered.Done() }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/8; j++ {
				if _, err := f.Send("h1", "h2", 1, j); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("not all messages delivered")
	}
}

func TestIdleTracksQuiescence(t *testing.T) {
	f := newTestFabric(t, 1.0)
	if !f.Idle() {
		t.Fatal("fresh fabric should be idle")
	}
	// Park the receiving handler so the endpoint is observably busy.
	release := make(chan struct{})
	entered := make(chan struct{})
	if err := f.SetHandler("h2", func(m Message) {
		entered <- struct{}{}
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Send("h1", "h2", 1, "work"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(time.Second):
		t.Fatal("handler never entered")
	}
	if f.Idle() {
		t.Fatal("fabric idle while a handler is mid-delivery")
	}
	close(release)
	deadline := time.Now().Add(time.Second)
	for !f.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("fabric never went idle after the handler returned")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBandwidthAccurateQueueing(t *testing.T) {
	f := newTestFabric(t, 1.0) // h1-h2: 1000 KB/s, 1ms propagation
	f.SetBandwidthAccurate(true, 0)

	// First send: no backlog — latency is delay + own transmission time.
	lat1, err := f.Send("h1", "h2", 100, "a")
	if err != nil {
		t.Fatal(err)
	}
	want1 := time.Millisecond + 100*time.Second/1000
	if lat1 != want1 {
		t.Fatalf("first send latency = %v, want %v", lat1, want1)
	}
	if got := f.BacklogKB("h1", "h2"); got != 100 {
		t.Fatalf("backlog = %v KB, want 100", got)
	}

	// Second send queues behind the first: +100ms waiting for the
	// backlog to drain.
	lat2, err := f.Send("h1", "h2", 100, "b")
	if err != nil {
		t.Fatal(err)
	}
	if lat2 != want1+100*time.Millisecond {
		t.Fatalf("queued send latency = %v, want %v", lat2, want1+100*time.Millisecond)
	}

	// Drain half the backlog of 200 KB, then all of it.
	f.DrainBandwidth(100 * time.Millisecond)
	if got := f.BacklogKB("h1", "h2"); got != 100 {
		t.Fatalf("backlog after 100ms drain = %v KB, want 100", got)
	}
	f.DrainBandwidth(time.Second)
	if got := f.BacklogKB("h1", "h2"); got != 0 {
		t.Fatalf("backlog after full drain = %v KB, want 0", got)
	}
}

func TestBandwidthAccurateTailDrop(t *testing.T) {
	f := newTestFabric(t, 1.0)
	f.SetBandwidthAccurate(true, 150) // cap: 150 KB per link

	if _, err := f.Send("h1", "h2", 100, "fits"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Send("h1", "h2", 100, "overflow"); !errors.Is(err, ErrDropped) {
		t.Fatalf("overflowing send err = %v, want ErrDropped", err)
	}
	st, _ := f.Stats("h1", "h2")
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	// Draining makes room again.
	f.DrainBandwidth(time.Second)
	if _, err := f.Send("h1", "h2", 100, "fits again"); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthAccurateOffIsLegacy(t *testing.T) {
	f := newTestFabric(t, 1.0)
	f.SetBandwidthAccurate(true, 0)
	if _, err := f.Send("h1", "h2", 500, "x"); err != nil {
		t.Fatal(err)
	}
	f.SetBandwidthAccurate(false, 0) // must clear backlogs
	if got := f.BacklogKB("h1", "h2"); got != 0 {
		t.Fatalf("backlog survived mode off: %v KB", got)
	}
	lat, err := f.Send("h1", "h2", 100, "y")
	if err != nil {
		t.Fatal(err)
	}
	want := time.Millisecond + 100*time.Second/1000
	if lat != want {
		t.Fatalf("legacy latency = %v, want %v", lat, want)
	}
}

// scaledPair returns a two-host fabric whose one link charges exactly
// delay per send (no bandwidth term), at the given time scale.
func scaledPair(tb testing.TB, delay time.Duration, scale float64) *Fabric {
	tb.Helper()
	f := NewFabric(1)
	tb.Cleanup(f.Close)
	for _, h := range []model.HostID{"a", "b"} {
		if err := f.AddHost(h, nil); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.Connect("a", "b", LinkState{Reliability: 1, Delay: delay}); err != nil {
		tb.Fatal(err)
	}
	f.SetTimeScale(scale)
	return f
}

// TestScaledDelayNeverShort pins the wait rule on both sides of
// timerResolution: a Send returns no earlier than its scaled latency,
// whether it waited by yielding (1 µs, 50 µs) or by sleeping (2 ms), and
// a time scale of 0 never waits. The scaled sends have deliberately no
// upper bound, since under a loaded test run the scheduler may add any
// amount; the unscaled one need only return far inside its link's hour.
func TestScaledDelayNeverShort(t *testing.T) {
	const scale = 0.001
	for _, scaled := range []time.Duration{time.Microsecond, 50 * time.Microsecond, 2 * time.Millisecond} {
		f := scaledPair(t, time.Duration(float64(scaled)/scale), scale)
		for i := 0; i < 20; i++ {
			start := time.Now()
			lat, err := f.Send("a", "b", 1, i)
			took := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if want := time.Duration(float64(lat) * scale); took < want {
				t.Fatalf("scaled %v: send %d returned after %v, before its scaled latency %v", scaled, i, took, want)
			}
		}
	}
	f := scaledPair(t, time.Hour, 0)
	start := time.Now()
	lat, err := f.Send("a", "b", 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	if lat != time.Hour {
		t.Fatalf("latency = %v, want the link's 1h reported unscaled", lat)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("time scale 0 waited %v for a 1h link", took)
	}
}

// BenchmarkScaledSend times one Send over a link whose scaled delay is
// 1 µs (a 1 ms modelled delay at the time scale of 0.001 the failover
// benchmark and E5 run at). ns/op is the wall time the sender pays.
func BenchmarkScaledSend(b *testing.B) {
	f := scaledPair(b, time.Millisecond, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Send("a", "b", 1, i); err != nil {
			b.Fatal(err)
		}
	}
}
