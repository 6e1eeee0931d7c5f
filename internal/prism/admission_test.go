package prism

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dif/internal/obs"
)

func TestClassifyFrame(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		want ShedClass
	}{
		{"heartbeat", Event{Name: EvHeartbeat, Kind: KindControl}, ClassLiveness},
		{"lease request", Event{Name: EvLeaseRequest, Kind: KindControl}, ClassLiveness},
		{"lease grant", Event{Name: EvLeaseGrant, Kind: KindControl}, ClassLiveness},
		{"reconfig", Event{Name: EvReconfig, Kind: KindControl}, ClassControl},
		{"outcome", Event{Name: EvOutcome, Kind: KindControl}, ClassControl},
		{"goal delta", Event{Name: EvGoalDelta, Kind: KindControl}, ClassControl},
		{"report", Event{Name: EvReport, Kind: KindControl}, ClassControl},
		{"relay envelope", Event{Name: EvRelay, Kind: KindControl}, ClassControl},
		{"app traffic", Event{Name: "app.data", Kind: KindApplication}, ClassApp},
		{"legacy zero kind", Event{Name: "app.data"}, ClassApp},
		{"ping", Event{Name: "prism.ping", Kind: KindPing}, ClassApp},
		{"app ack batch", Event{Name: EvAppAckBatch, Kind: KindControl}, ClassApp},
		{"app bounce", Event{Name: EvAppBounce, Kind: KindControl}, ClassApp},
	}
	for _, tc := range cases {
		if got := ClassifyFrame(tc.e); got != tc.want {
			t.Errorf("%s classified %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAdmissionPriorityOrder(t *testing.T) {
	var order []ShedClass
	a := newAdmissionController(AdmissionConfig{Enabled: true, Manual: true},
		func(e Event) { order = append(order, ClassifyFrame(e)) })
	defer a.Close()
	// Enqueue lowest first; drain must still deliver highest first.
	a.Enqueue(Event{Name: "app.data"})
	a.Enqueue(Event{Name: "app.data"})
	a.Enqueue(Event{Name: EvReconfig, Kind: KindControl})
	a.Enqueue(Event{Name: EvHeartbeat, Kind: KindControl})
	if n := a.Drain(-1); n != 4 {
		t.Fatalf("drained %d frames, want 4", n)
	}
	want := []ShedClass{ClassLiveness, ClassControl, ClassApp, ClassApp}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestAdmissionShedOnlyAppUnderFlood is the shed-priority test: a
// saturating app-traffic flood sheds app frames only — every lease,
// heartbeat, and wave frame enqueued during the flood survives.
func TestAdmissionShedOnlyAppUnderFlood(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	delivered := map[ShedClass]int{}
	a := newAdmissionController(AdmissionConfig{Enabled: true, QueueCap: 16, Manual: true},
		func(e Event) {
			mu.Lock()
			delivered[ClassifyFrame(e)]++
			mu.Unlock()
		})
	defer a.Close()
	a.instrument(reg, "h1")

	// Saturate: 500 app frames into a 16-deep queue without draining.
	for i := 0; i < 500; i++ {
		a.Enqueue(Event{Name: "app.data", Kind: KindApplication})
	}
	// Control plane keeps talking during the flood (its own queues stay
	// under their caps — the point is that app pressure cannot displace
	// these frames).
	for i := 0; i < 8; i++ {
		a.Enqueue(Event{Name: EvHeartbeat, Kind: KindControl})
		a.Enqueue(Event{Name: EvLeaseRequest, Kind: KindControl})
		a.Enqueue(Event{Name: EvReconfig, Kind: KindControl})
		a.Enqueue(Event{Name: EvOutcome, Kind: KindControl})
	}
	a.Drain(-1)

	if got := delivered[ClassLiveness]; got != 16 {
		t.Fatalf("liveness frames delivered = %d, want all 16", got)
	}
	if got := delivered[ClassControl]; got != 16 {
		t.Fatalf("control frames delivered = %d, want all 16", got)
	}
	if got := delivered[ClassApp]; got != 16 {
		t.Fatalf("app frames delivered = %d, want QueueCap=16", got)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value(obs.Name("prism_shed_total", "class", "app", "host", "h1")); v != 484 {
		t.Fatalf("prism_shed_total{class=app} = %v, want 484", v)
	}
	for _, class := range []string{"liveness", "control"} {
		if v, _ := snap.Value(obs.Name("prism_shed_total", "class", class, "host", "h1")); v != 0 {
			t.Fatalf("prism_shed_total{class=%s} = %v, want 0", class, v)
		}
	}
}

func TestAdmissionPumpDispatches(t *testing.T) {
	var mu sync.Mutex
	got := 0
	a := newAdmissionController(AdmissionConfig{Enabled: true},
		func(e Event) {
			mu.Lock()
			got++
			mu.Unlock()
		})
	for i := 0; i < 50; i++ {
		a.Enqueue(Event{Name: "app.data"})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := got
		mu.Unlock()
		if n == 50 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.Close()
	mu.Lock()
	defer mu.Unlock()
	if got != 50 {
		t.Fatalf("pump dispatched %d of 50", got)
	}
	// Close is idempotent and enqueue-after-close is a silent no-op.
	a.Close()
	a.Enqueue(Event{Name: "app.data"})
}

// TestAdmissionRingMatchesReference drives the ring queues and a plain
// slice-per-class reference with the same random enqueues, single pops
// and bounded drains, through many wrap-arounds and every grow step, and
// demands identical dispatch order, shed counts and depths.
func TestAdmissionRingMatchesReference(t *testing.T) {
	const queueCap = 100 // not a power of two: the last grow step clamps
	frames := [numShedClasses]string{EvHeartbeat, EvReconfig, "app.data"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := obs.NewRegistry()
		var got []uint64
		a := newAdmissionController(AdmissionConfig{Enabled: true, QueueCap: queueCap, Manual: true},
			func(e Event) { got = append(got, e.Seq) })
		a.instrument(reg, "h1")

		var ref [numShedClasses][]uint64
		var refShed [numShedClasses]float64
		var want []uint64
		refPop := func(n int) {
			for ; n != 0; n-- {
				c := ShedClass(0)
				for c < numShedClasses && len(ref[c]) == 0 {
					c++
				}
				if c == numShedClasses {
					return
				}
				want = append(want, ref[c][0])
				ref[c] = ref[c][1:]
			}
		}
		var id uint64
		for step := 0; step < 20000; step++ {
			// Phases alternate between filling past the cap and draining
			// dry, so the rings grow to the clamp, shed, empty and wrap.
			filling := (step/700)%2 == 0
			switch op := rng.Intn(10); {
			case op < 4 || (filling && op < 9):
				id++
				c := ShedClass(rng.Intn(int(numShedClasses)))
				kind := KindControl
				if c == ClassApp {
					kind = KindApplication
				}
				a.Enqueue(Event{Name: frames[c], Kind: kind, Seq: id})
				if len(ref[c]) >= queueCap {
					refShed[c]++
				} else {
					ref[c] = append(ref[c], id)
				}
			case op < 9:
				n := 1 + rng.Intn(6)
				a.Drain(n)
				refPop(n)
			case filling:
				a.Drain(1) // a trickle, so even the first-served class backs up
				refPop(1)
			default:
				a.Drain(-1)
				refPop(-1)
			}
			for c := ShedClass(0); c < numShedClasses; c++ {
				if d := a.Depth(c); d != len(ref[c]) {
					t.Fatalf("seed %d step %d: depth[%v] = %d, reference %d", seed, step, c, d, len(ref[c]))
				}
			}
		}
		a.Drain(-1)
		refPop(-1)
		a.Close()

		if len(got) != len(want) {
			t.Fatalf("seed %d: dispatched %d frames, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d was frame %d, reference %d", seed, i, got[i], want[i])
			}
		}
		snap := reg.Snapshot()
		for c := ShedClass(0); c < numShedClasses; c++ {
			v, _ := snap.Value(obs.Name("prism_shed_total", "class", c.String(), "host", "h1"))
			if v != refShed[c] {
				t.Fatalf("seed %d: shed[%v] = %v, reference %v", seed, c, v, refShed[c])
			}
			if refShed[c] == 0 {
				t.Fatalf("seed %d: class %v never hit its cap; the test lost its coverage", seed, c)
			}
		}
	}
}

// TestAdmissionQueueGrowsOnDemand pins the memory contract behind the
// large default bound: an idle controller holds no queue memory, and a
// queue never allocates past its cap.
func TestAdmissionQueueGrowsOnDemand(t *testing.T) {
	a := newAdmissionController(AdmissionConfig{Enabled: true, Manual: true}, func(Event) {})
	defer a.Close()
	if a.cfg.QueueCap != DefaultQueueCap {
		t.Fatalf("default QueueCap = %d, want %d", a.cfg.QueueCap, DefaultQueueCap)
	}
	for c := range a.queues {
		if a.queues[c].buf != nil {
			t.Fatalf("idle controller pre-allocated %d slots for class %d", len(a.queues[c].buf), c)
		}
	}
	for i := 0; i < DefaultQueueCap+50; i++ {
		a.Enqueue(Event{Name: "app.data"})
	}
	if n := len(a.queues[ClassApp].buf); n != DefaultQueueCap {
		t.Fatalf("full queue holds %d slots, want exactly the cap %d", n, DefaultQueueCap)
	}
	if a.queues[ClassLiveness].buf != nil {
		t.Fatal("app pressure allocated liveness queue memory")
	}
}
