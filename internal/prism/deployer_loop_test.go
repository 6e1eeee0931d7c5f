package prism

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dif/internal/model"
)

// openRecords lists the deployer loop's open records of type T.
func openRecords[T record](d *DeployerComponent) []T {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []T
	for _, r := range d.records {
		if t, ok := r.(T); ok {
			out = append(out, t)
		}
	}
	return out
}

// loopIdle reports whether the deployer loop has exited with no record
// open and nothing queued.
func loopIdle(d *DeployerComponent) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.running && len(d.records) == 0 && len(d.inbox) == 0
}

// sendLog records, per event name and destination, when its host sent
// each frame, and silently swallows every frame toward a silenced host.
type sendLog struct {
	Transport

	mu       sync.Mutex
	silenced map[model.HostID]bool
	at       map[string][]time.Time // "name→host" → send times
}

func newSendLog(inner Transport) *sendLog {
	return &sendLog{Transport: inner, silenced: make(map[model.HostID]bool), at: make(map[string][]time.Time)}
}

func (sl *sendLog) Send(to model.HostID, data []byte, sizeKB float64) error {
	e, err := DecodeEvent(data)
	sl.mu.Lock()
	silent := sl.silenced[to]
	if err == nil {
		k := e.Name + "→" + string(to)
		sl.at[k] = append(sl.at[k], time.Now())
	}
	sl.mu.Unlock()
	if silent {
		return nil
	}
	return sl.Transport.Send(to, data, sizeKB)
}

func (sl *sendLog) silence(h model.HostID) {
	sl.mu.Lock()
	sl.silenced[h] = true
	sl.mu.Unlock()
}

func (sl *sendLog) times(name string, to model.HostID) []time.Time {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]time.Time(nil), sl.at[name+"→"+string(to)]...)
}

// holdTap queues every frame carrying the named event instead of sending
// it, until the test releases them in order.
type holdTap struct {
	Transport
	name string

	mu   sync.Mutex
	held []heldFrame
}

type heldFrame struct {
	to     model.HostID
	data   []byte
	sizeKB float64
}

func (ht *holdTap) Send(to model.HostID, data []byte, sizeKB float64) error {
	if e, err := DecodeEvent(data); err == nil && e.Name == ht.name {
		ht.mu.Lock()
		ht.held = append(ht.held, heldFrame{to, append([]byte(nil), data...), sizeKB})
		ht.mu.Unlock()
		return nil
	}
	return ht.Transport.Send(to, data, sizeKB)
}

func (ht *holdTap) queued() int {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	return len(ht.held)
}

// release sends the oldest held frame.
func (ht *holdTap) release(t *testing.T) {
	t.Helper()
	ht.mu.Lock()
	f := ht.held[0]
	ht.held = ht.held[1:]
	ht.mu.Unlock()
	if err := ht.Transport.Send(f.to, f.data, f.sizeKB); err != nil {
		t.Fatal(err)
	}
}

// TestLateReportNotCountedInNextRound: round 1 times out while s1's
// report is still on its way; that report lands during round 2, and must
// not be taken as round 2's answer — round 2 reports the two events
// counted since round 1, not round 1's three.
func TestLateReportNotCountedInNextRound(t *testing.T) {
	var tap *holdTap
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "s1" {
			return tr
		}
		tap = &holdTap{Transport: tr, name: EvReport}
		return tap
	}, "m", "s1")
	dw := deployOn(t, w, "m")
	// No re-request: each round asks s1 exactly once.
	dw.deployer.cfg.EnactResendInterval = time.Hour
	dw.addCounter(t, "s1", "c1", 0)
	c2 := dw.addCounter(t, "s1", "c2", 0)
	counted := dw.archs["s1"].Component("c1").(*counterComponent)
	emit := func(n int) {
		want := counted.value() + n
		for i := 0; i < n; i++ {
			c2.Emit(Event{Name: "tick", Target: "c1"})
		}
		waitFor(t, func() bool { return counted.value() == want })
	}

	emit(3)
	if _, err := dw.deployer.RequestReports([]model.HostID{"s1"}, 100*time.Millisecond); err == nil {
		t.Fatal("round 1 completed with its report held")
	}
	waitFor(t, func() bool { return tap.queued() == 1 })
	emit(2)
	type answer struct {
		reports map[model.HostID]MonitoringReport
		err     error
	}
	round2 := make(chan answer, 1)
	go func() {
		reports, err := dw.deployer.RequestReports([]model.HostID{"s1"}, 5*time.Second)
		round2 <- answer{reports, err}
	}()
	waitFor(t, func() bool { return tap.queued() == 2 })
	// Round 1's report lands first; round 2's only once it had its chance.
	tap.release(t)
	var got answer
	select {
	case got = <-round2:
	case <-time.After(300 * time.Millisecond):
		tap.release(t)
		got = <-round2
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	ints := got.reports["s1"].Interactions
	if len(ints) != 1 || ints[0].Events != 2 {
		t.Fatalf("round 2 interactions = %+v, want the 2 events counted since round 1", ints)
	}
}

// TestDeployerRedrivePacing: one deployer loop runs a wave, a campaign
// and a report round at once, toward peers that answer at once. Each
// record's first re-drive is a full EnactResendInterval after its own
// phase began, so nothing is sent twice and no failed send is recorded;
// and a silent destination's second reconfig comes a full interval after
// its first even though another record's phase began earlier.
func TestDeployerRedrivePacing(t *testing.T) {
	const interval = 200 * time.Millisecond
	hosts := []model.HostID{"m", "s1", "s2"}
	var log *sendLog
	w := newWrappedWorld(t, 1.0, func(h model.HostID, tr Transport) Transport {
		if h != "m" {
			return tr
		}
		log = newSendLog(tr)
		return log
	}, hosts...)
	dw := deployOn(t, w, "m")
	d := dw.deployer
	d.cfg.EnactResendInterval, d.cfg.OutcomeAckTimeout = interval, 2*interval
	fd := NewFailureDetector(time.Minute, time.Hour)
	d.AttachDetector(fd)
	dw.addCounter(t, "s1", "c1", 1)
	dw.addCounter(t, "s1", "c2", 2)

	// The loop opens all three records in one pass: it waits at a gate
	// until the three calls are queued behind it.
	gate := make(chan struct{})
	d.post(func() { <-gate }, true)
	queued := func(n int) func() bool {
		return func() bool {
			d.mu.Lock()
			defer d.mu.Unlock()
			return len(d.inbox) == n
		}
	}
	waitFor(t, queued(0)) // the loop is at the gate
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		if res, err := d.Enact(map[string]model.HostID{"c1": "s2"}, map[string]model.HostID{"c1": "s1"}, 5*time.Second); err != nil || !res.Committed {
			t.Errorf("wave: %+v, err %v", res, err)
		}
	}()
	// The wave is queued before leadership attaches: it runs unfenced.
	waitFor(t, queued(1))
	le, err := d.AttachLeadership(LeaderConfig{Agents: hosts, CampaignTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer wg.Done()
		if won, err := le.Campaign(); err != nil || !won {
			t.Errorf("campaign: won=%v err=%v", won, err)
		}
	}()
	go func() {
		defer wg.Done()
		if got, err := d.RequestReports([]model.HostID{"s1", "s2"}, 5*time.Second); err != nil || len(got) != 2 {
			t.Errorf("reports: %d, err %v", len(got), err)
		}
	}()
	waitFor(t, queued(3))
	close(gate)
	wg.Wait()
	// Let a would-be re-drive come due before counting.
	time.Sleep(interval + interval/2)
	for name, dsts := range map[string][]model.HostID{
		EvReconfig:      {"s2"},
		EvLeaseRequest:  {"s1", "s2"},
		EvReportRequest: {"s1", "s2"},
	} {
		for _, h := range dsts {
			if n := len(log.times(name, h)); n != 1 {
				t.Errorf("%s sent to %s %d times, want 1", name, h, n)
			}
		}
	}
	for h, s := range fd.Scores() {
		if s != 1 {
			t.Errorf("health score of %s = %v, want 1: a failed send was recorded", h, s)
		}
	}

	// A report round toward a silent host opens a phase first; a wave
	// toward the same host starts its own phase most of an interval later.
	log.silence("s2")
	go func() { _, _ = d.RequestReports([]model.HostID{"s2"}, 4*interval) }()
	time.Sleep(interval / 2)
	before := len(log.times(EvReconfig, "s2"))
	if _, err := d.Enact(map[string]model.HostID{"c2": "s2"}, map[string]model.HostID{"c2": "s1"}, 2*interval+interval/2); err == nil {
		t.Fatal("wave toward a silent destination committed")
	}
	sends := log.times(EvReconfig, "s2")[before:]
	if len(sends) < 2 {
		t.Fatalf("silent destination got %d reconfigs, want a first and a re-drive", len(sends))
	}
	if gap := sends[1].Sub(sends[0]); gap < interval {
		t.Fatalf("second reconfig %v after the first, want no sooner than %v", gap, interval)
	}
	waitFor(t, func() bool { return loopIdle(d) })
}

// TestDeployerCloseEndsEveryRecord: Close ends a wave toward a
// partitioned host, a campaign without a quorum and a report round toward
// a silent host, each promptly and with its closed result, and the loop
// exits with no record open.
func TestDeployerCloseEndsEveryRecord(t *testing.T) {
	// Nothing re-drives before Close: the records only wait.
	fw := newFaultWorld(t, AdminConfig{EnactResendInterval: time.Hour, OutcomeAckTimeout: time.Hour}, nil,
		"m", "s1", "s2", "s3")
	fw.addCounter(t, "s3", "c1", 1)
	fw.partitionPair("m", "s1", true)
	fw.partitionPair("m", "s2", true)
	d := fw.deployer

	errs := make(chan string, 3)
	go func() {
		res, err := d.Enact(map[string]model.HostID{"c1": "s2"}, map[string]model.HostID{"c1": "s3"}, time.Hour)
		if err == nil || res.Committed || !strings.Contains(err.Error(), "closed mid-wave (wave rolled back)") {
			t.Errorf("wave after Close: %+v, err %v; want rolled back", res, err)
		}
		errs <- "wave"
	}()
	waitFor(t, func() bool { return len(openRecords[*shellWave](d)) == 1 })
	// Only m's own agent can grant: no quorum of three.
	le, err := d.AttachLeadership(LeaderConfig{Agents: []model.HostID{"m", "s1", "s2"}, CampaignTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if won, err := le.Campaign(); won || err == nil || err.Error() != "prism: deployer closed mid-campaign" {
			t.Errorf("campaign after Close: won=%v err=%v", won, err)
		}
		errs <- "campaign"
	}()
	go func() {
		got, err := d.RequestReports([]model.HostID{"s1"}, time.Hour)
		if len(got) != 0 || err == nil || err.Error() != "deployer: closed with 0 of 1 reports" {
			t.Errorf("report round after Close: %d reports, err %v", len(got), err)
		}
		errs <- "reports"
	}()
	waitFor(t, func() bool { return len(openRecords[record](d)) == 3 })

	d.Close()
	timeout := time.After(2 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case <-errs:
		case <-timeout:
			t.Fatalf("%d of 3 exchanges returned within 2s of Close", i)
		}
	}
	waitFor(t, func() bool { return loopIdle(d) })
}
