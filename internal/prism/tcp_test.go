package prism

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

func newTCPPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	a, err := NewTCPTransport("hostA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewTCPTransport("hostB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer("hostB", b.Addr())
	b.AddPeer("hostA", a.Addr())
	return a, b
}

type frameSink struct {
	mu     sync.Mutex
	frames []string
	froms  []model.HostID
}

func (s *frameSink) recv(from model.HostID, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, string(data))
	s.froms = append(s.froms, from)
}

func (s *frameSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

func (s *frameSink) all() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.frames...)
}

func TestTCPTransportRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)
	var sink frameSink
	b.SetReceiver(sink.recv)
	if err := a.Send("hostB", []byte("hello"), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 1 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.frames[0] != "hello" || sink.froms[0] != "hostA" {
		t.Fatalf("frame = %q from %s", sink.frames[0], sink.froms[0])
	}
}

func TestTCPTransportBidirectionalOnOneConnection(t *testing.T) {
	a, b := newTCPPair(t)
	var sinkA, sinkB frameSink
	a.SetReceiver(sinkA.recv)
	b.SetReceiver(sinkB.recv)
	if err := a.Send("hostB", []byte("ping"), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sinkB.count() == 1 })
	// The reply must reuse the inbound connection registered by hello.
	if err := b.Send("hostA", []byte("pong"), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sinkA.count() == 1 })
	// Frames carry no sender: the accepting side's hello, queued ahead of
	// its first reply, is what names it on the dialer's end.
	sinkA.mu.Lock()
	defer sinkA.mu.Unlock()
	if sinkA.frames[0] != "pong" || sinkA.froms[0] != "hostB" {
		t.Fatalf("reply = %q from %s, want pong from hostB", sinkA.frames[0], sinkA.froms[0])
	}
}

func TestTCPTransportUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send("ghost", []byte("x"), 1); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPTransportManyFrames(t *testing.T) {
	a, b := newTCPPair(t)
	var sink frameSink
	b.SetReceiver(sink.recv)
	for i := 0; i < 200; i++ {
		if err := a.Send("hostB", []byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return sink.count() == 200 })
}

// TestTCPDelayedFrameSurvivesBufferReuse holds one frame in
// FaultTransport's inbound delay path while later frames of the same
// size pass through the connection's one read buffer: the held frame
// must still arrive byte-identical, after them.
func TestTCPDelayedFrameSurvivesBufferReuse(t *testing.T) {
	a, b := newTCPPair(t)
	reg := obs.NewRegistry()
	fb := NewFaultTransport(b, FaultConfig{
		Inbound: DirFault{DelayRate: 1, Delay: 200 * time.Millisecond},
		Obs:     reg,
	})
	var sink frameSink
	fb.SetReceiver(sink.recv)
	frame := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 256) }
	if err := a.Send("hostB", frame('A'), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return faultCounters(reg, "hostB")["delayed"] == 1 })
	fb.SetFaultConfig(FaultConfig{})
	const later = 8
	for i := 0; i < later; i++ {
		if err := a.Send("hostB", frame('B'+byte(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return sink.count() == later+1 })
	got := sink.all()
	for i := 0; i < later; i++ {
		if got[i] != string(frame('B'+byte(i))) {
			t.Fatalf("frame %d arrived as %.8q…, want %c×256", i, got[i], 'B'+i)
		}
	}
	if got[later] != string(frame('A')) {
		t.Fatalf("delayed frame arrived as %.8q…, want A×256 unchanged by the frames read after it", got[later])
	}
}

func TestTCPTransportClose(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Send("hostB", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := a.Send("hostB", []byte("y"), 1); err == nil {
		t.Fatal("send after close succeeded")
	}
	_ = b
}

func TestTCPTransportPeersSorted(t *testing.T) {
	a, _ := newTCPPair(t)
	a.AddPeer("hostZ", "127.0.0.1:1")
	a.AddPeer("hostC", "127.0.0.1:2")
	peers := a.Peers()
	if len(peers) != 3 || peers[0] != "hostB" || peers[2] != "hostZ" {
		t.Fatalf("peers = %v", peers)
	}
}

func TestDistributionConnectorOverTCP(t *testing.T) {
	// Full prism stack over real sockets: two architectures exchange an
	// application event.
	ta, tb := newTCPPair(t)
	archA := NewArchitecture("hostA", nil)
	archB := NewArchitecture("hostB", nil)
	if _, err := archA.AddDistributionConnector("bus", ta); err != nil {
		t.Fatal(err)
	}
	if _, err := archB.AddDistributionConnector("bus", tb); err != nil {
		t.Fatal(err)
	}
	sender := newEcho("sender")
	receiver := newEcho("receiver")
	if err := archA.AddComponent(sender); err != nil {
		t.Fatal(err)
	}
	if err := archA.Weld("sender", "bus"); err != nil {
		t.Fatal(err)
	}
	if err := archB.AddComponent(receiver); err != nil {
		t.Fatal(err)
	}
	if err := archB.Weld("receiver", "bus"); err != nil {
		t.Fatal(err)
	}
	sender.Emit(Event{Name: "over-tcp", Target: "receiver", Payload: "data"})
	waitFor(t, func() bool { return receiver.count.Load() == 1 })
	ev := receiver.events()[0]
	if ev.SrcHost != "hostA" || ev.Payload != "data" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestMigrationOverTCP(t *testing.T) {
	// End-to-end component migration across real processes' worth of
	// plumbing (same process, real sockets).
	ta, tb := newTCPPair(t)
	archM := NewArchitecture("hostA", nil) // master
	archS := NewArchitecture("hostB", nil)
	if _, err := archM.AddDistributionConnector("bus", ta); err != nil {
		t.Fatal(err)
	}
	if _, err := archS.AddDistributionConnector("bus", tb); err != nil {
		t.Fatal(err)
	}
	registry := NewFactoryRegistry()
	registry.Register("counter", func(id string) Migratable { return newCounter(id) })
	cfg := AdminConfig{Deployer: "hostA", Bus: "bus", Registry: registry}
	if _, err := InstallAdmin(archM, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := InstallAdmin(archS, cfg); err != nil {
		t.Fatal(err)
	}
	dep, err := InstallDeployer(archM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter("c1")
	c.Count = 99
	if err := archS.AddComponent(c); err != nil {
		t.Fatal(err)
	}
	if err := archS.Weld("c1", "bus"); err != nil {
		t.Fatal(err)
	}
	res, err := dep.Enact(
		map[string]model.HostID{"c1": "hostA"},
		map[string]model.HostID{"c1": "hostB"},
		5*time.Second,
	)
	if err != nil {
		t.Fatalf("enact over tcp: %v (%+v)", err, res)
	}
	waitFor(t, func() bool { return archM.Component("c1") != nil })
	if got := archM.Component("c1").(*counterComponent).value(); got != 99 {
		t.Fatalf("state over tcp = %d, want 99", got)
	}
}

// --- Lifecycle tests (run these under -race) ---

func TestTCPTransportConcurrentSendHelloClose(t *testing.T) {
	a, b := newTCPPair(t)
	sink := &frameSink{}
	b.SetReceiver(sink.recv)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Errors are expected once Close lands mid-loop; the point
				// is that nothing races, panics, or deadlocks.
				_ = a.Send("hostB", []byte("x"), 1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = b.Hello("hostA")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Millisecond)
		_ = a.Close()
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Send/Hello/Close deadlocked")
	}
	if err := a.Send("hostB", []byte("x"), 1); err == nil {
		t.Fatal("send after Close succeeded")
	}
}

func TestTCPTransportCrossedDials(t *testing.T) {
	a, b := newTCPPair(t)
	sinkA, sinkB := &frameSink{}, &frameSink{}
	a.SetReceiver(sinkA.recv)
	b.SetReceiver(sinkB.recv)

	// Dial each other simultaneously to provoke the duel.
	var wg sync.WaitGroup
	for _, tr := range []*TCPTransport{a, b} {
		wg.Add(1)
		go func(tr *TCPTransport) {
			defer wg.Done()
			peer := model.HostID("hostB")
			if tr.Host() == "hostB" {
				peer = "hostA"
			}
			_ = tr.Hello(peer)
		}(tr)
	}
	wg.Wait()

	// Whatever the duel resolved to, traffic must flow both ways on live
	// encoders — a registered-but-dead conn would error or lose frames.
	for i := 0; i < 10; i++ {
		if err := a.Send("hostB", []byte("ab"), 1); err != nil {
			t.Fatalf("a→b after crossed dials: %v", err)
		}
		if err := b.Send("hostA", []byte("ba"), 1); err != nil {
			t.Fatalf("b→a after crossed dials: %v", err)
		}
	}
	waitFor(t, func() bool { return len(sinkB.all()) == 10 && len(sinkA.all()) == 10 })

	// The duel must converge to a single registered conn per peer and no
	// leaked unregistered sockets beyond it.
	waitFor(t, func() bool {
		for _, tr := range []*TCPTransport{a, b} {
			tr.mu.Lock()
			conns, socks := len(tr.conns), len(tr.socks)
			tr.mu.Unlock()
			if conns != 1 || socks > 2 {
				return false
			}
		}
		return true
	})
}

func TestTCPTransportReplyDoesNotKillDialedConn(t *testing.T) {
	// The agent→deployer shape: the higher-named host dials the lower one,
	// and the lower host replies over the inbound connection. The reply's
	// first frame arrives on the dialer's own socket with From < host —
	// which must NOT be mistaken for a crossed-dial duel (that bug closed
	// the live socket on every reply, severing the deployer's only path
	// back to its agents).
	a, b := newTCPPair(t) // hostA < hostB
	sinkA, sinkB := &frameSink{}, &frameSink{}
	a.SetReceiver(sinkA.recv)
	b.SetReceiver(sinkB.recv)

	if err := b.Send("hostA", []byte("join"), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sinkA.count() == 1 })
	b.mu.Lock()
	before := b.conns["hostA"]
	b.mu.Unlock()
	if before == nil {
		t.Fatal("dialed conn not registered")
	}

	if err := a.Send("hostB", []byte("reply"), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sinkB.count() == 1 })
	time.Sleep(50 * time.Millisecond) // let any misfired close propagate

	b.mu.Lock()
	after := b.conns["hostA"]
	b.mu.Unlock()
	if after == nil || after.conn != before.conn {
		t.Fatal("reply on the dialed socket churned the registered conn")
	}
	// a's inbound registration must also have survived, so a can keep
	// initiating traffic without b redialing.
	for i := 0; i < 5; i++ {
		if err := a.Send("hostB", []byte("more"), 1); err != nil {
			t.Fatalf("a→b after reply: %v", err)
		}
	}
	waitFor(t, func() bool { return sinkB.count() == 6 })
}

func TestTCPTransportReceiverRegisteredAfterFrames(t *testing.T) {
	a, b := newTCPPair(t)
	// Frames sent before the receiver exists are dropped by design; the
	// transport must stay healthy and deliver everything sent afterward.
	if err := a.Send("hostB", []byte("early"), 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	sink := &frameSink{}
	b.SetReceiver(sink.recv)
	for i := 0; i < 5; i++ {
		if err := a.Send("hostB", []byte("late"), 1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(sink.all()) == 5 })
	for _, f := range sink.all() {
		if f != "late" {
			t.Fatalf("received pre-receiver frame %q", f)
		}
	}
}

func TestTCPTransportSendCloseRace(t *testing.T) {
	// Senders append to a connection's pending buffer while Close drains
	// it and tears the socket down. Run under -race: nothing may race,
	// deadlock, or panic, whichever side gets there first.
	for round := 0; round < 20; round++ {
		a, b := newTCPPair(t)
		sink := &frameSink{}
		b.SetReceiver(sink.recv)

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					// Errors are fine once Close lands; the invariant under
					// test is no data race and no deadlock.
					_ = a.Send("hostB", []byte("burst"), 1)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Close()
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Send racing Close deadlocked")
		}
		b.Close()
	}
}

func TestTCPTransportCloseWithIdleInboundConn(t *testing.T) {
	a, err := NewTCPTransport("hostA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A raw client that connects but never sends a hello: its readLoop
	// blocks reading with nothing registered. Close must still reap it.
	raw, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	time.Sleep(20 * time.Millisecond) // let accept() hand it to a readLoop

	done := make(chan struct{})
	go func() { _ = a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on an idle inbound connection")
	}
}

// TestTCPTransportConcurrentFirstSends races two first Sends from one
// host to a peer that has no address for it (an agent dialing in to its
// deployer). Both senders' frames must arrive, and the peer must be left
// holding a live connection back: its replies arrive too.
func TestTCPTransportConcurrentFirstSends(t *testing.T) {
	for round := 0; round < 20; round++ {
		a, err := NewTCPTransport("hostA", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTCPTransport("hostB", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a.AddPeer("hostB", b.Addr())
		sinkA, sinkB := &frameSink{}, &frameSink{}
		a.SetReceiver(sinkA.recv)
		b.SetReceiver(sinkB.recv)

		const perSender = 10
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-start
				for i := 0; i < perSender; i++ {
					if err := a.Send("hostB", []byte(fmt.Sprintf("a%d-%d", s, i)), 1); err != nil {
						t.Errorf("round %d: a→b: %v", round, err)
					}
				}
			}(s)
		}
		close(start)
		wg.Wait()
		waitFor(t, func() bool { return sinkB.count() == 2*perSender })
		// Replies ride whatever hostB registered off hostA's hello; it has
		// no address to redial, so a registration of a socket hostA
		// retired would strand them.
		for i := 0; i < perSender; i++ {
			if err := b.Send("hostA", []byte(fmt.Sprintf("b-%d", i)), 1); err != nil {
				t.Fatalf("round %d: b→a reply %d: %v", round, i, err)
			}
		}
		waitFor(t, func() bool { return sinkA.count() == perSender })
		a.Close()
		b.Close()
	}
}
