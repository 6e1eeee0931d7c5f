package prism

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dif/internal/model"
)

// The TestTCPWriter* tests pin the self-clocked write path; make
// test-race runs them 50 times each.

func TestTCPWriterLoneFrameNeedsNoTimer(t *testing.T) {
	a, b := newTCPPair(t)
	// The flush argument is ignored: with an hour-long idle flush the
	// timer-driven leg stranded a lone frame in its write buffer.
	a.SetBatching(64<<10, time.Hour)
	var sink frameSink
	b.SetReceiver(sink.recv)
	if err := a.Send("hostB", []byte("lone"), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for sink.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lone frame not delivered within 1s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestTCPWriterConcurrentSendersKeepOrder(t *testing.T) {
	a, b := newTCPPair(t)
	// A small mark makes senders queue at it as well as behind each other.
	a.SetBatching(512, 0)
	const senders, perSender = 8, 400
	var mu sync.Mutex
	next := make([]uint32, senders)
	var total atomic.Int64
	b.SetReceiver(func(_ model.HostID, data []byte) {
		id, seq := data[0], binary.BigEndian.Uint32(data[1:])
		mu.Lock()
		if seq != next[id] {
			t.Errorf("sender %d: frame %d arrived where %d was due", id, seq, next[id])
		}
		next[id] = seq + 1
		mu.Unlock()
		total.Add(1)
	})
	var wg sync.WaitGroup
	for id := 0; id < senders; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			frame := make([]byte, 5+id) // distinct sizes shift frame boundaries
			frame[0] = byte(id)
			for seq := uint32(0); seq < perSender; seq++ {
				binary.BigEndian.PutUint32(frame[1:], seq)
				if err := a.Send("hostB", frame, 0); err != nil {
					t.Errorf("sender %d frame %d: %v", id, seq, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	waitFor(t, func() bool { return total.Load() == senders*perSender })
}

// mutePeer listens like a transport but never reads what it accepts.
func mutePeer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln
}

// blockSender sends 256 KiB frames to a mute peer until the socket
// buffers and then the connection's pending buffer are full and Send
// blocks. It returns the connection and the channel Send's eventual
// error arrives on.
func blockSender(t *testing.T, a *TCPTransport) (*tcpConn, <-chan error) {
	t.Helper()
	ln := mutePeer(t)
	a.AddPeer("mute", ln.Addr().String())
	c, err := a.connTo("mute")
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 256<<10)
	var sent atomic.Int64
	errc := make(chan error, 1)
	go func() {
		for {
			if err := a.Send("mute", frame, 0); err != nil {
				errc <- err
				return
			}
			sent.Add(1)
		}
	}()
	// Blocked means: a frame is pending that the writer cannot take (it
	// is stuck in Write), and the count of admitted frames stands still.
	last, since := int64(-1), time.Now()
	waitFor(t, func() bool {
		c.mu.Lock()
		pending := len(c.pending)
		c.mu.Unlock()
		if n := sent.Load(); n != last || pending == 0 {
			last, since = n, time.Now()
		}
		return time.Since(since) > 100*time.Millisecond
	})
	select {
	case err := <-errc:
		t.Fatalf("Send failed instead of blocking: %v", err)
	default:
	}
	// A released Send retries once on a fresh dial; refuse it, or it
	// would block all over again on the new connection.
	ln.Close()
	return c, errc
}

func wantSendError(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("blocked Send released without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Send never released")
	}
}

func TestTCPWriterDropConnReleasesBlockedSend(t *testing.T) {
	a, _ := newTCPPair(t)
	c, errc := blockSender(t, a)
	a.dropConn("mute", c) // returns once the writer goroutine has exited
	select {
	case <-c.done:
	default:
		t.Fatal("dropConn returned with the writer still running")
	}
	wantSendError(t, errc)
}

// TestTCPCloseReleasesBlockedSend takes drainTimeout (the stalled peer
// never takes the pending frame), so it stays out of the -count=50 set.
func TestTCPCloseReleasesBlockedSend(t *testing.T) {
	a, _ := newTCPPair(t)
	_, errc := blockSender(t, a)
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	wantSendError(t, errc)
	select {
	case <-closed: // Close waits for every writer goroutine
	case <-time.After(drainTimeout + 4*time.Second):
		t.Fatal("Close hung on a peer that does not read")
	}
}

func TestTCPWriterRetireDeliversBuffered(t *testing.T) {
	a, b := newTCPPair(t)
	var sinkA, sinkB frameSink
	a.SetReceiver(sinkA.recv)
	b.SetReceiver(sinkB.recv)
	c, err := a.connTo("hostB")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	retire(c)
	if err := c.send([]byte("late")); err == nil {
		t.Fatal("retired connection admitted a frame")
	}
	waitFor(t, func() bool { return sinkB.count() == n })
	for i, f := range sinkB.all() {
		if f != string([]byte{byte(i)}) {
			t.Fatalf("frame %d = %q after retire", i, f)
		}
	}
	// Retirement shut only a's write side: what b still writes on the
	// socket is read to the end.
	a.mu.Lock()
	delete(a.conns, "hostB") // as the duel's winner would have replaced it
	a.mu.Unlock()
	waitFor(t, func() bool { return len(a.Peers()) == 1 })
	if err := b.Send("hostA", []byte("still-read"), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sinkA.count() == 1 })
}

// TestTCPWriterYieldedDialStillDelivers: hostB holds a registered
// inbound connection from hostA when its own dial to hostA completes, so
// by the duel rule (the lower host's dial is canonical) hostB yields the
// dial. hostA may already have taken the yielded socket into service off
// hostB's hello; a frame it writes there must not be discarded.
func TestTCPWriterYieldedDialStillDelivers(t *testing.T) {
	b, err := NewTCPTransport("hostB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	var sink frameSink
	b.SetReceiver(sink.recv)

	// hostA, played by hand: it dials hostB and says hello...
	inbound, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer inbound.Close()
	inbound.Write(helloBytes("hostA", wireMajor))
	waitFor(t, func() bool { return len(b.Peers()) == 1 })
	b.mu.Lock()
	winner := b.conns["hostA"]
	b.mu.Unlock()

	// ...and accepts hostB's crossed dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	crossed, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer crossed.Close()

	use, err := b.adoptDial("hostA", raw)
	if err != nil {
		t.Fatal(err)
	}
	if use != winner {
		t.Fatal("hostB did not yield its dial to hostA's registered connection")
	}
	// hostB's side of the yielded socket: its hello, then end of stream.
	crossed.SetDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(crossed)
	if err != nil || !bytes.Equal(got, helloBytes("hostB", wireMajor)) {
		t.Fatalf("yielded socket carried %q, %v; want hostB's hello then EOF", got, err)
	}
	// hostA's frame on it — written before hostA learned of the yield.
	crossed.Write(wire(helloBytes("hostA", wireMajor), frameBytes([]byte("on-the-loser"))))
	crossed.Close()
	waitFor(t, func() bool { return sink.count() == 1 })
	if f := sink.all()[0]; f != "on-the-loser" {
		t.Fatalf("delivered %q", f)
	}
	waitFor(t, func() bool { // the yielded socket is reaped once hostA closes it
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.socks) == 1 && b.conns["hostA"] == winner
	})
}

// TestTCPReadLoopClosesOnProtocolViolation pins the socket-input checks:
// each stream makes the transport hang up without delivering anything
// that follows the violation.
func TestTCPReadLoopClosesOnProtocolViolation(t *testing.T) {
	hello := helloBytes("peer", wireMajor)
	ok := frameBytes([]byte("a-frame")) // longer than a hello header
	cases := []struct {
		name      string
		stream    []byte
		delivered int
	}{
		{"frame before hello", ok, 0},
		{"bad magic", wire([]byte("PRSX\x01\x00\x04peer"), ok), 0},
		{"unknown major version", wire(helloBytes("peer", wireMajor+1), ok), 0},
		{"previous major version", wire(helloBytes("peer", wireMajor-1), ok), 0},
		{"empty host", wire(helloBytes("", wireMajor), ok), 0},
		{"length above maxFrameBytes", wire(hello, ok, binary.BigEndian.AppendUint32(nil, maxFrameBytes+1), ok), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTCPTransport("srv", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			var sink frameSink
			tr.SetReceiver(sink.recv)
			conn, err := net.Dial("tcp", tr.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.Write(tc.stream)
			// The transport hangs up: our read side ends (after the
			// transport's own hello, if ours was accepted) — by end of
			// stream, or by a reset if it closed with our bytes unread.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = io.Copy(io.Discard, conn)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("connection still open after the violation")
			}
			if got := sink.count(); got != tc.delivered {
				t.Fatalf("delivered %d frames, want %d", got, tc.delivered)
			}
		})
	}
}

func TestTCPSendRejectsOversizeFrame(t *testing.T) {
	a, b := newTCPPair(t)
	var sink frameSink
	b.SetReceiver(sink.recv)
	if err := a.Send("hostB", make([]byte, maxFrameBytes+1), 0); err == nil {
		t.Fatal("oversize frame accepted")
	}
	// The refusal is the caller's error, not the link's.
	if err := a.Send("hostB", []byte("after"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 1 })
}
