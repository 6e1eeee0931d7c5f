package prism

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// tcpFrame is the wire format of the TCP transport: a length-delimited
// gob stream of these frames per connection.
type tcpFrame struct {
	From model.HostID
	Data []byte
}

// TCPTransport carries frames between processes over real sockets with
// gob encoding — the deployment story for the framework's distributed
// instantiations (cmd/deployer and cmd/agent). Connections are dialed
// lazily and cached; inbound connections are accepted continuously until
// Close.
type TCPTransport struct {
	host model.HostID
	ln   net.Listener

	mu    sync.Mutex
	peers map[model.HostID]string // peer → address
	conns map[model.HostID]*tcpConn
	// socks tracks every live socket — registered or not — so Close can
	// unblock readLoops parked on connections that never sent a frame.
	socks  map[net.Conn]struct{}
	recv   func(from model.HostID, data []byte)
	closed bool
	wg     sync.WaitGroup

	// Frame coalescing: when batchBytes > 0, each connection's gob
	// stream runs through a bufio.Writer of that size, so back-to-back
	// frames pack into one syscall; a per-connection idle timer flushes
	// after batchFlush so a lone frame is never stranded. 0 disables
	// coalescing (every frame is its own write, the pre-batching
	// behavior). Applies to connections established after SetBatching.
	batchBytes int
	batchFlush time.Duration

	flushesC *obs.Counter
	framesC  *obs.Counter
}

type tcpConn struct {
	conn net.Conn
	enc  *gob.Encoder
	mu   sync.Mutex
	// dialed distinguishes our outbound dials from accepted inbound
	// connections when resolving simultaneous-dial duels.
	dialed bool

	// bw buffers the gob stream when coalescing is on (nil otherwise);
	// timerSet tracks whether an idle flush is already scheduled;
	// flushAfter is the idle-flush deadline captured at creation.
	bw         *bufio.Writer
	timerSet   bool
	flushAfter time.Duration
	// closed (under mu) marks a connection released by Close, dropConn,
	// or its readLoop's exit. A one-shot idle-flush timer that fires
	// after that point must not touch the buffer or socket again.
	closed bool
}

// flushLocked drains buffered frames to the socket. Caller holds c.mu.
// A flush error closes the socket; the connection's readLoop notices
// and unregisters it, so the next Send redials.
func (c *tcpConn) flushLocked() error {
	if c.bw == nil || c.bw.Buffered() == 0 {
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		c.conn.Close()
		return err
	}
	return nil
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport listens on addr (e.g. "127.0.0.1:0") for the given
// host. Use Addr to discover the bound address.
func NewTCPTransport(host model.HostID, addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp transport listen: %w", err)
	}
	t := &TCPTransport{
		host:  host,
		ln:    ln,
		peers: make(map[model.HostID]string),
		conns: make(map[model.HostID]*tcpConn),
		socks: make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Addr returns the transport's listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Host implements Transport.
func (t *TCPTransport) Host() model.HostID { return t.host }

// RetainsSendBuffers implements BufferRetainer: Send copies data into
// the connection's gob stream before returning, so callers may recycle
// their encode buffers immediately.
func (t *TCPTransport) RetainsSendBuffers() bool { return false }

// SetBatching configures frame coalescing for connections established
// from now on: frames pack into a bytes-sized write buffer flushed when
// full or after flush of send idleness. bytes 0 disables coalescing.
// Call it right after NewTCPTransport, before peers connect.
func (t *TCPTransport) SetBatching(bytes int, flush time.Duration) {
	if flush <= 0 {
		flush = DefaultBatchFlush
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batchBytes = bytes
	t.batchFlush = flush
}

// DefaultBatchFlush bounds how long a coalesced frame may sit in the
// write buffer before the idle timer pushes it out.
const DefaultBatchFlush = 2 * time.Millisecond

// Instrument registers the transport's coalescing metrics
// (prism_batch_flushes_total, prism_batch_frames_total) in reg.
func (t *TCPTransport) Instrument(reg *obs.Registry) {
	h := string(t.host)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushesC = reg.Counter(obs.Name("prism_batch_flushes_total", "host", h))
	t.framesC = reg.Counter(obs.Name("prism_batch_frames_total", "host", h))
}

// batching snapshots the coalescing configuration.
func (t *TCPTransport) batching() (int, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.batchBytes, t.batchFlush
}

// newConn wraps a socket in a tcpConn, inserting the coalescing buffer
// when batchBytes > 0.
func newConn(raw net.Conn, dialed bool, batchBytes int, batchFlush time.Duration) *tcpConn {
	c := &tcpConn{conn: raw, dialed: dialed, flushAfter: batchFlush}
	if batchBytes > 0 {
		c.bw = bufio.NewWriterSize(raw, batchBytes)
		c.enc = gob.NewEncoder(c.bw)
	} else {
		c.enc = gob.NewEncoder(raw)
	}
	return c
}

// sendFrame encodes one frame on the connection, honoring coalescing:
// with batching off the encoder writes straight to the socket; with it
// on, the frame lands in the write buffer and an idle flush is armed so
// it cannot sit longer than batchFlush.
func (t *TCPTransport) sendFrame(c *tcpConn, frame tcpFrame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("connection closed")
	}
	if err := c.enc.Encode(frame); err != nil {
		return err
	}
	if c.bw == nil {
		return nil
	}
	t.framesC.Inc()
	if c.bw.Buffered() == 0 {
		// The buffer filled mid-encode and drained to the socket; nothing
		// is stranded, no timer needed.
		return nil
	}
	if !c.timerSet {
		c.timerSet = true
		time.AfterFunc(c.flushAfter, func() {
			c.mu.Lock()
			c.timerSet = false
			if c.closed {
				// Close/dropConn already flushed (or abandoned) this
				// connection and may have released the socket; a late
				// flush here would race with its reuse elsewhere.
				c.mu.Unlock()
				return
			}
			err := c.flushLocked()
			c.mu.Unlock()
			if err == nil {
				t.flushesC.Inc()
			}
		})
	}
	return nil
}

// AddPeer registers a remote host's address for dialing.
func (t *TCPTransport) AddPeer(host model.HostID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[host] = addr
}

// Peers implements Transport: the union of configured dial targets and
// hosts with a registered live connection (agents that dialed in).
func (t *TCPTransport) Peers() []model.HostID {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[model.HostID]bool, len(t.peers)+len(t.conns))
	out := make([]model.HostID, 0, len(t.peers)+len(t.conns))
	for h := range t.peers {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for h := range t.conns {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	sortHostIDs(out)
	return out
}

// Hello dials a peer and introduces this host without sending a payload,
// registering the connection on both ends.
func (t *TCPTransport) Hello(to model.HostID) error {
	_, err := t.connTo(to)
	return err
}

// SetReceiver implements Transport.
func (t *TCPTransport) SetReceiver(recv func(from model.HostID, data []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recv = recv
}

// Send implements Transport. sizeKB is ignored — real sockets charge
// real bytes.
func (t *TCPTransport) Send(to model.HostID, data []byte, _ float64) error {
	frame := tcpFrame{From: t.host, Data: data}
	for retried := false; ; retried = true {
		conn, err := t.connTo(to)
		if err != nil {
			return err
		}
		if err = t.sendFrame(conn, frame); err == nil {
			return nil
		}
		if !retried && !t.registered(to, conn) {
			// conn was retired between connTo and the write — it lost a
			// dial duel, or its readLoop saw the peer retire it. That is
			// not a link failure: the frame belongs on the surviving
			// connection (or a fresh dial).
			continue
		}
		t.dropConn(to, conn)
		return fmt.Errorf("tcp send to %s: %w", to, err)
	}
}

// registered reports whether c is still the connection Send uses for to.
func (t *TCPTransport) registered(to model.HostID, c *tcpConn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[to] == c
}

// retire takes a connection that lost a dial duel out of service without
// cutting off what the peer may still be writing to it: buffered frames
// flush, the write side shuts, and the socket's readLoop keeps
// delivering until the peer — which retires the same socket once it
// learns of the duel — shuts its side too. Closing outright would
// silently drop (or, with unread data, reset away) frames either side
// sent before both had switched to the surviving connection.
func retire(c *tcpConn) {
	c.mu.Lock()
	_ = c.flushLocked() // a failed flush closes the socket: retired either way
	c.closed = true
	c.mu.Unlock()
	if hc, ok := c.conn.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite() // an already-dead socket needs no shutdown
	} else {
		c.conn.Close()
	}
}

func (t *TCPTransport) connTo(to model.HostID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("tcp transport closed")
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcp transport: unknown peer %s", to)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp dial %s: %w", to, err)
	}
	bytes, flush := t.batching()
	c := newConn(raw, true, bytes, flush)
	// Introduce ourselves, then read frames coming back on this
	// connection too (connections are bidirectional). The hello flushes
	// immediately — the peer must learn who we are before any idle
	// timer would fire.
	c.mu.Lock()
	err = c.enc.Encode(tcpFrame{From: t.host, Data: nil})
	if err == nil {
		err = c.flushLocked()
	}
	c.mu.Unlock()
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("tcp hello to %s: %w", to, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		raw.Close()
		return nil, errors.New("tcp transport closed")
	}
	var loser *tcpConn
	if existing, ok := t.conns[to]; ok {
		if existing.dialed || t.host > to {
			// Another local dial already won, or the duel rule says the
			// peer (lower host) keeps its dial: yield to the registered
			// connection.
			t.mu.Unlock()
			raw.Close()
			return existing, nil
		}
		// Crossed simultaneous dials and we are the lower host: our dial
		// is canonical on both sides. Retire the inbound connection.
		loser = existing
	}
	t.conns[to] = c
	t.socks[raw] = struct{}{}
	t.wg.Add(1) // under mu so Close's Wait cannot start mid-Add
	t.mu.Unlock()
	if loser != nil {
		retire(loser)
	}
	go t.readLoop(raw)
	return c, nil
}

func (t *TCPTransport) dropConn(to model.HostID, c *tcpConn) {
	t.mu.Lock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	c.mu.Lock()
	c.closed = true // disarm any pending idle-flush timer
	c.mu.Unlock()
	c.conn.Close()
}

func (t *TCPTransport) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			// Raced past Close: drop the socket instead of leaking a
			// readLoop no one will ever wait for.
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.socks[conn] = struct{}{}
		t.wg.Add(1) // under mu so Close's Wait cannot start mid-Add
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop decodes frames from one connection. The first frame from a
// given host also registers the connection for replies; on exit the
// connection is unregistered so later sends redial instead of writing to
// a dead encoder.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.socks, conn)
		var dead []*tcpConn
		for h, c := range t.conns {
			if c.conn == conn {
				delete(t.conns, h)
				dead = append(dead, c)
			}
		}
		t.mu.Unlock()
		for _, c := range dead {
			c.mu.Lock()
			c.closed = true // disarm any pending idle-flush timer
			c.mu.Unlock()
		}
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	var registered model.HostID
	for {
		var frame tcpFrame
		if err := dec.Decode(&frame); err != nil {
			return
		}
		if registered == "" && frame.From != "" {
			registered = frame.From
			t.mu.Lock()
			existing, ok := t.conns[frame.From]
			switch {
			case !ok:
				t.conns[frame.From] = newConn(conn, false, t.batchBytes, t.batchFlush)
				t.mu.Unlock()
			case existing.conn != conn && existing.dialed && frame.From < t.host:
				// Crossed simultaneous dials: the lower host's dial is
				// canonical, and this inbound connection is it. Retire our
				// own dial. (A peer replying on our own dialed socket lands
				// here with existing.conn == conn — that is not a duel and
				// the registration must stand.)
				t.conns[frame.From] = newConn(conn, false, t.batchBytes, t.batchFlush)
				t.mu.Unlock()
				retire(existing)
			default:
				t.mu.Unlock()
			}
		}
		if frame.Data == nil {
			continue // hello frame
		}
		t.mu.Lock()
		recv := t.recv
		t.mu.Unlock()
		if recv != nil {
			recv(frame.From, frame.Data)
		}
	}
}

// Close implements Transport: stops accepting, closes every live socket
// (registered or not), and waits for reader goroutines to exit.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	socks := make([]net.Conn, 0, len(t.socks))
	for c := range t.socks {
		socks = append(socks, c)
	}
	conns := make([]*tcpConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.conns = make(map[model.HostID]*tcpConn)
	t.mu.Unlock()

	// Push out coalesced frames still sitting in write buffers before
	// the sockets close under them, and mark each connection closed so a
	// one-shot idle-flush timer armed earlier cannot fire into the
	// released socket afterwards.
	for _, c := range conns {
		c.mu.Lock()
		c.flushLocked()
		c.closed = true
		c.mu.Unlock()
	}

	t.ln.Close()
	for _, c := range socks {
		c.Close()
	}
	t.wg.Wait()
	return nil
}

func sortHostIDs(ids []model.HostID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
