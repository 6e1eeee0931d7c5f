package prism

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dif/internal/model"
	"dif/internal/obs"
)

// Wire format, per direction of a connection: one hello, then frames.
//
//	hello:  "PRSM" | major u8 | minor u8 | hostLen u8 | host
//	frame:  length u32 (big-endian) | length bytes
//
// The hello names the sending host once, so frames carry no envelope.
// Whoever creates a tcpConn on a socket — the dialer, or the accepting
// side registering it for replies — queues it ahead of its first frame.
const (
	helloMagic = "PRSM"
	// wireMajor 2: wave and lease control frames are binary (codec.go's
	// control family) — a v1 peer would fail on every one of them, so it
	// is refused at hello instead. A reader hangs up on any other major.
	wireMajor = 2
	wireMinor = 0 // informational
	// maxFrameBytes bounds what the reader allocates on a length prefix's
	// say-so; Send refuses larger frames rather than have the peer hang up.
	maxFrameBytes = 16 << 20
	// defaultHighWater is SetBatching's default, and the read buffer size.
	defaultHighWater = 64 << 10
	// drainTimeout bounds a drain against a peer that has stopped reading.
	drainTimeout = time.Second
)

// TCPTransport carries frames between processes over real sockets — the
// deployment story for the framework's distributed instantiations
// (cmd/deployer and cmd/agent). Connections are dialed lazily and
// cached; inbound connections are accepted continuously until Close.
type TCPTransport struct {
	host model.HostID
	ln   net.Listener

	mu    sync.Mutex
	peers map[model.HostID]string // peer → address
	conns map[model.HostID]*tcpConn
	// dialing holds, per peer, the channel closed when the one dial in
	// flight toward it settles: two local dials to one peer would be a
	// duel the peer may settle the other way, keeping the socket we retire.
	dialing map[model.HostID]chan struct{}
	// socks tracks every live socket — registered or not — so Close can
	// unblock readLoops parked on connections that never sent a frame,
	// with its write side if it has one (registered, or retired and
	// still draining), so the readLoop closes the socket only after it.
	socks  map[net.Conn]*tcpConn
	closed bool
	wg     sync.WaitGroup // accept, every readLoop, every writeLoop

	// recv is loaded once per frame by every readLoop, outside mu.
	recv atomic.Pointer[func(from model.HostID, data []byte)]

	// Snapshotted by each connection when it is created.
	highWater int
	flushesC  *obs.Counter
	framesC   *obs.Counter
}

// tcpConn is the write side of one socket. Send appends frames to
// pending; writeLoop swaps the buffer out and puts all of it on the
// socket in one Write, so what accumulates during a Write leaves in the
// next: an idle link flushes after one goroutine hand-off, a busy link
// batches by itself, and one buffer with one writer keeps order FIFO.
type tcpConn struct {
	conn net.Conn
	// dialed distinguishes our outbound dials from accepted inbound
	// connections when resolving simultaneous-dial duels.
	dialed    bool
	highWater int
	flushesC  *obs.Counter
	framesC   *obs.Counter

	mu      sync.Mutex
	wake    sync.Cond // writeLoop waits here for frames or closed
	room    sync.Cond // senders wait here at the high-water mark
	pending []byte
	// closed stops admission and err says why: drain, or a failed Write.
	// done closes when writeLoop has exited.
	closed bool
	err    error
	done   chan struct{}
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport listens on addr (e.g. "127.0.0.1:0") for the given
// host. Use Addr to discover the bound address.
func NewTCPTransport(host model.HostID, addr string) (*TCPTransport, error) {
	if len(host) == 0 || len(host) > 255 {
		return nil, fmt.Errorf("tcp transport: host ID must be 1..255 bytes, got %d", len(host))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp transport listen: %w", err)
	}
	t := &TCPTransport{
		host:      host,
		ln:        ln,
		peers:     make(map[model.HostID]string),
		conns:     make(map[model.HostID]*tcpConn),
		dialing:   make(map[model.HostID]chan struct{}),
		socks:     make(map[net.Conn]*tcpConn),
		highWater: defaultHighWater,
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
// the connection's pending buffer before returning, so callers may
// recycle their encode buffers immediately.
func (t *TCPTransport) RetainsSendBuffers() bool { return false }

// SetBatching sets the high-water mark of the pending buffer for
// connections established from now on: Send blocks while a connection
// holds that many unwritten bytes. bytes 0 means 64 KiB. flush is
// accepted and ignored — coalescing is clocked by the socket, not by a
// timer. Call it right after NewTCPTransport, before peers connect.
func (t *TCPTransport) SetBatching(bytes int, flush time.Duration) {
	if bytes <= 0 {
		bytes = defaultHighWater
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.highWater = bytes
}

// Instrument registers prism_batch_flushes_total (socket writes) and
// prism_batch_frames_total (the frames they carried) in reg. Call it
// right after NewTCPTransport, before peers connect.
func (t *TCPTransport) Instrument(reg *obs.Registry) {
	h := string(t.host)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushesC = reg.Counter(obs.Name("prism_batch_flushes_total", "host", h))
	t.framesC = reg.Counter(obs.Name("prism_batch_frames_total", "host", h))
}

// newConnLocked wraps a socket in a tcpConn with this host's hello
// pending, records it as the socket's write side, and starts its
// writeLoop. Caller holds t.mu, so the wg.Add cannot race Close's Wait,
// and has checked !t.closed or holds a count.
func (t *TCPTransport) newConnLocked(raw net.Conn, dialed bool) *tcpConn {
	c := &tcpConn{
		conn: raw, dialed: dialed, highWater: t.highWater,
		flushesC: t.flushesC, framesC: t.framesC,
		done: make(chan struct{}),
	}
	c.wake.L, c.room.L = &c.mu, &c.mu
	c.pending = append(c.pending, helloMagic...)
	c.pending = append(c.pending, wireMajor, wireMinor, byte(len(t.host)))
	c.pending = append(c.pending, t.host...)
	t.socks[raw] = c
	t.wg.Add(1)
	go c.writeLoop(&t.wg)
	return c
}

// send queues one frame. It blocks at the high-water mark (a frame larger
// than the mark is admitted once the buffer is empty) and fails once the
// connection is closed, with the socket error if a write caused that.
func (c *tcpConn) send(data []byte) error {
	c.mu.Lock()
	for !c.closed && len(c.pending) > 0 && len(c.pending)+4+len(data) > c.highWater {
		c.room.Wait()
	}
	if c.closed {
		defer c.mu.Unlock()
		return c.err
	}
	c.pending = binary.BigEndian.AppendUint32(c.pending, uint32(len(data)))
	c.pending = append(c.pending, data...)
	c.mu.Unlock()
	c.wake.Signal() // a no-op unless the writer is parked on an empty buffer
	c.framesC.Inc()
	return nil
}

// writeLoop is the connection's only writer. It exits once the
// connection is closed and drained, or when a Write fails — which closes
// the socket, so the readLoop unregisters it and the next Send redials.
func (c *tcpConn) writeLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf []byte
	for {
		for len(c.pending) == 0 && !c.closed {
			c.wake.Wait()
		}
		if len(c.pending) == 0 {
			return
		}
		if cap(buf) > 2*c.highWater {
			buf = nil // do not pin an oversized frame's buffer
		}
		buf, c.pending = c.pending, buf[:0]
		c.room.Broadcast()
		c.mu.Unlock()
		_, err := c.conn.Write(buf)
		c.mu.Lock()
		if err != nil {
			c.closed, c.err, c.pending = true, err, nil
			c.room.Broadcast()
			c.conn.Close()
			return
		}
		c.flushesC.Inc()
	}
}

// drain stops admission, failing senders blocked at the high-water mark,
// and returns once writeLoop has put every pending frame on the socket
// (or failed to: a closed socket fails at once) and exited.
func (c *tcpConn) drain() {
	c.mu.Lock()
	if !c.closed {
		c.closed, c.err = true, errors.New("connection closed")
	}
	c.wake.Signal()
	c.room.Broadcast()
	c.mu.Unlock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(drainTimeout)) // fails only on a closed socket
	<-c.done
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
	out := make([]model.HostID, 0, len(t.peers)+len(t.conns))
	for h := range t.peers {
		out = append(out, h)
	}
	for h := range t.conns {
		if _, ok := t.peers[h]; !ok {
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
	t.recv.Store(&recv)
}

// Send implements Transport. sizeKB is ignored — real sockets charge
// real bytes.
func (t *TCPTransport) Send(to model.HostID, data []byte, _ float64) error {
	if len(data) > maxFrameBytes {
		return fmt.Errorf("tcp send to %s: frame of %d bytes exceeds the %d-byte limit", to, len(data), maxFrameBytes)
	}
	for retried := false; ; retried = true {
		conn, err := t.connTo(to)
		if err != nil {
			return err
		}
		if err = conn.send(data); err == nil {
			return nil
		}
		t.mu.Lock()
		retired := t.conns[to] != conn
		t.mu.Unlock()
		if retired && !retried {
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

// retire takes a connection that lost a dial duel out of service without
// cutting off what the peer may still be writing to it: pending frames
// drain, the write side shuts, and the socket's readLoop keeps
// delivering until the peer — which retires the same socket once it
// learns of the duel — shuts its side too. Closing outright would drop
// (or reset away) frames sent before both sides had switched over.
func retire(c *tcpConn) {
	c.drain() // a failed write closes the socket: retired either way
	if hc, ok := c.conn.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite() // an already-dead socket needs no shutdown
	} else {
		c.conn.Close()
	}
}

// connTo returns the registered connection to a peer, dialing one if
// there is none. A caller that finds a dial already in flight waits for
// it rather than dial too.
func (t *TCPTransport) connTo(to model.HostID) (*tcpConn, error) {
	t.mu.Lock()
	for {
		if t.closed {
			t.mu.Unlock()
			return nil, errors.New("tcp transport closed")
		}
		if c, ok := t.conns[to]; ok {
			t.mu.Unlock()
			return c, nil
		}
		wait, ok := t.dialing[to]
		if !ok {
			break
		}
		t.mu.Unlock()
		<-wait
		t.mu.Lock()
	}
	addr, ok := t.peers[to]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp transport: unknown peer %s", to)
	}
	settled := make(chan struct{})
	t.dialing[to] = settled
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.dialing, to)
		t.mu.Unlock()
		close(settled)
	}()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp dial %s: %w", to, err)
	}
	return t.adoptDial(to, raw)
}

// adoptDial registers a freshly dialed socket as the connection to to,
// or settles the duel if the peer's crossed dial was registered while
// ours was in flight.
func (t *TCPTransport) adoptDial(to model.HostID, raw net.Conn) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		raw.Close()
		return nil, errors.New("tcp transport closed")
	}
	// The hello is pending on c from birth; frames coming back on the
	// socket are read too, since connections are bidirectional.
	c := t.newConnLocked(raw, true)
	t.wg.Add(1) // under mu so Close's Wait cannot start mid-Add
	// A connection registered while the dial was in flight is the peer's
	// crossed dial (connTo keeps our own dials to one at a time). The
	// lower host's dial is canonical on both sides: with us the lower
	// host the inbound one loses; otherwise we yield, and since the peer
	// may register this socket off our hello and write to it before it
	// learns that, it is retired like any loser, not closed.
	use, loser := c, t.conns[to]
	if loser != nil && t.host > to {
		use, loser = loser, c
	}
	t.conns[to] = use
	t.mu.Unlock()
	go t.readLoop(raw)
	if loser != nil {
		retire(loser)
	}
	return use, nil
}

// dropConn unregisters a connection whose link failed and closes its
// socket without draining; senders blocked on it fail.
func (t *TCPTransport) dropConn(to model.HostID, c *tcpConn) {
	t.mu.Lock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	c.conn.Close()
	c.drain()
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
		t.socks[conn] = nil // no write side until its hello registers it
		t.wg.Add(1)         // under mu so Close's Wait cannot start mid-Add
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop reads one connection: the peer's hello, which also registers
// the connection for replies, then frames until the stream ends or
// breaks protocol. On exit the connection is unregistered so later
// sends redial.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		w := t.socks[conn]
		delete(t.socks, conn)
		for h, c := range t.conns {
			if c.conn == conn {
				delete(t.conns, h)
			}
		}
		t.mu.Unlock()
		if w != nil {
			// A peer that only shut its write side (retire) is still
			// reading: frames admitted before now must reach it, whether
			// this socket's writer is registered or was itself retired and
			// is still draining.
			w.drain()
		}
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, defaultHighWater)
	// Anything but a well-formed hello at the head of the stream — a
	// frame before hello included — ends the connection.
	var hello [7]byte // magic[4], major, minor, hostLen
	if _, err := io.ReadFull(br, hello[:]); err != nil ||
		string(hello[:4]) != helloMagic || hello[4] != wireMajor || hello[6] == 0 {
		return
	}
	host := make([]byte, hello[6])
	if _, err := io.ReadFull(br, host); err != nil {
		return
	}
	from := model.HostID(host)
	// Crossed simultaneous dials: the lower host's dial is canonical, and
	// this inbound connection is it, so our own dial is retired. (A peer
	// replying on our own dialed socket has existing.conn == conn — that
	// is not a duel and the registration must stand.)
	// A socket has at most one writer: our own dial keeps the one it was
	// born with.
	t.mu.Lock()
	existing, ok := t.conns[from]
	duel := ok && existing.conn != conn && existing.dialed && from < t.host
	if !ok || duel {
		w := t.socks[conn]
		if w == nil {
			w = t.newConnLocked(conn, false)
		}
		t.conns[from] = w
	}
	t.mu.Unlock()
	if duel {
		retire(existing)
	}
	var hdr [4]byte
	// One frame buffer per connection, grown to its largest frame: the
	// receiver must not keep data past its call (see SetReceiver).
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrameBytes {
			return
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		data := buf[:n]
		if _, err := io.ReadFull(br, data); err != nil {
			return
		}
		if recv := t.recv.Load(); recv != nil && *recv != nil {
			(*recv)(from, data)
		}
	}
}

// Close implements Transport: stops accepting, drains every registered
// connection, closes every live socket (registered or not), and waits
// for the reader and writer goroutines.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[model.HostID]*tcpConn)
	t.mu.Unlock()

	for _, c := range conns {
		c.drain()
	}
	t.ln.Close()
	t.mu.Lock()
	for sock := range t.socks {
		sock.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

func sortHostIDs(ids []model.HostID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
