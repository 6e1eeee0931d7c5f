package prism

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dif/internal/model"
	"dif/internal/netsim"
	"dif/internal/obs"
)

// Transport carries encoded events between hosts. Implementations:
// NetsimTransport (simulated fabric) and TCPTransport (real sockets).
type Transport interface {
	// Host returns the local host ID.
	Host() model.HostID
	// Peers returns the remote hosts this transport can currently reach,
	// sorted.
	Peers() []model.HostID
	// Send transmits an encoded frame. sizeKB is the modeled payload
	// size for network accounting (simulated transports charge it
	// against link bandwidth).
	Send(to model.HostID, data []byte, sizeKB float64) error
	// SetReceiver installs the inbound frame callback. Frames received
	// before a receiver is set are dropped. data is valid only for the
	// duration of the call: a transport may reuse it for the next frame
	// (TCPTransport does), so a receiver that keeps bytes past its
	// return copies them. DecodeEvent already does — its binary decoder
	// clones blobs and interns strings, and gob copies.
	SetReceiver(recv func(from model.HostID, data []byte))
	// Close releases the transport's resources.
	Close() error
}

// NetsimTransport adapts a netsim.Fabric endpoint to the Transport
// interface.
type NetsimTransport struct {
	fabric *netsim.Fabric
	host   model.HostID

	mu   sync.RWMutex
	recv func(from model.HostID, data []byte)
}

var _ Transport = (*NetsimTransport)(nil)

// NewNetsimTransport binds the given (already registered) fabric host.
// It replaces the host's fabric handler.
func NewNetsimTransport(fabric *netsim.Fabric, host model.HostID) (*NetsimTransport, error) {
	t := &NetsimTransport{fabric: fabric, host: host}
	if err := fabric.SetHandler(host, t.onMessage); err != nil {
		return nil, fmt.Errorf("netsim transport: %w", err)
	}
	return t, nil
}

func (t *NetsimTransport) onMessage(m netsim.Message) {
	data, ok := m.Payload.([]byte)
	if !ok {
		return
	}
	t.mu.RLock()
	recv := t.recv
	t.mu.RUnlock()
	if recv != nil {
		recv(m.From, data)
	}
}

// Host implements Transport.
func (t *NetsimTransport) Host() model.HostID { return t.host }

// Peers implements Transport: the hosts linked to this one on the fabric.
func (t *NetsimTransport) Peers() []model.HostID {
	var out []model.HostID
	for _, h := range t.fabric.Hosts() {
		if h == t.host {
			continue
		}
		if _, ok := t.fabric.Link(t.host, h); ok {
			out = append(out, h)
		}
	}
	return out
}

// Send implements Transport.
func (t *NetsimTransport) Send(to model.HostID, data []byte, sizeKB float64) error {
	_, err := t.fabric.Send(t.host, to, sizeKB, data)
	return err
}

// SetReceiver implements Transport.
func (t *NetsimTransport) SetReceiver(recv func(from model.HostID, data []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recv = recv
}

// Close implements Transport. The fabric itself is shared and stays up.
func (t *NetsimTransport) Close() error {
	return t.fabric.SetHandler(t.host, nil)
}

// PeerStats tracks probe traffic toward one remote distribution
// connector, feeding the reliability estimate.
type PeerStats struct {
	Sent      int
	Delivered int
}

// Reliability returns the observed delivery ratio (1 when unprobed).
func (p PeerStats) Reliability() float64 {
	if p.Sent == 0 {
		return 1
	}
	return float64(p.Delivered) / float64(p.Sent)
}

// DistributionConnector extends a Connector across host boundaries
// (Prism-MW's DistributionConnector): events routed through it are also
// forwarded to remote peers over the transport, and events arriving from
// peers are routed into the local architecture. It additionally keeps
// per-peer probe statistics for NetworkReliabilityMonitor.
type DistributionConnector struct {
	*Connector
	host      model.HostID
	transport Transport

	mu    sync.Mutex
	stats map[model.HostID]*PeerStats

	// delivery is the application-event delivery-guarantee layer
	// (sequence stamping, acks, retransmission, relocation bounces).
	delivery *appDelivery

	// poolSafe is true when the transport declared (via BufferRetainer)
	// that Send does not retain the data slice, so encode scratch
	// buffers can be recycled the moment Send returns.
	poolSafe bool

	// admission, when enabled, interposes the bounded class-prioritized
	// receive queue between frame decode and dispatch. Atomic so the
	// per-frame receive path reads it without taking mu.
	admission atomic.Pointer[AdmissionController]

	// obsReg remembers the registry from the last instrument call so a
	// later-enabled admission controller can attach its metrics.
	obsReg *obs.Registry

	// instr holds the transport-level metric handles; nil handles (before
	// instrument is called) no-op.
	instr struct {
		framesSent *obs.Counter
		bytesSent  *obs.Counter
		framesRecv *obs.Counter
		bytesRecv  *obs.Counter
		sendErrs   *obs.Counter
		encBin     *obs.Counter
		encGob     *obs.Counter
		decBin     *obs.Counter
		decGob     *obs.Counter
	}
}

// NewDistributionConnector wires a distribution connector to a transport.
// Prefer Architecture.AddDistributionConnector, which also registers it.
func NewDistributionConnector(name string, host model.HostID, scaffold *Scaffold, transport Transport) *DistributionConnector {
	dc := newDistributionConnector(name, host, scaffold, transport)
	transport.SetReceiver(dc.onFrame)
	return dc
}

// newDistributionConnector builds the connector without opening the
// receive path: frames flow only once the caller installs onFrame.
func newDistributionConnector(name string, host model.HostID, scaffold *Scaffold, transport Transport) *DistributionConnector {
	dc := &DistributionConnector{
		Connector: NewConnector(name, scaffold),
		host:      host,
		transport: transport,
		stats:     make(map[model.HostID]*PeerStats),
	}
	if br, ok := transport.(BufferRetainer); ok {
		dc.poolSafe = !br.RetainsSendBuffers()
	}
	dc.Connector.host = host
	dc.Connector.forward = dc.forwardRemote
	dc.delivery = newAppDelivery(host)
	dc.Connector.stamp = dc.stamp
	dc.Connector.onDeliver = dc.onDeliver
	dc.Connector.onUndeliverable = dc.onUndeliverable
	return dc
}

// Transport returns the underlying transport.
func (dc *DistributionConnector) Transport() Transport { return dc.transport }

// instrument registers the connector's frame and byte counters, labelled
// by host, in reg (called via Architecture.SetObservability).
func (dc *DistributionConnector) instrument(reg *obs.Registry, host model.HostID) {
	h := string(host)
	dc.mu.Lock()
	dc.obsReg = reg
	adm := dc.admission.Load()
	dc.instr.framesSent = reg.Counter(obs.Name("prism_transport_frames_sent_total", "host", h))
	dc.instr.bytesSent = reg.Counter(obs.Name("prism_transport_bytes_sent_total", "host", h))
	dc.instr.framesRecv = reg.Counter(obs.Name("prism_transport_frames_recv_total", "host", h))
	dc.instr.bytesRecv = reg.Counter(obs.Name("prism_transport_bytes_recv_total", "host", h))
	dc.instr.sendErrs = reg.Counter(obs.Name("prism_transport_send_errors_total", "host", h))
	dc.instr.encBin = reg.Counter(obs.Name("prism_codec_encode_total", "codec", "binary", "host", h))
	dc.instr.encGob = reg.Counter(obs.Name("prism_codec_encode_total", "codec", "gob", "host", h))
	dc.instr.decBin = reg.Counter(obs.Name("prism_codec_decode_total", "codec", "binary", "host", h))
	dc.instr.decGob = reg.Counter(obs.Name("prism_codec_decode_total", "codec", "gob", "host", h))
	dc.mu.Unlock()
	if adm != nil {
		adm.instrument(reg, h)
	}
	dc.delivery.instrument(reg, h)
	dc.Connector.mu.Lock()
	dc.Connector.heldGauge = reg.Gauge(obs.Name("prism_app_held", "host", h))
	dc.Connector.spilledC = reg.Counter(obs.Name("prism_app_spilled_total", "host", h))
	dc.Connector.mu.Unlock()
}

// encodeFrame encodes an outbound event. Binary-encodable events on a
// non-retaining transport encode into a pooled scratch buffer — the
// caller must putEncBuf(pooled) after its last Send returns — except
// control frames, whose component state would bloat the pool: they get
// one right-sized allocation. pooled is nil when the frame owns its
// allocation.
func (dc *DistributionConnector) encodeFrame(e Event) (data []byte, pooled *[]byte, err error) {
	if kind, ok := binaryPayloadKind(e.Payload); ok {
		dc.instr.encBin.Inc()
		if dc.poolSafe && kind != payControl {
			pooled = getEncBuf()
			*pooled, err = AppendEvent(*pooled, e)
			if err != nil {
				putEncBuf(pooled)
				return nil, nil, err
			}
			return *pooled, pooled, nil
		}
		data, err = AppendEvent(make([]byte, 0, binarySizeHint(e)), e)
		return data, nil, err
	}
	dc.instr.encGob.Inc()
	data, err = encodeEventGob(e)
	return data, nil, err
}

// forwardRemote ships a locally originated event to its remote audience.
func (dc *DistributionConnector) forwardRemote(e Event) {
	e.SrcHost = dc.host
	data, pooled, err := dc.encodeFrame(e)
	if err != nil {
		return // unencodable payloads stay local
	}
	if pooled != nil {
		defer putEncBuf(pooled)
	}
	if e.DstHost != "" {
		if e.DstHost != dc.host {
			dc.sendTracked(e.DstHost, data, e.EffectiveSizeKB())
		}
		return
	}
	// A stamped event whose target location is known unicasts there; the
	// bounded retransmitter falls back to broadcast if the hint is stale.
	if e.Seq != 0 && e.Target != "" && e.kind() == KindApplication {
		if hint := dc.locationHint(e.Target); hint != "" && hint != dc.host {
			dc.sendTracked(hint, data, e.EffectiveSizeKB())
			return
		}
	}
	for _, peer := range dc.transport.Peers() {
		dc.sendTracked(peer, data, e.EffectiveSizeKB())
	}
}

// sendTracked transmits a frame and records the outcome in the peer's
// probe statistics. A failed send is not queued here: stamped
// application events sit in the send window until acked, and the control
// plane has its own retransmission.
func (dc *DistributionConnector) sendTracked(to model.HostID, data []byte, sizeKB float64) {
	err := dc.transport.Send(to, data, sizeKB)
	dc.mu.Lock()
	st, ok := dc.stats[to]
	if !ok {
		st = &PeerStats{}
		dc.stats[to] = st
	}
	st.Sent++
	if err == nil {
		st.Delivered++
	}
	dc.instr.framesSent.Inc()
	dc.instr.bytesSent.Add(float64(len(data)))
	if err != nil {
		dc.instr.sendErrs.Inc()
	}
	dc.mu.Unlock()
}

// onFrame decodes an inbound remote frame and hands it to dispatch —
// directly, or through the admission controller when overload
// protection is enabled.
func (dc *DistributionConnector) onFrame(from model.HostID, data []byte) {
	dc.instr.framesRecv.Inc()
	dc.instr.bytesRecv.Add(float64(len(data)))
	e, err := DecodeEvent(data)
	if err != nil {
		return
	}
	if data[0] == binTag {
		dc.instr.decBin.Inc()
	} else {
		dc.instr.decGob.Inc()
	}
	e.SrcHost = from
	if adm := dc.admission.Load(); adm != nil {
		adm.Enqueue(e)
		return
	}
	dc.dispatch(e)
}

// EnableAdmission interposes a bounded, class-prioritized admission
// controller on the receive path (see admission.go) and returns it so
// the owner can drain (manual mode) or Close it. Metrics registered via
// instrument before this call are attached immediately; otherwise they
// attach at the next SetObservability.
func (dc *DistributionConnector) EnableAdmission(cfg AdmissionConfig) *AdmissionController {
	adm := newAdmissionController(cfg, dc.dispatch)
	dc.mu.Lock()
	dc.admission.Store(adm)
	reg := dc.obsReg
	dc.mu.Unlock()
	if reg != nil {
		adm.instrument(reg, string(dc.host))
	}
	return adm
}

// Admission returns the active admission controller (nil when disabled).
func (dc *DistributionConnector) Admission() *AdmissionController {
	return dc.admission.Load()
}

// dispatch consumes delivery-guarantee protocol frames and routes
// everything else into the local architecture.
func (dc *DistributionConnector) dispatch(e Event) {
	// Delivery-guarantee protocol frames are consumed here; they never
	// reach the local audience.
	if e.Kind == KindControl {
		switch e.Name {
		case EvAppAckBatch:
			if b, ok := e.Payload.(AppAckBatch); ok {
				dc.handleAppAckBatch(b)
			}
			return
		case EvAppBounce:
			if b, ok := e.Payload.(AppBounce); ok {
				dc.handleAppBounce(b)
			}
			return
		}
	}
	dc.Connector.Route(e)
}

// PingN probes a peer with n reliability-measurement events (the paper's
// "common pinging technique") and returns the observed delivery ratio
// for just those probes.
func (dc *DistributionConnector) PingN(peer model.HostID, n int) float64 {
	before := dc.PeerStats(peer)
	e := Event{Name: "prism.ping", Kind: KindPing, SizeKB: 0.1, SrcHost: dc.host, DstHost: peer}
	data, err := EncodeEvent(e)
	if err != nil {
		return 0
	}
	for i := 0; i < n; i++ {
		dc.sendTracked(peer, data, e.SizeKB)
	}
	after := dc.PeerStats(peer)
	sent := after.Sent - before.Sent
	if sent == 0 {
		return 0
	}
	return float64(after.Delivered-before.Delivered) / float64(sent)
}

// PeerStats returns a snapshot of the probe statistics toward a peer.
func (dc *DistributionConnector) PeerStats(peer model.HostID) PeerStats {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if st, ok := dc.stats[peer]; ok {
		return *st
	}
	return PeerStats{}
}

// Reliabilities returns the observed delivery ratio per probed peer.
func (dc *DistributionConnector) Reliabilities() map[model.HostID]float64 {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	out := make(map[model.HostID]float64, len(dc.stats))
	for peer, st := range dc.stats {
		out[peer] = st.Reliability()
	}
	return out
}

// ResetPeerStats clears probe statistics (start of a monitoring window).
func (dc *DistributionConnector) ResetPeerStats() {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	dc.stats = make(map[model.HostID]*PeerStats)
}

// Peers returns the transport's reachable hosts, sorted.
func (dc *DistributionConnector) Peers() []model.HostID {
	peers := dc.transport.Peers()
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}
