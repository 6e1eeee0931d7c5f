package prism

import (
	"math"
	"time"

	"dif/internal/model"
)

// peerCore is the deployer's one record of one peer and the pure state
// machine that keeps its one verdict: up, degraded, suspect or dead. It
// reads no clock: time arrives in the input, and each step returns the
// transitions for FailureDetector (liveness.go), its only shell, to
// publish. peer_explore_test.go walks it through every input sequence up
// to a bound; DESIGN.md ("Liveness, host crash, and rejoin") has the
// state × input table.
//
// Silence judges liveness (suspect after suspectAfter, dead after
// deadAfter); dead is absorbing until a strictly greater incarnation
// heartbeats, which resurrects the peer with a clean record. The health
// score judges gray failure — a peer that heartbeats but drops what it is
// sent: healthSendWeight·ewma(send outcomes) + (1−healthSendWeight)·
// mean/(mean+σ) of the heartbeat inter-arrivals (1 until two exist). A
// grade applies the hysteresis band between degradeBelow and recoverAbove.
type peerCore struct {
	host                    model.HostID
	suspectAfter, deadAfter time.Duration

	inc      uint64
	verdict  HostState
	heard    time.Time                   // last heartbeat; zero before the first
	gaps     [healthWindow]time.Duration // inter-arrivals, newest first
	ngaps    int
	ewma     float64 // send outcomes, 1 = landed; 1 until the first
	sent     bool    // ewma holds an outcome
	degraded bool    // the band's side; a lapse to suspect clears it on return
}

const (
	healthAlpha      = 0.3 // EWMA weight of the newest send outcome
	healthSendWeight = 0.7
	degradeBelow     = 0.5
	recoverAbove     = 0.8
	healthWindow     = 16
)

type peerInputKind uint8

const (
	peerBeat  peerInputKind = iota // a heartbeat of inc, arriving at
	peerSent                       // a control send's outcome, ok or not
	peerTick                       // judge silence at at
	peerGrade                      // apply the band at at
)

type peerInput struct {
	kind peerInputKind
	at   time.Time
	inc  uint64
	ok   bool
}

func newPeerCore(host model.HostID, suspectAfter, deadAfter time.Duration) peerCore {
	return peerCore{host: host, suspectAfter: suspectAfter, deadAfter: deadAfter, ewma: 1}
}

func (p *peerCore) step(in peerInput) []Transition {
	switch in.kind {
	case peerBeat:
		return p.heartbeat(in.inc, in.at)
	case peerSent:
		v := 0.0
		if in.ok {
			v = 1
		}
		switch {
		case p.verdict == HostDead: // the resurrection resets the record anyway
		case p.sent:
			p.ewma = (1-healthAlpha)*p.ewma + healthAlpha*v
		default:
			p.ewma, p.sent = v, true
		}
	case peerTick:
		if p.verdict == HostUnknown || p.verdict == HostDead {
			return nil
		}
		switch silent := in.at.Sub(p.heard); {
		case silent >= p.deadAfter:
			return p.to(HostDead, in.at)
		case silent >= p.suspectAfter && p.verdict != HostSuspect:
			return p.to(HostSuspect, in.at)
		}
	case peerGrade:
		switch s := p.score(); {
		case p.verdict == HostUp && !p.degraded && s < degradeBelow:
			p.degraded = true
			return p.to(HostDegraded, in.at)
		case p.verdict == HostDegraded && s > recoverAbove:
			p.degraded = false
			return p.to(HostUp, in.at)
		}
	}
	return nil
}

// heartbeat hears the peer: a dead one only from a strictly greater
// incarnation (anything else replays the dead lifetime), with a clean
// record. A suspect peer is up again, its degraded flag gone with the
// lapse; an unknown one is up silently.
func (p *peerCore) heartbeat(inc uint64, at time.Time) []Transition {
	from := p.verdict
	if from == HostDead {
		if inc <= p.inc {
			return nil
		}
		*p = newPeerCore(p.host, p.suspectAfter, p.deadAfter)
		p.verdict = HostDead // until the transition below
	}
	p.inc = max(p.inc, inc)
	if p.heard.Before(at) {
		if !p.heard.IsZero() {
			copy(p.gaps[1:], p.gaps[:])
			p.gaps[0] = at.Sub(p.heard)
			p.ngaps = min(p.ngaps+1, healthWindow)
		}
		p.heard = at
	}
	switch from {
	case HostUnknown:
		p.verdict = HostUp
	case HostSuspect, HostDead:
		p.degraded = false
		return p.to(HostUp, at)
	}
	return nil
}

func (p *peerCore) to(v HostState, at time.Time) []Transition {
	tr := Transition{Host: p.host, From: p.verdict, To: v, Incarnation: p.inc, At: at}
	p.verdict = v
	return []Transition{tr}
}

// score blends the send EWMA with heartbeat regularity.
func (p *peerCore) score() float64 {
	reg := 1.0
	if n := float64(p.ngaps); n >= 2 {
		var sum, sq float64
		for _, g := range p.gaps[:p.ngaps] {
			sum += float64(g)
		}
		mean := sum / n
		for _, g := range p.gaps[:p.ngaps] {
			sq += (float64(g) - mean) * (float64(g) - mean)
		}
		if sigma := math.Sqrt(sq / n); mean+sigma > 0 {
			reg = mean / (mean + sigma)
		}
	}
	return healthSendWeight*p.ewma + (1-healthSendWeight)*reg
}
