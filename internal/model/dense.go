package model

import (
	"cmp"
	"slices"
)

// Dense precomputed views of a System's scoring inputs. The search
// algorithms evaluate objectives millions of times per run; going through
// the System's hash maps (Link, Reliability, Interacts) on every
// interaction dominates their inner loops. DenseSystem flattens the hot
// inputs into integer-indexed slices — host-pair reliability/bandwidth/
// delay matrices and a per-component interaction adjacency — so scoring
// does zero map lookups.
//
// The view is cached on the System and rebuilt lazily when the model
// mutates through its own methods or through a Modifier. Code that writes
// element Params directly (rather than via Modifier.Set*Param) must call
// System.Touch afterwards or the cached matrices go stale.

// DenseEdge is one positive-frequency logical link in integer component
// indices (A < B in ComponentIDs order).
type DenseEdge struct {
	A, B       int
	Freq, Size float64
}

// DenseArc is one end of a DenseEdge as seen from a component: the peer's
// index plus the link's frequency and event size.
type DenseArc struct {
	Other      int
	Freq, Size float64
}

// DenseSystem is an integer-indexed snapshot of a System's scoring
// inputs. Indices follow the sorted HostIDs/ComponentIDs orders. It is
// immutable after construction and safe for concurrent readers.
type DenseSystem struct {
	Hosts []HostID
	Comps []ComponentID

	// NH is len(Hosts); the matrices below are NH×NH row-major.
	NH int
	// Rel[i*NH+j] is the delivery probability between hosts i and j:
	// 1 on the diagonal, the link's reliability when connected, else 0.
	Rel []float64
	// BW[i*NH+j] is the bandwidth in KB/s: LocalBandwidth on the
	// diagonal, 0 when disconnected.
	BW []float64
	// Delay[i*NH+j] is the one-way delay in ms (0 local/disconnected).
	Delay []float64

	// Edges lists every logical link with positive frequency exactly once.
	Edges []DenseEdge
	// Adj[c] lists the positive-frequency links incident to component c.
	Adj [][]DenseArc
	// TotalFreq is Σ Freq over Edges (the availability denominator).
	TotalFreq float64

	hostIdx map[HostID]int
	compIdx map[ComponentID]int
	// Structural counts at build time, used as a staleness backstop.
	nLinks, nInteracts int
}

// HostIndex returns the dense index of h, or -1 if h is unknown.
func (ds *DenseSystem) HostIndex(h HostID) int {
	if i, ok := ds.hostIdx[h]; ok {
		return i
	}
	return -1
}

// CompIndex returns the dense index of c, or -1 if c is unknown.
func (ds *DenseSystem) CompIndex(c ComponentID) int {
	if i, ok := ds.compIdx[c]; ok {
		return i
	}
	return -1
}

// Assign converts a deployment into a component-index → host-index slice.
// Undeployed components (and components placed on unknown hosts) map
// to -1.
func (ds *DenseSystem) Assign(d Deployment) []int {
	assign := make([]int, len(ds.Comps))
	ds.AssignInto(assign, d)
	return assign
}

// AssignInto fills dst (which must have len(ds.Comps)) like Assign,
// without allocating.
func (ds *DenseSystem) AssignInto(dst []int, d Deployment) {
	for i, c := range ds.Comps {
		dst[i] = -1
		if h, ok := d[c]; ok {
			dst[i] = ds.HostIndex(h)
		}
	}
}

// Deployment converts an assignment slice back into a Deployment,
// skipping entries of -1.
func (ds *DenseSystem) Deployment(assign []int) Deployment {
	d := NewDeployment(len(assign))
	for i, hi := range assign {
		if hi >= 0 {
			d[ds.Comps[i]] = ds.Hosts[hi]
		}
	}
	return d
}

// Dense returns the cached dense view of the system, rebuilding it if the
// model has mutated since the last call. Safe for concurrent callers; the
// view itself is immutable.
func (s *System) Dense() *DenseSystem {
	s.denseMu.Lock()
	defer s.denseMu.Unlock()
	if s.dense != nil && s.denseEpoch == s.epoch &&
		len(s.dense.Hosts) == len(s.Hosts) &&
		len(s.dense.Comps) == len(s.Components) &&
		s.dense.nLinks == len(s.Links) &&
		s.dense.nInteracts == len(s.Interacts) {
		return s.dense
	}
	s.dense = buildDense(s)
	s.denseEpoch = s.epoch
	return s.dense
}

// Touch invalidates the cached dense view. Call it after mutating element
// Params directly (the System's own mutators and the Modifier call it for
// you).
func (s *System) Touch() {
	s.denseMu.Lock()
	s.epoch++
	s.dense = nil
	s.denseMu.Unlock()
}

func buildDense(s *System) *DenseSystem {
	ds := &DenseSystem{
		Hosts:      s.HostIDs(),
		Comps:      s.ComponentIDs(),
		nLinks:     len(s.Links),
		nInteracts: len(s.Interacts),
	}
	ds.NH = len(ds.Hosts)
	ds.hostIdx = make(map[HostID]int, ds.NH)
	for i, h := range ds.Hosts {
		ds.hostIdx[h] = i
	}
	ds.compIdx = make(map[ComponentID]int, len(ds.Comps))
	for i, c := range ds.Comps {
		ds.compIdx[c] = i
	}

	nh := ds.NH
	ds.Rel = make([]float64, nh*nh)
	ds.BW = make([]float64, nh*nh)
	ds.Delay = make([]float64, nh*nh)
	for i := 0; i < nh; i++ {
		ds.Rel[i*nh+i] = 1
		ds.BW[i*nh+i] = LocalBandwidth
	}
	for pair, l := range s.Links {
		i, iok := ds.hostIdx[pair.A]
		j, jok := ds.hostIdx[pair.B]
		if !iok || !jok {
			continue // dangling link (host removed directly)
		}
		rel, bw, delay := l.Reliability(), l.Bandwidth(), l.Delay()
		ds.Rel[i*nh+j], ds.Rel[j*nh+i] = rel, rel
		ds.BW[i*nh+j], ds.BW[j*nh+i] = bw, bw
		ds.Delay[i*nh+j], ds.Delay[j*nh+i] = delay, delay
	}

	// Edges are ordered by (A, B) index. Indices follow the sorted
	// ComponentIDs order, so this is InteractionKeys' order without
	// comparing strings: bucket the edges by A, then sort each bucket by B.
	nc := len(ds.Comps)
	raw := make([]DenseEdge, 0, len(s.Interacts))
	bucket := make([]int, nc+1) // bucket[a] is where a's edges start
	degree := make([]int, nc)
	for key, link := range s.Interacts {
		f := link.Frequency()
		if f <= 0 {
			continue // objectives skip non-positive frequencies
		}
		a, aok := ds.compIdx[key.A]
		b, bok := ds.compIdx[key.B]
		if !aok || !bok {
			continue
		}
		raw = append(raw, DenseEdge{A: a, B: b, Freq: f, Size: link.EventSize()})
		bucket[a+1]++
		degree[a]++
		degree[b]++
	}
	for a := 0; a < nc; a++ {
		bucket[a+1] += bucket[a]
	}
	ds.Edges = make([]DenseEdge, len(raw))
	next := slices.Clone(bucket[:nc])
	for _, e := range raw {
		ds.Edges[next[e.A]] = e
		next[e.A]++
	}
	for a := 0; a < nc; a++ {
		slices.SortFunc(ds.Edges[bucket[a]:bucket[a+1]], func(x, y DenseEdge) int { return cmp.Compare(x.B, y.B) })
	}

	// Every component's arcs are a window of one backing array.
	arcs := make([]DenseArc, 2*len(ds.Edges))
	ds.Adj = make([][]DenseArc, nc)
	off := 0
	for c, n := range degree {
		ds.Adj[c] = arcs[off : off : off+n]
		off += n
	}
	for _, e := range ds.Edges {
		ds.Adj[e.A] = append(ds.Adj[e.A], DenseArc{Other: e.B, Freq: e.Freq, Size: e.Size})
		ds.Adj[e.B] = append(ds.Adj[e.B], DenseArc{Other: e.A, Freq: e.Freq, Size: e.Size})
		ds.TotalFreq += e.Freq
	}
	return ds
}
