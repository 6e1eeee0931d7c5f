package model

import (
	"cmp"
	"slices"
)

// Dense precomputed views of a System's scoring inputs. The search
// algorithms evaluate objectives millions of times per run; finding each
// interaction's link by its ID pair (Link, Reliability, Interacts) would
// dominate their inner loops. DenseSystem flattens the hot inputs into
// integer-indexed slices — host-pair reliability/bandwidth/delay matrices
// and a per-component interaction adjacency — so scoring does zero map
// lookups.
//
// The view is cached on the System in two parts. Its shape — the sorted
// IDs, their indices, and each link's and interaction's index pair and
// element — is rebuilt only when an element is added or removed through
// the System's methods or a Modifier. Its values — the matrices, Edges,
// Adj and TotalFreq — are re-read from the shape's elements after any
// mutation; each parameter they need has a fixed slot in its element's
// Params, so the re-read is a field load per value and hashes nothing.
// Code that writes element Params directly (rather than via
// Modifier.Set*Param) must call System.Touch afterwards or the cached
// values go stale.

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
	sh := s.currentShape()
	if s.dense == nil {
		s.dense = sh.values()
	}
	return s.dense
}

// currentShape returns the cached shape, rebuilding it (and dropping the
// values) if elements were added or removed. The caller holds denseMu.
func (s *System) currentShape() *denseShape {
	if s.shape == nil || !s.shape.current(s) {
		s.shape = buildShape(s)
		s.dense = nil
	}
	return s.shape
}

// hostIDsWhere returns the IDs of the hosts for which keep holds, in
// sorted order (nil when none does). It walks the shape's sorted host
// list and reads each host live, so marking a host down, up or degraded
// needs no rebuild and nothing is sorted.
func (s *System) hostIDsWhere(keep func(HostID, *Host) bool) []HostID {
	s.denseMu.Lock()
	sh := s.currentShape()
	s.denseMu.Unlock()
	var out []HostID
	for i, h := range sh.hostElems {
		if keep(sh.hosts[i], h) {
			if out == nil {
				out = make([]HostID, 0, len(sh.hosts)-i)
			}
			out = append(out, sh.hosts[i])
		}
	}
	return out
}

// Touch invalidates the cached dense values. Call it after mutating
// element Params directly (the System's own mutators and the Modifier
// call it for you).
func (s *System) Touch() {
	s.denseMu.Lock()
	s.dense = nil
	s.denseMu.Unlock()
}

// reshape invalidates the whole cached dense view; the mutators that add
// or remove elements call it.
func (s *System) reshape() {
	s.denseMu.Lock()
	s.shape, s.dense = nil, nil
	s.denseMu.Unlock()
}

// denseShape is the part of the dense view that only adding or removing
// elements changes.
type denseShape struct {
	hosts []HostID
	// hostElems[i] is hosts[i]'s element, which hostIDsWhere reads.
	hostElems []*Host
	comps     []ComponentID
	hostIdx   map[HostID]int
	compIdx   map[ComponentID]int
	links     []shapeLink
	// inters holds every interaction between known components, ordered
	// by (A, B) index whatever its frequency: a monitor write can take a
	// frequency from 0 to positive without reshaping.
	inters []shapeInteraction
	// Structural counts at build time, used as a staleness backstop.
	nLinks, nInteracts int
}

type shapeLink struct {
	i, j int
	l    *PhysicalLink
}

type shapeInteraction struct {
	a, b int
	l    *LogicalLink
}

// current reports whether the system still has the element counts the
// shape was built from.
func (sh *denseShape) current(s *System) bool {
	return len(sh.hosts) == len(s.Hosts) &&
		len(sh.comps) == len(s.Components) &&
		sh.nLinks == len(s.Links) &&
		sh.nInteracts == len(s.Interacts)
}

func buildShape(s *System) *denseShape {
	sh := &denseShape{
		hosts:      s.HostIDs(),
		comps:      s.ComponentIDs(),
		nLinks:     len(s.Links),
		nInteracts: len(s.Interacts),
	}
	sh.hostIdx = make(map[HostID]int, len(sh.hosts))
	sh.hostElems = make([]*Host, len(sh.hosts))
	for i, h := range sh.hosts {
		sh.hostIdx[h] = i
		sh.hostElems[i] = s.Hosts[h]
	}
	sh.compIdx = make(map[ComponentID]int, len(sh.comps))
	for i, c := range sh.comps {
		sh.compIdx[c] = i
	}

	sh.links = make([]shapeLink, 0, len(s.Links))
	for pair, l := range s.Links {
		i, iok := sh.hostIdx[pair.A]
		j, jok := sh.hostIdx[pair.B]
		if !iok || !jok {
			continue // dangling link (host removed directly)
		}
		sh.links = append(sh.links, shapeLink{i, j, l})
	}

	// Interactions are ordered by (A, B) index. Indices follow the sorted
	// ComponentIDs order, so this is InteractionKeys' order without
	// comparing strings: bucket the interactions by A, then sort each
	// bucket by B.
	nc := len(sh.comps)
	raw := make([]shapeInteraction, 0, len(s.Interacts))
	bucket := make([]int, nc+1) // bucket[a] is where a's interactions start
	for key, l := range s.Interacts {
		a, aok := sh.compIdx[key.A]
		b, bok := sh.compIdx[key.B]
		if !aok || !bok {
			continue
		}
		raw = append(raw, shapeInteraction{a, b, l})
		bucket[a+1]++
	}
	for a := 0; a < nc; a++ {
		bucket[a+1] += bucket[a]
	}
	sh.inters = make([]shapeInteraction, len(raw))
	next := slices.Clone(bucket[:nc])
	for _, e := range raw {
		sh.inters[next[e.a]] = e
		next[e.a]++
	}
	for a := 0; a < nc; a++ {
		slices.SortFunc(sh.inters[bucket[a]:bucket[a+1]], func(x, y shapeInteraction) int { return cmp.Compare(x.b, y.b) })
	}
	return sh
}

// values reads the elements' current parameters into a fresh view.
func (sh *denseShape) values() *DenseSystem {
	nh := len(sh.hosts)
	ds := &DenseSystem{
		Hosts:   sh.hosts,
		Comps:   sh.comps,
		NH:      nh,
		hostIdx: sh.hostIdx,
		compIdx: sh.compIdx,
		Rel:     make([]float64, nh*nh),
		BW:      make([]float64, nh*nh),
		Delay:   make([]float64, nh*nh),
	}
	for i := 0; i < nh; i++ {
		ds.Rel[i*nh+i] = 1
		ds.BW[i*nh+i] = LocalBandwidth
	}
	for _, sl := range sh.links {
		i, j, l := sl.i, sl.j, sl.l
		rel, bw, delay := l.Reliability(), l.Bandwidth(), l.Delay()
		ds.Rel[i*nh+j], ds.Rel[j*nh+i] = rel, rel
		ds.BW[i*nh+j], ds.BW[j*nh+i] = bw, bw
		ds.Delay[i*nh+j], ds.Delay[j*nh+i] = delay, delay
	}

	degree := make([]int, len(sh.comps))
	ds.Edges = make([]DenseEdge, 0, len(sh.inters))
	for _, it := range sh.inters {
		f := it.l.Frequency()
		if f <= 0 {
			continue // objectives skip non-positive frequencies
		}
		ds.Edges = append(ds.Edges, DenseEdge{A: it.a, B: it.b, Freq: f, Size: it.l.EventSize()})
		degree[it.a]++
		degree[it.b]++
	}

	// Every component's arcs are a window of one backing array.
	arcs := make([]DenseArc, 2*len(ds.Edges))
	ds.Adj = make([][]DenseArc, len(sh.comps))
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
