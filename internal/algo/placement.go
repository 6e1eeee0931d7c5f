package algo

import (
	"dif/internal/model"
)

// DenseConstraints is a system's model.Constraints over its dense
// indices (model.DenseSystem): per-host capacities and liveness,
// per-component demands, location rows, allowed hosts and collocation
// partner lists. It is read-only once built, so concurrent searches may
// share it; each walk keeps its own per-host sums in an incChecker.
type DenseConstraints struct {
	ds                 *model.DenseSystem
	checkMem, checkCPU bool
	compMem, compCPU   []float64
	hostMem, hostCPU   []float64
	down               []bool
	// loc[ci] is nil when component ci may go anywhere, else the hosts
	// its location constraint admits. A component that may not share a
	// host with itself gets an all-false row: nothing can satisfy it.
	loc [][]bool
	// allowed[ci] lists the hosts the checker's Allowed admits for
	// component ci, ascending, and admits[ci*NH+hi] is the same as a
	// membership table. Components without a location constraint share
	// one row.
	allowed [][]int
	admits  []bool
	// must[ci] and cant[ci] list ci's collocation partners. Pairs naming
	// an unknown component are left out: CheckPartial never sees such a
	// component placed, and Check fails them on every deployment, which
	// each search's final Check reports.
	must, cant [][]int
}

func newDenseConstraints(s *model.System) *DenseConstraints {
	ds := s.Dense()
	cs := &s.Constraints
	nc, nh := len(ds.Comps), ds.NH
	t := &DenseConstraints{
		ds:       ds,
		checkMem: cs.CheckMemory,
		checkCPU: cs.CheckCPU,
		compMem:  make([]float64, nc),
		compCPU:  make([]float64, nc),
		hostMem:  make([]float64, nh),
		hostCPU:  make([]float64, nh),
		down:     make([]bool, nh),
		loc:      make([][]bool, nc),
		allowed:  make([][]int, nc),
		must:     make([][]int, nc),
		cant:     make([][]int, nc),
	}
	up := make([]int, 0, nh)
	for hi, h := range ds.Hosts {
		host := s.Hosts[h]
		t.hostMem[hi] = host.Memory()
		t.hostCPU[hi] = host.Params.Get(model.ParamCPU)
		t.down[hi] = host.Down
		if !host.Down {
			up = append(up, hi)
		}
	}
	up = up[:len(up):len(up)]
	// The allowed rows are model.Constraints.AllowedHosts': the up hosts
	// a component's location set admits, every up host without one. They
	// are taken from the location rows before CannotCollocate(a, a)
	// empties a's row below, a pair AllowedHosts never sees. Each row is
	// a window of one backing array, which cannot regrow: it has room for
	// every location set.
	backing := make([]int, 0, min(len(cs.Location), nc)*len(up))
	for ci, c := range ds.Comps {
		comp := s.Components[c]
		t.compMem[ci] = comp.Memory()
		t.compCPU[ci] = comp.Params.Get(model.ParamCPU)
		set, ok := cs.Location[c]
		if !ok {
			t.allowed[ci] = up
			continue
		}
		row := make([]bool, nh)
		start := len(backing)
		for hi, h := range ds.Hosts {
			row[hi] = set[h]
			if row[hi] && !t.down[hi] {
				backing = append(backing, hi)
			}
		}
		t.loc[ci] = row
		t.allowed[ci] = backing[start:len(backing):len(backing)]
	}
	t.admits = admitsTable(t.allowed, nh)
	for _, p := range cs.MustCollocate {
		a, b := ds.CompIndex(p.A), ds.CompIndex(p.B)
		if a < 0 || b < 0 || a == b {
			continue
		}
		t.must[a] = append(t.must[a], b)
		t.must[b] = append(t.must[b], a)
	}
	for _, p := range cs.CannotCollocate {
		a, b := ds.CompIndex(p.A), ds.CompIndex(p.B)
		switch {
		case a < 0 || b < 0:
		case a == b:
			t.loc[a] = make([]bool, nh)
		default:
			t.cant[a] = append(t.cant[a], b)
			t.cant[b] = append(t.cant[b], a)
		}
	}
	return t
}

// admitsTable is the membership table of per-component host rows:
// entry ci*nh+hi is set when row ci lists host hi.
func admitsTable(rows [][]int, nh int) []bool {
	admits := make([]bool, len(rows)*nh)
	for ci, row := range rows {
		for _, hi := range row {
			admits[ci*nh+hi] = true
		}
	}
	return admits
}

// incChecker validates and records changes to one search walk's
// assignment over DenseConstraints. Every question presumes the current
// assignment is valid: canPlace asks about an unplaced component,
// canMove about a placed one going to another host, canSwap about two
// placed components on different hosts. It mirrors model.Constraints
// exactly — location, down host, memory, CPU, and collocation counted
// only among placed partners — by looking at the hosts and partners a
// change touches. Sums grow by addition on place and are re-summed from
// the assignment on unplace, move and swap, so no rounding error
// accumulates over a long walk.
type incChecker struct {
	*DenseConstraints
	// assign is the live assignment (component index → host index, -1
	// while unplaced); callers only read it.
	assign   []int
	mem, cpu []float64 // per host, over the placed components
}

func (t *DenseConstraints) begin(assign []int) *incChecker {
	c := &incChecker{
		DenseConstraints: t,
		assign:           assign,
		mem:              make([]float64, len(t.hostMem)),
		cpu:              make([]float64, len(t.hostMem)),
	}
	for ci, hi := range assign {
		if hi >= 0 {
			c.mem[hi] += t.compMem[ci]
			c.cpu[hi] += t.compCPU[ci]
		}
	}
	return c
}

// fits reports whether host hi admits component ci on top of the given
// load of other components.
func (c *incChecker) fits(ci, hi int, mem, cpu float64) bool {
	if row := c.loc[ci]; row != nil && !row[hi] {
		return false
	}
	if c.down[hi] {
		return false
	}
	if c.checkMem && mem+c.compMem[ci] > c.hostMem[hi] {
		return false
	}
	return !c.checkCPU || cpu+c.compCPU[ci] <= c.hostCPU[hi]
}

// partnersAllow reports whether ci on hi satisfies its collocation
// pairs, reading each partner's host from the assignment except for
// `other`, which is taken to be on otherHost (-1: no such partner).
func (c *incChecker) partnersAllow(ci, hi, other, otherHost int) bool {
	for _, p := range c.must[ci] {
		ph := c.assign[p]
		if p == other {
			ph = otherHost
		}
		if ph >= 0 && ph != hi {
			return false
		}
	}
	for _, p := range c.cant[ci] {
		ph := c.assign[p]
		if p == other {
			ph = otherHost
		}
		if ph == hi {
			return false
		}
	}
	return true
}

func (c *incChecker) canPlace(ci, hi int) bool {
	return c.fits(ci, hi, c.mem[hi], c.cpu[hi]) && c.partnersAllow(ci, hi, -1, -1)
}

func (c *incChecker) canMove(ci, hi int) bool { return c.canPlace(ci, hi) }

func (c *incChecker) canSwap(c1, c2 int) bool {
	h1, h2 := c.assign[c1], c.assign[c2]
	return c.fits(c1, h2, c.mem[h2]-c.compMem[c2], c.cpu[h2]-c.compCPU[c2]) &&
		c.fits(c2, h1, c.mem[h1]-c.compMem[c1], c.cpu[h1]-c.compCPU[c1]) &&
		c.partnersAllow(c1, h2, c2, h1) && c.partnersAllow(c2, h1, c1, h2)
}

func (c *incChecker) place(ci, hi int) {
	c.assign[ci] = hi
	c.mem[hi] += c.compMem[ci]
	c.cpu[hi] += c.compCPU[ci]
}

// reset unplaces every component, as begin(nil) would start.
func (c *incChecker) reset() {
	for ci := range c.assign {
		c.assign[ci] = -1
	}
	clear(c.mem)
	clear(c.cpu)
}

func (c *incChecker) unplace(ci int) {
	hi := c.assign[ci]
	c.assign[ci] = -1
	c.resum(hi)
}

func (c *incChecker) move(ci, hi int) {
	from := c.assign[ci]
	c.assign[ci] = hi
	c.resum(from)
	c.resum(hi)
}

func (c *incChecker) swap(c1, c2 int) {
	h1, h2 := c.assign[c1], c.assign[c2]
	c.assign[c1], c.assign[c2] = h2, h1
	c.resum(h1)
	c.resum(h2)
}

// resum recomputes host hi's sums from the assignment.
func (c *incChecker) resum(hi int) {
	mem, cpu := 0.0, 0.0
	for ci, h := range c.assign {
		if h == hi {
			mem += c.compMem[ci]
			cpu += c.compCPU[ci]
		}
	}
	c.mem[hi], c.cpu[hi] = mem, cpu
}

// searchSpace is one run's read-only view of where components may go:
// the checker's compiled constraint tables, with the dense system and
// each component's allowed hosts they carry. Stochastic trials share
// one; every walk takes its own incChecker from it.
type searchSpace struct {
	s     *model.System
	ds    *model.DenseSystem
	check ConstraintChecker
	cons  *DenseConstraints
	// allowed[ci] lists the hosts check.Allowed admits for component ci,
	// ascending; admits[ci*NH+hi] is the same as a membership table.
	allowed [][]int
	admits  []bool
}

func newSearchSpace(s *model.System, check ConstraintChecker) *searchSpace {
	cons := check.Incremental(s)
	return &searchSpace{s: s, ds: cons.ds, check: check, cons: cons, allowed: cons.allowed, admits: cons.admits}
}

// allows reports whether the checker's Allowed set for ci contains hi.
func (v *searchSpace) allows(ci, hi int) bool { return v.admits[ci*v.ds.NH+hi] }

// confirmFill is the one Check a search makes of its incremental fills.
// A fill is valid by construction but for one thing only Check sees: a
// collocation pair naming an unknown component, whose verdict is the
// same on every complete deployment. So one fill's verdict
// (Stochastic's winner, Genetic's first seed) stands for all of them.
func (v *searchSpace) confirmFill(d model.Deployment) bool {
	return v.check.Check(v.s, d) == nil
}

// upHosts returns the indices of the hosts not marked down, ascending
// (s.UpHostIDs' order).
func (v *searchSpace) upHosts() []int {
	out := make([]int, 0, v.ds.NH)
	for hi, down := range v.cons.down {
		if !down {
			out = append(out, hi)
		}
	}
	return out
}

// begin returns an incChecker starting from deployment d (nil: nothing
// placed), which must satisfy the checker.
func (v *searchSpace) begin(d model.Deployment) *incChecker {
	return v.cons.begin(v.ds.Assign(d))
}
