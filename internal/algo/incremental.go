package algo

import (
	"dif/internal/model"
	"dif/internal/objective"
)

// availState evaluates availability incrementally while the Exact search
// places and unplaces components, and provides an admissible optimistic
// bound for branch-and-bound pruning: unplaced interactions are assumed to
// achieve perfect reliability. It works over the system's dense snapshot,
// so every update is integer-indexed array arithmetic with no map or
// string-pair lookups on the hot path.
type availState struct {
	ds     *model.DenseSystem
	assign []int   // component index -> host index, -1 while unplaced
	num    float64 // Σ freq·rel over interactions with both endpoints placed
	den    float64 // Σ freq over all interactions
	// pendingFreq is Σ freq over interactions with ≥1 unplaced endpoint.
	pendingFreq float64
}

func newAvailState(s *model.System) *availState {
	ds := s.Dense()
	st := &availState{
		ds:          ds,
		assign:      make([]int, len(ds.Comps)),
		den:         ds.TotalFreq,
		pendingFreq: ds.TotalFreq,
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	return st
}

// place assigns component ci to host hi (dense indices), updating the
// partial score.
func (st *availState) place(ci, hi int) {
	st.assign[ci] = hi
	nh := st.ds.NH
	for _, arc := range st.ds.Adj[ci] {
		oi := st.assign[arc.Other]
		if oi < 0 {
			continue
		}
		f := st.ds.Freq[arc.Edge]
		st.num += f * st.ds.Rel[hi*nh+oi]
		st.pendingFreq -= f
	}
}

// unplace reverses a place of ci (which must be the most recent
// assignment of ci).
func (st *availState) unplace(ci int) {
	hi := st.assign[ci]
	st.assign[ci] = -1
	nh := st.ds.NH
	for _, arc := range st.ds.Adj[ci] {
		oi := st.assign[arc.Other]
		if oi < 0 {
			continue
		}
		f := st.ds.Freq[arc.Edge]
		st.num -= f * st.ds.Rel[hi*nh+oi]
		st.pendingFreq += f
	}
}

// score returns the availability of the (complete) deployment.
func (st *availState) score() float64 {
	if st.den == 0 {
		return 1
	}
	return st.num / st.den
}

// optimistic returns an upper bound on the availability of any completion
// of the current partial deployment.
func (st *availState) optimistic() float64 {
	if st.den == 0 {
		return 1
	}
	return (st.num + st.pendingFreq) / st.den
}

// supportsIncremental reports whether the Exact algorithm can use the
// incremental availability evaluator for this quantifier.
func supportsIncremental(q objective.Quantifier) bool {
	_, ok := q.(objective.Availability)
	return ok
}
