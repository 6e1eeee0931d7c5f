package algo

import (
	"dif/internal/model"
)

// DegradationAware wraps a ConstraintChecker with a soft filter over
// hosts carrying a gray-failure penalty (model.Host.Degraded): alive
// and heartbeating, but limping. Allowed drops degraded hosts from a
// component's candidate set except when
//
//   - the component already resides there under Current — planning
//     steers *new* placements away from a limping host but never
//     force-migrates the components it is still serving, or
//   - filtering would empty the candidate set, in which case the full
//     set is returned: degradation is advisory and must never be a
//     source of infeasibility (a cluster that is all limping still
//     deploys).
//
// Check and CheckPartial delegate unchanged, so a deployment that does
// place on a degraded host — drained later, or forced by constraints —
// remains legal.
type DegradationAware struct {
	// Inner is the wrapped checker; nil selects SystemConstraints.
	Inner ConstraintChecker
	// Current is the live deployment (nil when planning from scratch).
	Current model.Deployment
}

var _ ConstraintChecker = DegradationAware{}

func (d DegradationAware) inner() ConstraintChecker {
	if d.Inner == nil {
		return SystemConstraints{}
	}
	return d.Inner
}

// Check implements ConstraintChecker.
func (d DegradationAware) Check(s *model.System, dep model.Deployment) error {
	return d.inner().Check(s, dep)
}

// CheckPartial implements ConstraintChecker.
func (d DegradationAware) CheckPartial(s *model.System, dep model.Deployment) error {
	return d.inner().CheckPartial(s, dep)
}

// Incremental implements ConstraintChecker: Check and CheckPartial are
// the inner checker's, so its dense constraints serve, with each allowed
// row narrowed as Allowed narrows the inner checker's hosts.
func (d DegradationAware) Incremental(s *model.System) *DenseConstraints {
	t := d.inner().Incremental(s)
	ds := t.ds
	degraded := make([]bool, ds.NH)
	anyDegraded := false
	for hi, h := range ds.Hosts {
		degraded[hi] = s.Hosts[h].Degraded > 0
		anyDegraded = anyDegraded || degraded[hi]
	}
	if !anyDegraded {
		return t
	}
	out := *t
	out.allowed = make([][]int, len(t.allowed))
	total := 0
	for _, row := range t.allowed {
		total += len(row)
	}
	backing := make([]int, 0, total)
	for ci, row := range t.allowed {
		// As in Allowed: the host under Current keeps its component (an
		// empty or unknown host keeps none), and a row the filter would
		// empty stays whole.
		cur := -1
		if h := d.Current[ds.Comps[ci]]; h != "" {
			cur = ds.HostIndex(h)
		}
		start := len(backing)
		for _, hi := range row {
			if !degraded[hi] || hi == cur {
				backing = append(backing, hi)
			}
		}
		out.allowed[ci] = backing[start:len(backing):len(backing)]
		if len(out.allowed[ci]) == 0 {
			out.allowed[ci] = row
		}
	}
	out.admits = admitsTable(out.allowed, ds.NH)
	return &out
}

// Allowed implements ConstraintChecker.
func (d DegradationAware) Allowed(s *model.System, c model.ComponentID) []model.HostID {
	all := d.inner().Allowed(s, c)
	if len(s.DegradedHostIDs()) == 0 {
		return all
	}
	cur, onCur := model.HostID(""), false
	if d.Current != nil {
		cur, onCur = d.Current[c], true
		if cur == "" {
			onCur = false
		}
	}
	filtered := make([]model.HostID, 0, len(all))
	for _, h := range all {
		if s.HostDegraded(h) > 0 && !(onCur && h == cur) {
			continue
		}
		filtered = append(filtered, h)
	}
	if len(filtered) == 0 {
		return all
	}
	return filtered
}
