package desi

import (
	"fmt"
	"sort"
	"strings"

	"dif/internal/model"
)

// TableView renders the Model's SystemData and AlgoResultData as the
// paper's table-oriented editor page (Figure 9): a Parameters table, a
// Constraints panel, and a Results panel.
type TableView struct {
	model *Model
}

// NewTableView returns a table view over the model.
func NewTableView(m *Model) *TableView {
	return &TableView{model: m}
}

// Render produces the full table page.
func (v *TableView) Render() string {
	var sb strings.Builder
	sd := v.model.System()
	if sd.System == nil {
		return "no system loaded\n"
	}
	sb.WriteString(v.renderParameters(sd))
	sb.WriteString(v.renderConstraints(sd))
	sb.WriteString(v.renderResults())
	return sb.String()
}

func (v *TableView) renderParameters(sd SystemData) string {
	var sb strings.Builder
	s := sd.System
	sb.WriteString("== Parameters ==\n")
	sb.WriteString("-- Hosts --\n")
	for _, h := range s.HostIDs() {
		used := 0.0
		if sd.Deployment != nil {
			used = sd.Deployment.UsedMemory(s, h)
		}
		fmt.Fprintf(&sb, "%-12s %s  used=%.1f  comps=%v\n",
			h, s.Hosts[h].Params, used, sd.Deployment.ComponentsOn(h))
	}
	sb.WriteString("-- Components --\n")
	for _, c := range s.ComponentIDs() {
		host := model.HostID("?")
		if h, ok := sd.Deployment.HostOf(c); ok {
			host = h
		}
		fmt.Fprintf(&sb, "%-12s %s  on=%s\n", c, s.Components[c].Params, host)
	}
	sb.WriteString("-- Physical links --\n")
	for _, key := range s.LinkKeys() {
		fmt.Fprintf(&sb, "%s <-> %s  %s\n", key.A, key.B, s.Links[key].Params)
	}
	sb.WriteString("-- Logical links --\n")
	for _, l := range s.Interactions() {
		fmt.Fprintf(&sb, "%s <-> %s  %s\n", l.Components.A, l.Components.B, l.Params)
	}
	return sb.String()
}

func (v *TableView) renderConstraints(sd SystemData) string {
	var sb strings.Builder
	sb.WriteString("== Constraints ==\n")
	cs := sd.System.Constraints
	fmt.Fprintf(&sb, "memory check: %v\n", cs.CheckMemory)
	comps := make([]string, 0, len(cs.Location))
	for c := range cs.Location {
		comps = append(comps, string(c))
	}
	sort.Strings(comps)
	for _, c := range comps {
		allowed := cs.AllowedHosts(sd.System, model.ComponentID(c))
		fmt.Fprintf(&sb, "location: %s -> %v\n", c, allowed)
	}
	for _, p := range cs.MustCollocate {
		fmt.Fprintf(&sb, "collocate: %s with %s\n", p.A, p.B)
	}
	for _, p := range cs.CannotCollocate {
		fmt.Fprintf(&sb, "separate: %s from %s\n", p.A, p.B)
	}
	return sb.String()
}

func (v *TableView) renderResults() string {
	var sb strings.Builder
	sb.WriteString("== Results ==\n")
	runs := v.model.Results()
	if len(runs) == 0 {
		sb.WriteString("(no algorithm runs)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-12s %-14s %10s %10s %10s %8s %12s\n",
		"algorithm", "objective", "initial", "achieved", "time", "moves", "redeployMS")
	for _, r := range runs {
		fmt.Fprintf(&sb, "%-12s %-14s %10.4f %10.4f %10s %8d %12.1f\n",
			r.Result.Algorithm, r.Objective, r.Result.InitialScore, r.Result.Score,
			r.Result.Elapsed.Round(1000).String(), r.RedeployMoves, r.RedeployMS)
	}
	return sb.String()
}

// GraphView renders the deployment architecture as the paper's
// graph-oriented page (Figure 10): hosts as boxes containing their
// components, physical links as an adjacency list.
type GraphView struct {
	model *Model
}

// NewGraphView returns a graph view over the model.
func NewGraphView(m *Model) *GraphView {
	return &GraphView{model: m}
}

// Render produces the text rendering of the deployment graph.
func (v *GraphView) Render() string {
	sd := v.model.System()
	if sd.System == nil {
		return "no system loaded\n"
	}
	g := v.model.Graph()
	var sb strings.Builder
	sb.WriteString("== Deployment architecture ==\n")
	for _, h := range sd.System.HostIDs() {
		marker := " "
		if g.Selected == h {
			marker = "*"
		}
		pos := g.HostPos[h]
		fmt.Fprintf(&sb, "%s[%s] @(%d,%d)\n", marker, h, pos.X, pos.Y)
		for _, c := range sd.Deployment.ComponentsOn(h) {
			fmt.Fprintf(&sb, "   +- %s\n", c)
		}
	}
	sb.WriteString("-- Links --\n")
	for _, key := range sd.System.LinkKeys() {
		l := sd.System.Links[key]
		fmt.Fprintf(&sb, "%s === %s (rel=%.2f bw=%.0f)\n",
			key.A, key.B, l.Reliability(), l.Bandwidth())
	}
	return sb.String()
}

// Thumbnail renders the zoomed-out overview (the paper's thumbnail
// pane): one line per host with its component count.
func (v *GraphView) Thumbnail() string {
	sd := v.model.System()
	if sd.System == nil {
		return "no system loaded\n"
	}
	var sb strings.Builder
	for _, h := range sd.System.HostIDs() {
		n := len(sd.Deployment.ComponentsOn(h))
		fmt.Fprintf(&sb, "%s:%d ", h, n)
	}
	sb.WriteByte('\n')
	return sb.String()
}
