package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dif/internal/obs"
)

// span is one timed region recorded by the benchmark around a call into a
// layer. Spans of one operation (an event, a wave, a plan, a failover
// trial) share Op; Parent is the ID of the span that caused this one (0
// for the operation's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"` // µs since the recorder was created
	End    float64 `json:"end_us"`
	SelfUS float64 `json:"self_us"` // End-Start minus the part children cover
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(parent int, op, layer, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: float64(start.Sub(r.epoch)) / 1e3, End: float64(end.Sub(r.epoch)) / 1e3,
	})
	return id
}

// adopt copies a span tree recorded by the program's own obs.Tracer
// under parent, so the wave phases the deployer already traces appear as
// children of the benchmark's span around Enact.
func (r *recorder) adopt(parent int, op, layer string, rec obs.SpanRecord) {
	if r == nil {
		return
	}
	id := r.add(parent, op, layer, rec.Name, rec.Start, rec.End)
	for _, c := range rec.Children {
		r.adopt(id, op, layer, c)
	}
}

// finish computes each span's self time: its duration minus the union of
// the intervals its children cover (children may overlap or run past
// their parent when they end on another goroutine).
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return r.spans[ks[a]].Start < r.spans[ks[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range ks {
			lo, hi := r.spans[k].Start, r.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfUS = (s.End - s.Start) - covered
	}
	return r.spans
}

// selfTime is where an operation's time went for one span name.
type selfTime struct {
	layer    string
	medianUS float64
	n        int
}

// selfTimes returns the median self time of every span name.
func selfTimes(spans []span) map[string]selfTime {
	by := make(map[string][]float64)
	layer := make(map[string]string)
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s.SelfUS)
		layer[s.Name] = s.Layer
	}
	out := make(map[string]selfTime, len(by))
	for name, v := range by {
		out[name] = selfTime{layer[name], median(v), len(v)}
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
