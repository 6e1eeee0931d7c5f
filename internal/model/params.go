package model

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Well-known parameter names. The model is extensible — any string key can
// be attached to any element — but the framework's built-in objectives and
// monitors read and write these keys.
const (
	// Host parameters.
	ParamMemory = "memory" // capacity (hosts) or requirement (components), KB
	ParamCPU    = "cpu"    // processing capacity (hosts) or demand (components)

	// Physical link parameters.
	ParamReliability = "reliability" // probability a message survives, [0,1]
	ParamBandwidth   = "bandwidth"   // KB/s
	ParamDelay       = "delay"       // one-way transmission delay, ms

	// Logical link parameters.
	ParamFrequency = "frequency" // interactions per second
	ParamEventSize = "eventSize" // average event size, KB

	// Optional extension parameters used by some objectives.
	ParamSecurity = "security" // link security level, [0,1]
	ParamPower    = "power"    // battery budget, host-only
)

// Slot indices of the well-known names.
const (
	slotBandwidth = iota
	slotCPU
	slotDelay
	slotEventSize
	slotFrequency
	slotMemory
	slotPower
	slotReliability
	slotSecurity
	numSlots
)

var slotNames = [numSlots]string{
	ParamBandwidth, ParamCPU, ParamDelay, ParamEventSize, ParamFrequency,
	ParamMemory, ParamPower, ParamReliability, ParamSecurity,
}

// slotOf returns the slot of a well-known name, or -1 for any other name.
func slotOf(name string) int {
	for i, n := range slotNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Params is an extensible set of named numeric parameters attached to a
// model element. Each well-known name has a fixed slot, so the typed
// accessors (Memory, Frequency, Reliability, ...) are a field load; any
// other name lives in an overflow map. The zero value is an empty set
// ready to use.
//
// Params is a value: assigning it copies the slots but shares the
// overflow map, so copy a set with Clone.
type Params struct {
	set  uint16             // bit i: slot i holds a value
	slot [numSlots]float64  // well-known values; 0 while unset
	ext  map[string]float64 // every other name; nil until one is set
}

// ParamsFrom returns a parameter set holding every entry of m.
func ParamsFrom(m map[string]float64) Params {
	var p Params
	for name, v := range m {
		p.Set(name, v)
	}
	return p
}

func (p *Params) lookup(name string) (float64, bool) {
	if i := slotOf(name); i >= 0 {
		return p.slot[i], p.set&(1<<i) != 0
	}
	v, ok := p.ext[name]
	return v, ok
}

// Get returns the value of the named parameter, or 0 if unset.
func (p Params) Get(name string) float64 {
	v, _ := p.lookup(name)
	return v
}

// GetDefault returns the value of the named parameter, or def if unset.
func (p Params) GetDefault(name string, def float64) float64 {
	if v, ok := p.lookup(name); ok {
		return v
	}
	return def
}

// Has reports whether the named parameter is set.
func (p Params) Has(name string) bool {
	_, ok := p.lookup(name)
	return ok
}

// Set assigns the named parameter.
func (p *Params) Set(name string, value float64) {
	if i := slotOf(name); i >= 0 {
		p.slot[i] = value
		p.set |= 1 << i
		return
	}
	if p.ext == nil {
		p.ext = make(map[string]float64, 1)
	}
	p.ext[name] = value
}

// Clone returns a copy of the parameter set that shares nothing with p.
func (p Params) Clone() Params {
	p.ext = maps.Clone(p.ext)
	return p
}

// Names returns the parameter names in sorted order.
func (p Params) Names() []string {
	names := make([]string, 0, bits.OnesCount16(p.set)+len(p.ext))
	for i, name := range slotNames {
		if p.set&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	for name := range p.ext {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Equal reports whether two parameter sets hold the same keys and values.
// An unset slot is 0 on both sides, so comparing the arrays compares the
// set slots (and, as with any float comparison, NaN equals nothing).
func (p Params) Equal(q Params) bool {
	if p.set != q.set || p.slot != q.slot || len(p.ext) != len(q.ext) {
		return false
	}
	for k, v := range p.ext {
		w, ok := q.ext[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

// MaxDelta returns the largest relative difference between the two
// parameter sets across the union of their keys. A key present on one side
// only counts as a relative delta of 1. This is the distance used by the
// monitor's ε-stability detector.
func (p Params) MaxDelta(q Params) float64 {
	max := 0.0
	if p.set != q.set {
		max = 1
	}
	for i := range p.slot {
		if p.set&q.set&(1<<i) != 0 {
			max = math.Max(max, relDelta(p.slot[i], q.slot[i]))
		}
	}
	for k, v := range p.ext {
		if w, ok := q.ext[k]; ok {
			max = math.Max(max, relDelta(v, w))
		} else {
			max = math.Max(max, 1)
		}
	}
	for k := range q.ext {
		if _, ok := p.ext[k]; !ok {
			max = math.Max(max, 1)
		}
	}
	return max
}

// relDelta is |v-w| / max(|v|, |w|), and 0 when both are 0.
func relDelta(v, w float64) float64 {
	denom := math.Max(math.Abs(v), math.Abs(w))
	if denom == 0 {
		return 0
	}
	// Divide before subtracting so extreme magnitudes cannot overflow
	// the numerator.
	return math.Abs(v/denom - w/denom)
}

// String renders the parameters as "k1=v1 k2=v2" in sorted key order.
func (p Params) String() string {
	var sb strings.Builder
	for i, name := range p.Names() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%g", name, p.Get(name))
	}
	return sb.String()
}
