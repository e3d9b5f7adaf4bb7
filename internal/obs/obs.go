// Package obs is the repo's observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges and counter
// families) that the engine, the codec, the transport and the daemon hang
// their instrumentation on, and that the daemon's stats reply reports.
//
// The central design decision is that a disabled layer must be zero-cost:
// every handle type (*Counter, *Gauge, *CounterVec) is a no-op on a nil
// receiver, and a nil *Registry hands out nil handles. Hot paths therefore
// pay exactly one predictable nil-check branch per event when
// observability is off, allocate nothing, and — because recording never
// feeds back into behaviour — same-seed simulation runs stay bit-identical
// whether the layer is enabled or not.
//
// Metric names are dotted paths ("engine.vl_forwards", "daemon.listeners").
// Dimensions (per message kind, per algorithm, per node) are modelled by
// CounterVec, which interns one *Counter per label value so steady-state
// recording is an atomic load, a map read and an atomic add, with no lock
// and no per-event formatting.
package obs

import (
	"fmt"
	"maps"
	"sync/atomic"

	"cqjoin/internal/lockdep"
)

// Counter is a monotonically increasing (or explicitly reset) int64 metric.
// The zero Counter is ready to use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset sets the counter back to zero. No-op on a nil receiver.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is a settable int64 metric that also tracks its high-water mark
// (useful for queue depths). The zero Gauge is ready to use; a nil *Gauge
// discards all updates.
type Gauge struct {
	v   atomic.Int64
	hwm atomic.Int64
}

// Set stores v and raises the high-water mark if needed. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.raise(v)
}

// Add moves the gauge by delta (negative deltas allowed) and raises the
// high-water mark if needed. No-op on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.raise(g.v.Add(delta))
}

func (g *Gauge) raise(v int64) {
	for {
		cur := g.hwm.Load()
		if v <= cur || g.hwm.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HighWater returns the largest value the gauge has held; zero on a nil
// receiver.
func (g *Gauge) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.hwm.Load()
}

// CounterVec is a family of counters sharing one name and distinguished by
// one label value (a message kind, an algorithm, a node key). Counters are
// interned on first use in a map that is never written once published: a
// label's first With copies it with the new counter under mu, so the
// steady-state path is an atomic load, a map read and an atomic add, and no
// read takes a lock. The zero CounterVec is ready to use; a nil *CounterVec
// discards all updates.
type CounterVec struct {
	mu lockdep.Mutex[counterVecMu] // serializes the copies of first uses
	m  atomic.Pointer[map[string]*Counter]
}

type counterVecMu struct{} // CounterVec.mu's lock class

// labels returns the family's current, immutable label map (nil: empty).
func (v *CounterVec) labels() map[string]*Counter {
	if m := v.m.Load(); m != nil {
		return *m
	}
	return nil
}

// With returns the counter for the given label value, creating it on first
// use. Returns nil (the no-op counter) on a nil receiver.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	if c, ok := v.labels()[label]; ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.labels()
	if c, ok := old[label]; ok {
		return c
	}
	m := make(map[string]*Counter, len(old)+1)
	maps.Copy(m, old)
	c := &Counter{}
	m[label] = c
	v.m.Store(&m)
	return c
}

// Add increments the counter for label by n. No-op on a nil receiver.
func (v *CounterVec) Add(label string, n int64) { v.With(label).Add(n) }

// Value returns the count for label without creating it.
func (v *CounterVec) Value(label string) int64 {
	if v == nil {
		return 0
	}
	return v.labels()[label].Value()
}

// Total sums the counts across all labels.
func (v *CounterVec) Total() int64 {
	if v == nil {
		return 0
	}
	var n int64
	for _, c := range v.labels() {
		n += c.Value()
	}
	return n
}

// Snapshot copies the per-label counts.
func (v *CounterVec) Snapshot() map[string]int64 {
	if v == nil {
		return nil
	}
	m := v.labels()
	out := make(map[string]int64, len(m))
	for label, c := range m {
		out[label] = c.Value()
	}
	return out
}

// Reset drops every interned counter. Handles previously returned by With
// keep working but are no longer reachable from the vec — callers that
// cache counters across Reset should re-fetch them.
func (v *CounterVec) Reset() {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.m.Store(nil)
}

// Registry is a namespace of metrics. A nil *Registry is the disabled
// layer: every constructor returns a nil handle and every handle method is
// a no-op. Construct with NewRegistry.
type Registry struct {
	mu       lockdep.Mutex[registryMu]
	counters map[string]*Counter
	gauges   map[string]*Gauge
	vecs     map[string]*CounterVec
}

type registryMu struct{} // Registry.mu's lock class

// NewRegistry creates an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		vecs:     make(map[string]*CounterVec),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterVec returns the named counter family, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) CounterVec(name string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = &CounterVec{}
		r.vecs[name] = v
	}
	return v
}

// Snapshot renders every metric as a flat, sorted name→value map: counters
// as their count, gauges as value plus a ".hwm" entry, and counter families
// as one entry per label ("name{kind}") plus a ".total". The flattening is
// what tests and the daemon's stats reply consume.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
		out[name+".hwm"] = float64(g.HighWater())
	}
	for name, v := range r.vecs {
		for label, n := range v.Snapshot() {
			out[fmt.Sprintf("%s{%s}", name, label)] = float64(n)
		}
		out[name+".total"] = float64(v.Total())
	}
	return out
}
