// Package obs is the repo's observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges and fixed-bucket
// histograms) that the simulation substrate, the overlay and the engine
// hang their instrumentation on.
//
// The central design decision is that a disabled layer must be zero-cost:
// every handle type (*Counter, *Gauge, *Histogram, *CounterVec) is a no-op
// on a nil receiver, and a nil *Registry hands out nil handles. Hot paths
// therefore pay exactly one predictable nil-check branch per event when
// observability is off, allocate nothing, and — because recording never
// feeds back into behaviour — same-seed simulation runs stay bit-identical
// whether the layer is enabled or not.
//
// Metric names are dotted paths ("traffic.msgs", "sim.clock.ticks").
// Dimensions (per message kind, per algorithm, per node) are modelled by
// CounterVec, which interns one *Counter per label value so steady-state
// recording is a map read plus an atomic add, with no per-event formatting.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
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

// HighWater returns the largest value the gauge has held since creation or
// the last Reset; zero on a nil receiver.
func (g *Gauge) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.hwm.Load()
}

// Reset zeroes the value and the high-water mark. No-op on nil.
func (g *Gauge) Reset() {
	if g == nil {
		return
	}
	g.v.Store(0)
	g.hwm.Store(0)
}

// Histogram counts int64 observations into fixed buckets chosen at
// creation. Bounds are upper-inclusive ("≤ bound"); one implicit overflow
// bucket catches everything above the last bound. A nil *Histogram
// discards all observations.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// newHistogram builds a histogram over ascending bounds.
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values; zero on a nil receiver.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Buckets returns the bucket bounds and their counts (the final count is
// the overflow bucket, reported with bound math.MaxInt64).
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]int64, len(h.bounds)+1)
	copy(bounds, h.bounds)
	bounds[len(bounds)-1] = math.MaxInt64
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) of the
// observations: the smallest bucket bound whose cumulative count reaches
// q·n. Returns 0 with no observations; the overflow bucket reports
// math.MaxInt64.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.MaxInt64
		}
	}
	return math.MaxInt64
}

// Reset zeroes all buckets. No-op on nil.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.n.Store(0)
}

// CounterVec is a family of counters sharing one name and distinguished by
// one label value (a message kind, an algorithm, a node key). Counters are
// interned on first use; the steady-state path is a read-locked map lookup
// plus an atomic add. A nil *CounterVec discards all updates.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns the counter for the given label value, creating it on first
// use. Returns nil (the no-op counter) on a nil receiver.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c, ok := v.m[label]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[label]; ok {
		return c
	}
	c = &Counter{}
	v.m[label] = c
	return c
}

// Add increments the counter for label by n. No-op on a nil receiver.
func (v *CounterVec) Add(label string, n int64) { v.With(label).Add(n) }

// Value returns the count for label without creating it.
func (v *CounterVec) Value(label string) int64 {
	if v == nil {
		return 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.m[label].Value()
}

// Total sums the counts across all labels.
func (v *CounterVec) Total() int64 {
	if v == nil {
		return 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	var n int64
	for _, c := range v.m {
		n += c.Value()
	}
	return n
}

// Snapshot copies the per-label counts.
func (v *CounterVec) Snapshot() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for label, c := range v.m {
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
	v.m = make(map[string]*Counter)
}

// Registry is a namespace of metrics. A nil *Registry is the disabled
// layer: every constructor returns a nil handle and every handle method is
// a no-op. Construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	vecs     map[string]*CounterVec
}

// NewRegistry creates an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
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

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls reuse the existing buckets). Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
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
		v = &CounterVec{m: make(map[string]*Counter)}
		r.vecs[name] = v
	}
	return v
}

// Snapshot renders every metric as a flat, sorted name→value map: counters
// as their count, gauges as value plus a ".hwm" entry, histograms as
// ".count"/".sum"/".p50"/".p99"/".p999" entries, and counter families as
// one entry per label ("name{kind}") plus a ".total". The flattening is
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
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".sum"] = float64(h.Sum())
		out[name+".p50"] = quantileOrZero(h, 0.50)
		out[name+".p99"] = quantileOrZero(h, 0.99)
		out[name+".p999"] = quantileOrZero(h, 0.999)
	}
	for name, v := range r.vecs {
		for label, n := range v.Snapshot() {
			out[fmt.Sprintf("%s{%s}", name, label)] = float64(n)
		}
		out[name+".total"] = float64(v.Total())
	}
	return out
}

// quantileOrZero clamps the overflow sentinel so snapshots stay finite.
func quantileOrZero(h *Histogram, q float64) float64 {
	v := h.Quantile(q)
	if v == math.MaxInt64 {
		return -1 // observation fell in the overflow bucket
	}
	return float64(v)
}

// Reset zeroes every registered metric (keeping registrations). No-op on
// a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
	for _, v := range r.vecs {
		v.Reset()
	}
}
