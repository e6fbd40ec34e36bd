// Package telemetry provides the observability primitives used across
// the repository: lock-free atomic counters, gauges, timers and
// fixed-bucket histograms, grouped into named registries, plus a
// schema-agnostic JSONL event writer and an HTTP endpoint for live run
// introspection: each registry rendered once as JSON and once in
// Prometheus text format, next to the stdlib's expvar runtime vars and
// pprof.
//
// Design rules:
//
//   - Hot paths pay nothing when telemetry is off. Every instrument is
//     nil-safe: a nil *Counter/*Gauge/*Timer/*Histogram ignores updates
//     and reads as zero, and a nil *Registry hands out nil instruments.
//     Instrumented code therefore keeps a single pointer it obtained at
//     setup time and updates it unconditionally — the disabled case is
//     one predictable nil check, no allocation, no branch on every
//     metric individually.
//   - Updates are lock-free (sync/atomic) so counters can be shared by
//     all evaluation workers without serializing the hot loop.
//   - Telemetry never touches RNG state or algorithm data, so a run is
//     bit-identical with and without instrumentation (the determinism
//     contract of internal/core is unaffected).
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. A nil counter ignores the update.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; a nil counter reads as zero.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 level (e.g. current occupancy).
type Gauge struct{ bits atomic.Uint64 }

// Set stores x. A nil gauge ignores the update.
func (g *Gauge) Set(x float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(x))
	}
}

// Load returns the current level; a nil gauge reads as zero.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates durations: an event count and a total. Mean() is
// the running average latency of the timed section.
type Timer struct {
	n  atomic.Int64
	ns atomic.Int64
}

// Observe records one duration. A nil timer ignores the update.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.n.Add(1)
		t.ns.Add(int64(d))
	}
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Mean returns the average observed duration (zero before the first
// observation).
func (t *Timer) Mean() time.Duration {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return t.Total() / time.Duration(n)
}

// Histogram is a fixed-bucket histogram: bounds[i] is the inclusive
// upper edge of bucket i, and one extra overflow bucket catches values
// above the last bound. Updates are lock-free; the value sum uses a
// CAS loop (contention on it is negligible next to the bucket adds).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. It panics on empty or unsorted bounds — bucket layouts are
// static configuration, not data.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must ascend")
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n bounds starting at start and growing by factor —
// the usual layout for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. A nil histogram ignores the update.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the current bucket counts. A nil histogram yields the
// zero snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}
