package telemetry

import "sync"

// Registry is a named collection of instruments. Lookup is
// get-or-create under a mutex (setup cost only); the instruments
// themselves stay lock-free. A nil *Registry is the "telemetry off"
// registry: it hands out nil instruments, whose updates are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
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

// Gauge returns the named gauge, creating it on first use.
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

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds and return the
// existing histogram).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a point-in-time copy of every instrument, keyed by
// name. Counters map to int64, gauges to float64, timers to a
// {count, total_ns, mean_ns} map and histograms to HistSnapshot —
// everything JSON-marshalable. It is what the /metrics endpoint serves
// and what WritePrometheus renders.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	for name, t := range r.timers {
		out[name] = map[string]int64{
			"count":    t.Count(),
			"total_ns": int64(t.Total()),
			"mean_ns":  int64(t.Mean()),
		}
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}
