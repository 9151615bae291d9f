// Package obs provides the zero-dependency observability layer of the S3PG
// pipeline: atomic counters and gauges collected in a registry with JSON and
// text snapshot export, hierarchical phase spans recording wall time and
// allocation deltas, throughput meters for streaming stages, and pprof
// profiling hooks.
//
// Every primitive is nil-receiver-safe: a nil *Span, *Counter, *Gauge,
// *Meter, or *Registry turns all operations into no-ops, so instrumented
// code threads observability handles unconditionally and pays nothing when
// observation is disabled (the nil-span path performs zero allocations; see
// BenchmarkSpanDisabled). Always-on pipeline counters are single atomic
// adds.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing, concurrency-safe counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a concurrency-safe instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n. Safe on a nil receiver.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (zero for a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of counters, gauges, and meters.
// Instruments are created on first use and live for the registry's lifetime;
// Counter/Gauge/Meter lookups after creation are read-lock only.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	meters     map[string]*Meter
	histograms map[string]*Histogram
}

// Default is the process-wide registry the pipeline's always-on instruments
// register with.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		meters:     make(map[string]*Meter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Meter returns the named throughput meter, creating it on first use. A nil
// registry returns a nil (no-op) meter.
func (r *Registry) Meter(name string) *Meter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	m, ok := r.meters[name]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.meters[name]; !ok {
		m = &Meter{}
		r.meters[name] = m
	}
	return m
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil (no-op) histogram. Names may carry Prometheus-style
// labels built with LabeledName; the Prometheus exposition groups such
// series into one metric family.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures a point-in-time view of every instrument. Counters and
// gauges at zero are included so the full instrument inventory is visible.
// Trace optionally carries a phase-span tree (set by callers that traced a
// run, e.g. cmd/s3pg -metrics).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Meters     map[string]MeterSnapshot     `json:"meters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Trace      *SpanRecord                  `json:"trace,omitempty"`
}

// Snapshot captures the registry's current values. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.meters) > 0 {
		s.Meters = make(map[string]MeterSnapshot, len(r.meters))
		for name, m := range r.meters {
			s.Meters[name] = m.Snapshot()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
