// Package obs is the process-wide observability layer (ROADMAP: "metrics +
// tracing"): the measurement primitives (log-bucket Histogram, Counter,
// Gauge, windowed RateMeter), a registry of named, optionally labeled series
// built from them, an HTTP exporter serving Prometheus text on /metrics plus
// expvar and pprof endpoints, and a sampled per-append span tracer that
// attributes tail latency to pipeline stages (enqueue → WAL-ack → apply →
// reply).
//
// The registry is built for hot paths: a series is resolved once, at
// registration, into a handle (*Counter, *Gauge, *Histogram) whose update
// methods are single atomic operations — no map lookup, no lock and no
// allocation per event. Registration is get-or-create, so independent
// components (e.g. every segment container) can resolve the same series
// name and share one aggregated time series.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// seriesKind discriminates the series types held by a registry.
type seriesKind uint8

const (
	kindCounter seriesKind = iota + 1
	kindGauge
	kindHistogram
	kindGaugeFunc
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing series handle. The zero value is
// usable, but handles are normally obtained from Registry.Counter so they
// are exported. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be non-negative for Prometheus semantics).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a series handle for a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (deltas from many goroutines compose).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// series is one registered time series.
type series struct {
	name   string
	labels string // rendered `{k="v",...}` or ""
	help   string
	kind   seriesKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	fnMu sync.Mutex
	fn   func() float64 // kindGaugeFunc
}

// Registry is a set of named time series. All methods are safe for
// concurrent use; handle resolution takes the registry lock, so resolve
// handles once (package init or component construction), not per event.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{series: make(map[string]*series)} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every component instruments
// into; cmd/pravega-server and pravega.NewInProcess export it over HTTP.
func Default() *Registry { return defaultRegistry }

// renderLabels renders alternating key,value pairs into Prometheus label
// syntax. Pairs keep their given order (callers pass stable literals).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: labels must be alternating key,value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// get resolves (or creates) the series for name+labels. Re-registering an
// existing series returns the same handle; re-registering under a
// different kind panics (a programming error caught at init).
func (r *Registry) get(name, help string, k seriesKind, labels []string) *series {
	rendered := renderLabels(labels)
	id := name + rendered
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[id]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("obs: series %s registered as %s, re-requested as %s", id, s.kind, k))
		}
		return s
	}
	s := &series{name: name, labels: rendered, help: help, kind: k}
	switch k {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = NewHistogram()
	}
	r.series[id] = s
	return s
}

// Counter resolves the named counter, creating it on first use. labels are
// alternating key,value pairs baked into the series identity.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.get(name, help, kindCounter, labels).counter
}

// Gauge resolves the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.get(name, help, kindGauge, labels).gauge
}

// Histogram resolves the named histogram, creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.get(name, help, kindHistogram, labels).hist
}

// GaugeFunc registers (or replaces) a callback-backed gauge: fn is invoked
// at scrape time. Re-registering the same series replaces the callback, so
// a restarted component simply takes the series over.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.get(name, help, kindGaugeFunc, labels)
	s.fnMu.Lock()
	s.fn = fn
	s.fnMu.Unlock()
}

// value evaluates the series' current scalar value (gauge-func callbacks
// run here). Histograms have no single value; callers special-case them.
func (s *series) value() float64 {
	switch s.kind {
	case kindCounter:
		return float64(s.counter.Value())
	case kindGauge:
		return float64(s.gauge.Value())
	case kindGaugeFunc:
		s.fnMu.Lock()
		fn := s.fn
		s.fnMu.Unlock()
		if fn == nil {
			return 0
		}
		return fn()
	}
	return 0
}

// sorted returns the registry's series sorted by name then labels, for
// deterministic export.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Snapshot returns the registry's current values as a JSON-friendly map:
// scalars for counters and gauges, percentile summaries for histograms.
// expvar publishes it under the "pravega" key.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, s := range r.sorted() {
		id := s.name + s.labels
		if s.kind == kindHistogram {
			snap := s.hist.Snapshot()
			out[id] = map[string]float64{
				"count": float64(snap.Count),
				"mean":  snap.Mean,
				"p50":   snap.P50,
				"p95":   snap.P95,
				"p99":   snap.P99,
				"max":   snap.Max,
			}
			continue
		}
		out[id] = s.value()
	}
	return out
}
