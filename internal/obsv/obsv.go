// Package obsv is the unified observability layer for the grid data
// server: cheap atomic counters, gauges and fixed-bucket latency
// histograms collected in one Registry, exported both as Prometheus text
// (the clarens /metrics endpoint) and as a flat map (the system.metrics
// XML-RPC method). It also owns the query-id context plumbing and the
// slow-query ring, so every layer of the routing stack shares one notion
// of "this query" without importing each other.
//
// The package deliberately depends only on the standard library and
// internal/histogram: clarens, dataaccess and unity all import it, never
// the reverse.
package obsv

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridrdb/internal/histogram"
)

// Label is one name="value" pair attached to a metric. Metrics that
// differ only in labels form one Prometheus family (shared HELP/TYPE).
type Label struct {
	Key, Value string
}

// DefaultLatencyBounds are the bucket upper bounds, in seconds, used for
// query-latency histograms: 100µs to 30s, roughly log-spaced, covering a
// cache hit on loopback through a multi-hop federated scan.
var DefaultLatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// metric is anything the registry can expose.
type metric interface {
	family() (name, help, promType string)
	labels() []Label
	// writeSamples emits the Prometheus sample lines (no HELP/TYPE).
	writeSamples(w io.Writer, labelStr string)
	// snapshot adds flat key→value entries for the XML-RPC view.
	snapshot(into map[string]interface{}, key string)
}

// Registry holds a set of metrics in registration order. Registration
// takes a lock; reads and metric updates are lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	// byKey dedupes name+labels so re-registering returns the same
	// metric instead of a shadowed duplicate.
	byKey map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]metric)}
}

func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString("=\"")
		sb.WriteString(l.Value)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func (r *Registry) register(key string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byKey[key]; ok {
		return existing
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or returns the existing) monotonically increasing
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	key := metricKey(name, labels)
	m := r.register(key, &Counter{name: name, help: help, lbs: labels})
	return m.(*Counter)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	key := metricKey(name, labels)
	m := r.register(key, &Gauge{name: name, help: help, lbs: labels})
	return m.(*Gauge)
}

// Histogram registers (or returns the existing) latency histogram over
// the given bucket upper bounds in seconds (nil → DefaultLatencyBounds).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	key := metricKey(name, labels)
	m := r.register(key, &Histogram{name: name, help: help, lbs: labels, h: histogram.NewAtomic(bounds)})
	return m.(*Histogram)
}

// GaugeFunc registers a gauge whose value is computed at scrape time by
// fn — the bridge for pre-existing stats structs (cache bytes, open
// cursors) that already maintain their own synchronized state.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(metricKey(name, labels), &funcMetric{name: name, help: help, lbs: labels, typ: "gauge", fn: fn})
}

// CounterFunc registers a scrape-time counter view over fn, which must be
// monotonic (e.g. an existing atomic total).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(metricKey(name, labels), &funcMetric{name: name, help: help, lbs: labels, typ: "counter", fn: fn})
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, emitting HELP/TYPE once per family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	emitted := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		name, help, typ := m.family()
		if !emitted[name] {
			emitted[name] = true
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
			fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		}
		m.writeSamples(w, renderLabels(m.labels()))
	}
}

// Snapshot returns every metric as a flat key→value map keyed in the
// Prometheus sample style (name{label="v"}), sorted iteration order left
// to the caller. Counters and gauges map to int64; histograms contribute
// _count (int64), _sum (float64 seconds) and per-bucket cumulative
// counts.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	out := make(map[string]interface{}, len(metrics))
	for _, m := range metrics {
		name, _, _ := m.family()
		m.snapshot(out, metricKey(name, m.labels()))
	}
	return out
}

func renderLabels(lbs []Label) string {
	if len(lbs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range lbs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString("=\"")
		sb.WriteString(l.Value)
		sb.WriteByte('"')
	}
	return sb.String()
}

// Counter is a lock-free monotonically increasing counter.
type Counter struct {
	name, help string
	lbs        []Label
	v          atomic.Int64
}

// Add increments the counter by delta (delta must be >= 0).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) family() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) labels() []Label                  { return c.lbs }
func (c *Counter) writeSamples(w io.Writer, labelStr string) {
	writeSample(w, c.name, labelStr, strconv.FormatInt(c.v.Load(), 10))
}
func (c *Counter) snapshot(into map[string]interface{}, key string) { into[key] = c.v.Load() }

// Gauge is a lock-free value that can go up and down.
type Gauge struct {
	name, help string
	lbs        []Label
	v          atomic.Int64
}

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

func (g *Gauge) family() (string, string, string) { return g.name, g.help, "gauge" }
func (g *Gauge) labels() []Label                  { return g.lbs }
func (g *Gauge) writeSamples(w io.Writer, labelStr string) {
	writeSample(w, g.name, labelStr, strconv.FormatInt(g.v.Load(), 10))
}
func (g *Gauge) snapshot(into map[string]interface{}, key string) { into[key] = g.v.Load() }

// Histogram is a registered latency histogram over fixed buckets.
type Histogram struct {
	name, help string
	lbs        []Label
	h          *histogram.Atomic
}

// ObserveDuration records one latency sample.
func (h *Histogram) ObserveDuration(d time.Duration) { h.h.ObserveDuration(d) }

func (h *Histogram) family() (string, string, string) { return h.name, h.help, "histogram" }
func (h *Histogram) labels() []Label                  { return h.lbs }

func (h *Histogram) writeSamples(w io.Writer, labelStr string) {
	cum, count, sum := h.h.Snapshot()
	bounds := h.h.Bounds()
	for i, b := range bounds {
		writeSample(w, h.name+"_bucket", joinLabels(labelStr, `le="`+formatFloat(b)+`"`), strconv.FormatInt(cum[i], 10))
	}
	writeSample(w, h.name+"_bucket", joinLabels(labelStr, `le="+Inf"`), strconv.FormatInt(cum[len(cum)-1], 10))
	writeSample(w, h.name+"_sum", labelStr, formatFloat(sum))
	writeSample(w, h.name+"_count", labelStr, strconv.FormatInt(count, 10))
}

func (h *Histogram) snapshot(into map[string]interface{}, key string) {
	_, count, sum := h.h.Snapshot()
	into[key+"_count"] = count
	into[key+"_sum"] = sum
}

// funcMetric exposes a value computed at scrape time.
type funcMetric struct {
	name, help string
	lbs        []Label
	typ        string
	fn         func() int64
}

func (f *funcMetric) family() (string, string, string) { return f.name, f.help, f.typ }
func (f *funcMetric) labels() []Label                  { return f.lbs }
func (f *funcMetric) writeSamples(w io.Writer, labelStr string) {
	writeSample(w, f.name, labelStr, strconv.FormatInt(f.fn(), 10))
}
func (f *funcMetric) snapshot(into map[string]interface{}, key string) { into[key] = f.fn() }

func writeSample(w io.Writer, name, labelStr, value string) {
	if labelStr == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labelStr, value)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
