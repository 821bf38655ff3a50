// Package metrics is a small, dependency-free metrics registry for the
// lsrd service: counters, gauges and histograms with optional labels,
// rendered in the Prometheus text exposition format at /metrics. It
// implements just what the daemon needs — monotonic counters for
// request/cache/fuel accounting, cumulative histograms for latency —
// with atomic hot paths so instrumented request handling never takes a
// registry lock.
package metrics

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

// family is one metric name with its help text and all label variants.
type family struct {
	name    string
	help    string
	kind    familyKind
	labels  []string // label names, fixed per family
	buckets []float64

	mu       sync.Mutex
	children map[string]*child // keyed by childKey of the label values
}

// child is one label variant of a family, with its label string
// rendered once, at creation.
type child struct {
	labelStr string
	m        metric
}

type metric interface {
	write(w io.Writer, name, labelStr string)
}

func (r *Registry) family(name, help string, kind familyKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labels: labels,
		buckets: buckets, children: map[string]*child{},
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// child fetches or creates the labeled variant of a family.
func (f *family) child(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	// The key is built in a stack buffer and the map is indexed with
	// string(key), which Go does without copying, so looking up an
	// existing child allocates nothing.
	var buf [128]byte
	key := childKey(buf[:0], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c.m
	}
	c := &child{labelStr: labelString(f.labels, values), m: mk()}
	f.children[string(key)] = c
	return c.m
}

// childKey appends an injective encoding of a family's label values to
// b: each value preceded by its length.
func childKey(b []byte, values []string) []byte {
	for _, v := range values {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b
}

// labelString renders {a="x",b="y"} (empty for no labels), each value
// quoted as Go's %q verb would.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	b := []byte{'{'}
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, values[i])
	}
	return string(append(b, '}'))
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, c.v.Load())
}

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, g.v.Load())
}

// Histogram is a cumulative histogram with fixed upper bounds.
type Histogram struct {
	buckets []float64 // upper bounds, ascending
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count is the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) write(w io.Writer, name, labelStr string) {
	// Prometheus cumulative buckets: le="ub" carries everything <= ub.
	cum := int64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labelStr, fmt.Sprintf("le=%q", formatBound(ub))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labelStr, `le="+Inf"`), h.count.Load())
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labelStr, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelStr, h.count.Load())
}

func formatBound(ub float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", ub), "0"), ".")
}

// mergeLabel splices an extra label pair into a rendered label string.
func mergeLabel(labelStr, pair string) string {
	if labelStr == "" {
		return "{" + pair + "}"
	}
	return labelStr[:len(labelStr)-1] + "," + pair + "}"
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	return f.child(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// NewHistogram registers (or fetches) an unlabeled histogram with the
// given ascending upper bounds.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, nil, buckets)
	return f.child(nil, func() metric { return newHistogram(buckets) }).(*Histogram)
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets))}
}

// funcMetric renders a callback's value at scrape time (used to expose
// counters owned by another subsystem, e.g. the compilation cache).
type funcMetric struct{ fn func() int64 }

func (m *funcMetric) write(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, m.fn())
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotonic and safe for concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	f := r.family(name, help, kindCounter, nil, nil)
	f.child(nil, func() metric { return &funcMetric{fn: fn} })
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	f := r.family(name, help, kindGauge, nil, nil)
	f.child(nil, func() metric { return &funcMetric{fn: fn} })
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// With fetches the counter for the given label values (created on first
// use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() metric { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// With fetches the gauge for the given label values (created on first
// use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() metric { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets)}
}

// With fetches the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, families in registration order, label variants
// sorted by their rendered label strings.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ)
		f.mu.Lock()
		children := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			children = append(children, c)
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool { return children[i].labelStr < children[j].labelStr })
		for _, c := range children {
			c.m.write(w, f.name, c.labelStr)
		}
	}
}

// DefBuckets are latency buckets in seconds, tuned for an in-process
// compile service (sub-millisecond cache hits to multi-second runs).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}
