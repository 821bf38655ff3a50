package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeText(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "A test counter.")
	c.Inc()
	c.Add(2)
	g := r.NewGauge("test_depth", "A test gauge.")
	g.Set(7)
	g.Add(-2)
	v := r.NewCounterVec("test_labeled_total", "Labeled.", "kind")
	v.With("a").Inc()
	v.With("b").Add(3)

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_total A test counter.",
		"# TYPE test_total counter",
		"test_total 3",
		"# TYPE test_depth gauge",
		"test_depth 5",
		`test_labeled_total{kind="a"} 1`,
		`test_labeled_total{kind="b"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramText(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50) // above every bound: only +Inf and count

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="10"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "lat_seconds_sum 55.55") {
		t.Errorf("sum line wrong:\n%s", out)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	r.NewCounterFunc("fn_total", "From a callback.", func() int64 { return n })
	n++
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), "fn_total 42") {
		t.Errorf("callback not read at scrape time:\n%s", b.String())
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run
// under -race this proves the hot paths are lock-free-safe.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	h := r.NewHistogram("h_seconds", "", DefBuckets)
	v := r.NewCounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				v.With([]string{"a", "b", "c"}[i%3]).Inc()
			}
		}(i)
	}
	// Scrape concurrently with the writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			r.WriteText(&b)
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

// TestWithExistingChildAllocsNothing: fetching a label variant that
// already exists renders nothing and allocates nothing.
func TestWithExistingChildAllocsNothing(t *testing.T) {
	r := NewRegistry()
	one := r.NewCounterVec("one_total", "One label.", "engine")
	two := r.NewCounterVec("two_total", "Two labels.", "route", "code")
	h := r.NewHistogramVec("lat_seconds", "Latency.", DefBuckets, "route")
	one.With("threaded").Inc()
	two.With("/v1/run", "200").Inc()
	h.With("/v1/run").Observe(0.001)
	if n := testing.AllocsPerRun(100, func() {
		one.With("threaded").Inc()
		two.With("/v1/run", "200").Inc()
		h.With("/v1/run").Observe(0.001)
	}); n != 0 {
		t.Errorf("With on existing children: %v allocations per run, want 0", n)
	}
}

// TestLabelRendering: label values that need escaping render exactly
// as Go's %q verb renders them, variants sort by their rendered label
// strings, and values whose concatenations collide stay distinct.
func TestLabelRendering(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("esc_total", "Escapes.", "a", "b")
	vals := [][2]string{
		{"q\"uote", "back\\slash"},
		{"new\nline", "ünï\x00"},
		{"ab", "c"},
		{"a", "bc"},
		{"", ""},
	}
	for i, p := range vals {
		v.With(p[0], p[1]).Add(int64(i + 1))
	}
	var want []string
	for i, p := range vals {
		want = append(want, fmt.Sprintf("esc_total{a=%q,b=%q} %d", p[0], p[1], i+1))
	}
	sort.Strings(want)
	var b strings.Builder
	r.WriteText(&b)
	got := strings.Split(strings.TrimSpace(b.String()), "\n")[2:]
	if !slices.Equal(got, want) {
		t.Errorf("exposition:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
