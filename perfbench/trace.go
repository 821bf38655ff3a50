package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// traceDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/traces"

// span is one timed call into a layer. Spans of one unit or request
// share an ID; Parent indexes the span that caused this one (-1 for a
// root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Objects and Bytes are heap allocations made during the span. They
	// are recorded only by single-goroutine workloads, where nothing
	// else allocates meanwhile.
	Objects uint64 `json:"objects,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	origin time.Time
	allocs bool

	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer; with allocs set, every span also records
// the heap allocations made while it was open.
func newTracer(allocs bool) *tracer {
	return &tracer{origin: time.Now(), allocs: allocs}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(id uint64, name string, parent int) int {
	sp := span{ID: id, Name: name, Parent: parent}
	if t.allocs {
		sp.Objects, sp.Bytes = heapAllocs()
	}
	sp.Start = time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, sp)
	return len(t.spans) - 1
}

// child opens a span caused by span parent, with the parent's ID; an
// unknown parent makes it a root.
func (t *tracer) child(parent int, name string) int {
	t.mu.Lock()
	var id uint64
	if parent >= 0 && parent < len(t.spans) {
		id = t.spans[parent].ID
	} else {
		parent = -1
	}
	t.mu.Unlock()
	return t.begin(id, name, parent)
}

// end closes span i.
func (t *tracer) end(i int) {
	now := time.Since(t.origin).Nanoseconds()
	var objs, bytes uint64
	if t.allocs {
		objs, bytes = heapAllocs()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[i]
	sp.End = now
	if t.allocs {
		sp.Objects, sp.Bytes = objs-sp.Objects, bytes-sp.Bytes
	}
}

// duration is span i's length; the span must have ended.
func (t *tracer) duration(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// wrap runs f inside a span.
func (t *tracer) wrap(id uint64, name string, parent int, f func()) {
	i := t.begin(id, name, parent)
	f()
	t.end(i)
}

// layerTotals is the summed self time and allocations of one span name.
type layerTotals struct {
	calls          int
	selfNs         int64
	objects, bytes uint64
	// self holds each span's self time in nanoseconds.
	self []int64
}

// selfTimes returns, per span name, the totals of self time: each
// span's duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, sp := range t.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	out := map[string]*layerTotals{}
	for i, sp := range t.spans {
		self := sp.End - sp.Start - covered(t.spans, sp, children[i])
		lt := out[sp.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[sp.Name] = lt
		}
		lt.calls++
		lt.selfNs += self
		lt.objects += sp.Objects
		lt.bytes += sp.Bytes
		lt.self = append(lt.self, self)
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's.
func covered(spans []span, parent span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// write saves the spans as JSON lines under traceDir and returns the
// file's path.
func (t *tracer) write(name string) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	path := filepath.Join(traceDir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

// heapAllocs returns the process's cumulative heap allocations. It uses
// runtime.ReadMemStats, which counts every object exactly; the cheaper
// runtime/metrics counters advance a whole span at a time.
func heapAllocs() (objects, bytes uint64) {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs, st.TotalAlloc
}

// layerOf returns the totals of one span name (zero when it never ran).
func layerOf(layers map[string]*layerTotals, name string) *layerTotals {
	if lt, ok := layers[name]; ok {
		return lt
	}
	return &layerTotals{}
}

// finishTrace completes a traced run's result: every per-layer metric a
// workload leaves idle reads 0, and the spans are written out.
func finishTrace(res *result, tr *tracer, workload string, seed uint64) (*result, error) {
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			res.set(m.name, m.unit, 0)
		}
	}
	path, err := tr.write(fmt.Sprintf("%s-seed%d", workload, seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return res, nil
}
