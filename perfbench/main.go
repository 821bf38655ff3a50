// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload in-process for a fixed number of seconds, checks every
// output against an oracle, and prints one JSON result line:
//
//	go run . --workload compile|run|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured from spans this package
// records around each call into a layer's public function. README.md
// explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(config) (*result, error){
	"compile": runCompile,
	"run":     runVM,
	"serve":   runServe,
}

// A workload sets up minSetups times before it measures, and again
// during the run whenever its set-ups have taken less than setupShare of
// the time since the run began. setup_s is the median of them all, so it
// samples the host over the whole run, as the operation metrics do, and
// not only in its first second.
const (
	minSetups  = 5
	setupShare = 0.1
)

func main() {
	name := flag.String("workload", "", "workload: compile, run or serve")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload compile|run|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := drive(config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d failed %d fail_ratio %.6g\n", res.Attempted, res.Failed, res.failRatio())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (r *result) failRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// tally counts operations and the ones whose output was wrong.
type tally struct {
	attempted, failed int64
	firstErr          error
}

// check records one operation's verdict; a non-nil err is a failure.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
			fmt.Fprintln(os.Stderr, "perfbench: wrong output:", err)
		}
	}
}

// result starts a result from a tally.
func (t *tally) result() *result {
	return &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setupTimer times a workload's set-up.
type setupTimer[T any] struct {
	setup   func() (T, error)
	discard func(T)
	start   time.Time
	// spent is the time set-ups have taken, with the collections before
	// them and the discards after them.
	spent time.Duration
	times []float64
}

// firstSetup sets up minSetups times and returns the last value, which
// the caller measures with; the others are discarded.
func firstSetup[T any](setup func() (T, error), discard func(T)) (T, *setupTimer[T], error) {
	st := &setupTimer[T]{setup: setup, discard: discard, start: time.Now()}
	var last T
	for i := 0; i < minSetups; i++ {
		if i > 0 {
			st.discard(last)
		}
		v, err := st.once()
		if err != nil {
			// Every earlier value is discarded already.
			return v, nil, err
		}
		last = v
	}
	return last, st, nil
}

// once times one set-up, started from a collected heap rather than from
// whatever came before it.
func (st *setupTimer[T]) once() (T, error) {
	t := time.Now()
	defer func() { st.spent += time.Since(t) }()
	runtime.GC()
	t0 := time.Now()
	v, err := st.setup()
	if err == nil {
		st.times = append(st.times, time.Since(t0).Seconds())
	}
	return v, err
}

// sample sets up and discards again while the set-ups have taken less
// than setupShare of the run so far. Workloads call it between
// operations of an untraced run.
func (st *setupTimer[T]) sample() error {
	for float64(st.spent) < setupShare*float64(time.Since(st.start)) {
		v, err := st.once()
		if err != nil {
			return err
		}
		t := time.Now()
		st.discard(v)
		st.spent += time.Since(t)
	}
	return nil
}

// seconds is setup_s: the median set-up, in seconds.
func (st *setupTimer[T]) seconds() float64 {
	return median(st.times)
}

// scratchDir makes a new directory for files a run writes and removes
// again (stores), inside the checkout the benchmark runs from.
func scratchDir(prefix string) (string, error) {
	root := ".bench_build/tmp"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// setOpMetrics sets the end-to-end metrics every workload reports from
// each operation's time, the heap bytes allocated per operation and the
// set-up time.
func setOpMetrics(res *result, opMs []float64, allocBytesPerOp, setupS float64) {
	res.set("op_ms_p50", "ms", percentile(opMs, 0.50))
	res.set("alloc_kb_per_op", "KiB", allocBytesPerOp/1024)
	res.set("setup_s", "s", setupS)
}
