package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/vm"
)

// PerfSchema identifies the BENCH_*.json format. Bump the version when
// a field changes meaning; the comparer refuses to compare across
// schema versions.
const PerfSchema = "lsr/bench-perf/v1"

// PerfEntry is the measurement for one benchmark program on one engine.
type PerfEntry struct {
	// Program is the benchmark name (bench.ByName).
	Program string `json:"program"`
	// Engine is the execution engine measured ("threaded").
	Engine string `json:"engine"`
	// WallNsPerOp is wall-clock nanoseconds per complete run of the
	// program (compile excluded), from testing.Benchmark.
	WallNsPerOp int64 `json:"wall_ns_per_op"`
	// SimCycles is the simulated cycle count of one run under the paper
	// configuration. It is deterministic: any drift between a baseline
	// and a candidate is a semantic change, never noise, so the
	// comparer requires exact equality.
	SimCycles int64 `json:"sim_cycles"`
	// AllocsPerOp is heap allocations per run, from testing.Benchmark.
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// PerfReport is the schema-versioned payload written to BENCH_*.json.
type PerfReport struct {
	Schema string `json:"schema"`
	// Suite names the program subset measured ("quick" or "full").
	Suite string `json:"suite"`
	// GoVersion records the toolchain that produced the numbers; wall
	// times are only comparable within a reasonably similar toolchain
	// and machine, which is why the wall gate is a ratio with a
	// threshold rather than an absolute bound.
	GoVersion string      `json:"go_version"`
	Entries   []PerfEntry `json:"entries"`
}

// MeasurePerf benchmarks every program on the threaded engine and
// returns a report. Each entry's wall time covers Machine.Run only
// (compilation is hoisted out of the timed loop), on the counters-off
// fast path, matching how the paper's tables are produced.
func MeasurePerf(progs []*Program, suite string) (*PerfReport, error) {
	rep := &PerfReport{Schema: PerfSchema, Suite: suite, GoVersion: runtime.Version()}
	for _, p := range progs {
		c, err := compiler.Compile(p.Source, PaperOptions())
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", p.Name, err)
		}
		run := func() (*vm.Machine, error) {
			m := vm.New(c.Program, io.Discard)
			m.Counting = vm.CountEssential
			m.MaxSteps = BenchFuel
			_, err := m.Run()
			return m, err
		}
		m, err := run()
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", p.Name, err)
		}
		simCycles := m.Counters.Cycles
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("perf: %s: %w", p.Name, runErr)
		}
		rep.Entries = append(rep.Entries, PerfEntry{
			Program:     p.Name,
			Engine:      "threaded",
			WallNsPerOp: r.NsPerOp(),
			SimCycles:   simCycles,
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return rep, nil
}

// WriteJSON renders the report as indented JSON with a trailing
// newline, the exact bytes committed as BENCH_*.json.
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadPerfReport parses a BENCH_*.json payload and checks its schema.
func ReadPerfReport(data []byte) (*PerfReport, error) {
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parse baseline: %w", err)
	}
	if r.Schema != PerfSchema {
		return nil, fmt.Errorf("perf: baseline schema %q, want %q", r.Schema, PerfSchema)
	}
	return &r, nil
}

// ComparePerf gates a candidate report against a committed baseline.
// Four checks:
//
//   - every baseline entry must be measured: a program dropped from the
//     suite fails the gate instead of passing unnoticed. (A candidate
//     entry with no baseline is new and is not compared.)
//   - sim_cycles must match exactly per program. Simulated cycles are
//     deterministic, so any difference is a real semantic change to the
//     compiler or cost model and must be an intentional, reviewed
//     baseline update.
//   - the geometric mean of the per-program wall-time ratios
//     (candidate/baseline) must not exceed 1+wallThreshold. The geomean
//     smooths per-program timer noise; threshold 0.15 catches real
//     regressions while tolerating CI jitter.
//   - allocs_per_op must not grow by more than allocThreshold on any
//     single entry. Allocation counts are near-deterministic (no timer
//     noise), so the gate is per-entry rather than a geomean: one
//     program picking up an allocation in its inner loop is exactly the
//     regression the gate exists to catch, and a geomean would let the
//     other programs dilute it. A baseline of zero allocations must
//     stay zero.
//
// Returns a descriptive error on failure, nil on pass.
func ComparePerf(base, cur *PerfReport, wallThreshold, allocThreshold float64) error {
	baseBy := map[string]PerfEntry{}
	for _, e := range base.Entries {
		baseBy[e.Program+"/"+e.Engine] = e
	}
	var problems []string
	logRatioSum, n := 0.0, 0
	measured := map[string]bool{}
	for _, e := range cur.Entries {
		measured[e.Program+"/"+e.Engine] = true
		b, ok := baseBy[e.Program+"/"+e.Engine]
		if !ok {
			continue // new program: nothing to compare
		}
		if e.SimCycles != b.SimCycles {
			problems = append(problems, fmt.Sprintf(
				"%s: sim_cycles %d, baseline %d (deterministic metric changed; update the baseline intentionally)",
				e.Program, e.SimCycles, b.SimCycles))
		}
		if b.WallNsPerOp > 0 && e.WallNsPerOp > 0 {
			logRatioSum += math.Log(float64(e.WallNsPerOp) / float64(b.WallNsPerOp))
			n++
		}
		if float64(e.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocThreshold) {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs_per_op %d, baseline %d (exceeds %.0f%% growth; fix the allocation or update the baseline intentionally)",
				e.Program, e.AllocsPerOp, b.AllocsPerOp, allocThreshold*100))
		}
	}
	for _, b := range base.Entries {
		if !measured[b.Program+"/"+b.Engine] {
			problems = append(problems, fmt.Sprintf(
				"%s: in the baseline but not measured (program dropped from the suite; update the baseline intentionally)",
				b.Program))
		}
	}
	if n > 0 {
		geomean := math.Exp(logRatioSum / float64(n))
		if geomean > 1+wallThreshold {
			problems = append(problems, fmt.Sprintf(
				"wall time geomean ratio %.3f exceeds %.3f (threshold %.0f%%)",
				geomean, 1+wallThreshold, wallThreshold*100))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("perf gate failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
