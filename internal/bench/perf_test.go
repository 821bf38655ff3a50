package bench

import (
	"bytes"
	"strings"
	"testing"
)

func perfFixture() *PerfReport {
	return &PerfReport{
		Schema:    PerfSchema,
		Suite:     "quick",
		GoVersion: "go0.0",
		Entries: []PerfEntry{
			{Program: "a", Engine: "threaded", WallNsPerOp: 1000, SimCycles: 500, AllocsPerOp: 10},
			{Program: "b", Engine: "threaded", WallNsPerOp: 2000, SimCycles: 700, AllocsPerOp: 20},
		},
	}
}

func TestPerfRoundTrip(t *testing.T) {
	rep := perfFixture()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPerfReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[0] != rep.Entries[0] || got.Entries[1] != rep.Entries[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestPerfSchemaRejected(t *testing.T) {
	if _, err := ReadPerfReport([]byte(`{"schema":"lsr/bench-perf/v0"}`)); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestComparePerfPasses(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	// 10% slower on both programs: inside the 15% gate. Allocs at the
	// 10% boundary: not over it, so still inside the gate.
	cur.Entries[0].WallNsPerOp = 1100
	cur.Entries[1].WallNsPerOp = 2200
	cur.Entries[0].AllocsPerOp = 11
	if err := ComparePerf(base, cur, 0.15, 0.10); err != nil {
		t.Fatalf("expected pass, got %v", err)
	}
}

func TestComparePerfWallRegression(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	cur.Entries[0].WallNsPerOp = 1500
	cur.Entries[1].WallNsPerOp = 3000
	err := ComparePerf(base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "geomean") {
		t.Fatalf("expected wall regression failure, got %v", err)
	}
}

func TestComparePerfAllocRegression(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	// One program gains 20% allocations: the per-entry gate fires even
	// though the other program is unchanged.
	cur.Entries[1].AllocsPerOp = 24
	err := ComparePerf(base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "allocs_per_op") {
		t.Fatalf("expected alloc regression failure, got %v", err)
	}
	if !strings.Contains(err.Error(), "b:") {
		t.Fatalf("expected the offending program named, got %v", err)
	}
}

func TestComparePerfAllocZeroBaseline(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	// A zero-alloc baseline admits no growth at all.
	base.Entries[0].AllocsPerOp = 0
	cur.Entries[0].AllocsPerOp = 1
	err := ComparePerf(base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "allocs_per_op") {
		t.Fatalf("expected zero-baseline alloc failure, got %v", err)
	}
}

func TestComparePerfAllocImprovementPasses(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	cur.Entries[0].AllocsPerOp = 2
	cur.Entries[1].AllocsPerOp = 0
	if err := ComparePerf(base, cur, 0.15, 0.10); err != nil {
		t.Fatalf("expected alloc improvement to pass, got %v", err)
	}
}

func TestComparePerfCycleDrift(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	cur.Entries[1].SimCycles = 701
	err := ComparePerf(base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "sim_cycles") {
		t.Fatalf("expected sim_cycles failure, got %v", err)
	}
}

func TestComparePerfNewProgramIgnored(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	cur.Entries = append(cur.Entries, PerfEntry{Program: "new", Engine: "threaded", WallNsPerOp: 9e6, SimCycles: 1})
	if err := ComparePerf(base, cur, 0.15, 0.10); err != nil {
		t.Fatalf("expected new program to be ignored, got %v", err)
	}
}

func TestComparePerfDroppedProgramFails(t *testing.T) {
	base, cur := perfFixture(), perfFixture()
	cur.Entries = cur.Entries[:1]
	err := ComparePerf(base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "b: in the baseline but not measured") {
		t.Fatalf("expected dropped-program failure, got %v", err)
	}
}
