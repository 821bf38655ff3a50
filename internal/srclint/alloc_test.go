package srclint

import (
	"os"
	"strings"
	"testing"
)

// sampleM is captured-style `go build -gcflags=-m` output: inline
// decisions (ignored), escapes in scope, an escape in an out-of-scope
// file, and a message that repeats at two positions.
const sampleM = `# repro/internal/vm
internal/vm/exec.go:10:6: can inline (*Machine).step
internal/vm/exec.go:42:14: &RuntimeError{...} escapes to heap
internal/vm/exec.go:97:14: &RuntimeError{...} escapes to heap
internal/vm/machine.go:12:9: new(int) escapes to heap
internal/vm/machine.go:30:2: moved to heap: scratch
internal/vm/other.go:5:9: &Thing{...} escapes to heap
internal/vm/exec.go:50:3: inlining call to tick
`

func allocCfg() AllocConfig {
	return AllocConfig{
		Package:     "./internal/vm",
		Files:       []string{"exec.go", "machine.go"},
		RequireNote: []string{"machine.go"},
	}
}

func TestParseEscapes(t *testing.T) {
	sites := ParseEscapes(sampleM, allocCfg().Files)
	want := []AllocSite{
		{File: "internal/vm/exec.go", Message: "&RuntimeError{...} escapes to heap", Count: 2},
		{File: "internal/vm/machine.go", Message: "moved to heap: scratch", Count: 1},
		{File: "internal/vm/machine.go", Message: "new(int) escapes to heap", Count: 1},
	}
	if len(sites) != len(want) {
		t.Fatalf("got %d sites, want %d: %+v", len(sites), len(want), sites)
	}
	for i := range want {
		if sites[i].File != want[i].File || sites[i].Message != want[i].Message || sites[i].Count != want[i].Count {
			t.Errorf("site %d = %+v, want %+v", i, sites[i], want[i])
		}
	}
	if sites[0].line != 42 {
		t.Errorf("first occurrence line = %d, want 42", sites[0].line)
	}
}

func allocBase(t *testing.T) *AllocBaseline {
	t.Helper()
	sites := ParseEscapes(sampleM, allocCfg().Files)
	b := NewBaseline(allocCfg(), "go1.24.0", sites, nil)
	// Give the RequireNote file entries their justifications.
	for i := range b.Sites {
		if strings.HasSuffix(b.Sites[i].File, "machine.go") {
			b.Sites[i].Note = "test justification"
		}
	}
	return b
}

func TestDiffAllocClean(t *testing.T) {
	b := allocBase(t)
	fs, stale, err := DiffAlloc(b, ParseEscapes(sampleM, allocCfg().Files), "go1.24.3", allocCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 || len(stale) != 0 {
		t.Fatalf("expected clean diff, got findings %+v stale %v", fs, stale)
	}
}

func TestDiffAllocNewSite(t *testing.T) {
	b := allocBase(t)
	cur := sampleM + "internal/vm/exec.go:120:9: make([]byte, n) escapes to heap\n"
	fs, _, err := DiffAlloc(b, ParseEscapes(cur, allocCfg().Files), "go1.24.0", allocCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Kind != "new-heap-escape" {
		t.Fatalf("expected one new-heap-escape, got %+v", fs)
	}
	if fs[0].File != "internal/vm/exec.go" || fs[0].Line != 120 {
		t.Errorf("finding anchored at %s:%d, want internal/vm/exec.go:120", fs[0].File, fs[0].Line)
	}
}

func TestDiffAllocGrowth(t *testing.T) {
	b := allocBase(t)
	cur := sampleM + "internal/vm/exec.go:200:14: &RuntimeError{...} escapes to heap\n"
	fs, _, err := DiffAlloc(b, ParseEscapes(cur, allocCfg().Files), "go1.24.0", allocCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Kind != "heap-escape-growth" {
		t.Fatalf("expected one heap-escape-growth, got %+v", fs)
	}
	if !strings.Contains(fs[0].Msg, "grew from 2 to 3") {
		t.Errorf("growth message = %q", fs[0].Msg)
	}
}

func TestDiffAllocUnjustified(t *testing.T) {
	sites := ParseEscapes(sampleM, allocCfg().Files)
	b := NewBaseline(allocCfg(), "go1.24.0", sites, nil) // no notes at all
	fs, _, err := DiffAlloc(b, sites, "go1.24.0", allocCfg())
	if err != nil {
		t.Fatal(err)
	}
	// machine.go has two entries, both noteless; exec.go needs none.
	var kinds []string
	for _, f := range fs {
		kinds = append(kinds, f.Kind)
	}
	if len(fs) != 2 || fs[0].Kind != "unjustified-escape" || fs[1].Kind != "unjustified-escape" {
		t.Fatalf("expected two unjustified-escape findings, got %v", kinds)
	}
}

func TestDiffAllocStaleIsWarning(t *testing.T) {
	b := allocBase(t)
	cur := strings.ReplaceAll(sampleM, "internal/vm/machine.go:12:9: new(int) escapes to heap\n", "")
	fs, stale, err := DiffAlloc(b, ParseEscapes(cur, allocCfg().Files), "go1.24.0", allocCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("improvement must not produce findings, got %+v", fs)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "new(int) escapes to heap") {
		t.Fatalf("expected one stale warning, got %v", stale)
	}
}

func TestDiffAllocToolchainMismatch(t *testing.T) {
	b := allocBase(t)
	_, _, err := DiffAlloc(b, nil, "go1.25.1", allocCfg())
	if err == nil || !strings.Contains(err.Error(), "toolchain") {
		t.Fatalf("expected toolchain mismatch error, got %v", err)
	}
}

func TestDiffAllocSchemaMismatch(t *testing.T) {
	b := allocBase(t)
	b.Schema = "lsr/alloc-baseline/v0"
	_, _, err := DiffAlloc(b, nil, "go1.24.0", allocCfg())
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("expected schema mismatch error, got %v", err)
	}
}

func TestNewBaselinePreservesNotes(t *testing.T) {
	old := allocBase(t)
	fresh := NewBaseline(allocCfg(), "go1.24.9", ParseEscapes(sampleM, allocCfg().Files), old)
	if fresh.GoVersion != "go1.24.9" {
		t.Errorf("GoVersion = %q", fresh.GoVersion)
	}
	for _, s := range fresh.Sites {
		if strings.HasSuffix(s.File, "machine.go") && s.Note != "test justification" {
			t.Errorf("note lost on refresh: %+v", s)
		}
	}
}

// TestRealBaselineReportsReintroducedBoxing runs the diff against the
// COMMITTED ALLOC_BASELINE.json (not a synthetic corpus): it simulates
// a hot-path regression by re-adding an interface-boxing escape that
// the tagged value representation removed ("xn + yn escapes to heap"
// was a real pre-overhaul site) and requires the gate to fire. This is
// the proof that the shrunken baseline actually protects the win: a
// PR that reintroduces per-result boxing in the dispatch loop cannot
// pass lsrvet.
func TestRealBaselineReportsReintroducedBoxing(t *testing.T) {
	data, err := os.ReadFile("../../ALLOC_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAllocConfig()
	cur := append([]AllocSite(nil), base.Sites...)
	boxing := AllocSite{
		File:    "internal/vm/exec.go",
		Message: "xn + yn escapes to heap",
		Count:   2,
		line:    314,
	}
	cur = append(cur, boxing)
	sortSites(cur)

	fs, stale, err := DiffAlloc(base, cur, base.GoVersion, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Errorf("unexpected stale entries: %v", stale)
	}
	if len(fs) != 1 || fs[0].Kind != "new-heap-escape" {
		t.Fatalf("expected exactly one new-heap-escape, got %+v", fs)
	}
	if !strings.Contains(fs[0].Msg, "xn + yn escapes to heap") {
		t.Errorf("finding does not name the boxing site: %q", fs[0].Msg)
	}

	// Sanity: the committed baseline itself must diff clean against its
	// own sites (no unjustified machine.go/value.go entries survive).
	if fs, _, err := DiffAlloc(base, base.Sites, base.GoVersion, cfg); err != nil || len(fs) != 0 {
		t.Fatalf("committed baseline not self-clean: err=%v findings=%+v", err, fs)
	}
}

// TestRealBaselineReportsReintroducedClosureAlloc: the closure-slab
// overhaul (PR 10) moved closure allocation off the Go heap and into
// the per-machine arena, so the committed ALLOC_BASELINE.json no
// longer carries a "&Closure{...} escapes to heap" entry for either
// engine. This test proves the shrunken baseline defends that win the
// same way the boxing test above defends the tagged representation: a
// PR that reverts an engine's OpClosure arm to a heap literal — or
// re-adds the per-closure make([]prim.Value, ...) free slice — cannot
// pass lsrvet.
func TestRealBaselineReportsReintroducedClosureAlloc(t *testing.T) {
	data, err := os.ReadFile("../../ALLOC_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range base.Sites {
		if strings.Contains(s.Message, "&Closure{...}") {
			t.Fatalf("baseline still carries a closure heap site (%+v); the slab overhaul should have removed it", s)
		}
	}
	cfg := DefaultAllocConfig()
	cur := append([]AllocSite(nil), base.Sites...)
	cur = append(cur,
		AllocSite{
			File:    "internal/vm/exec.go",
			Message: "&Closure{...} escapes to heap",
			Count:   1,
			line:    936,
		},
		AllocSite{
			File:    "internal/vm/exec.go",
			Message: "make([]prim.Value, len(d.regs)) escapes to heap",
			Count:   1,
			line:    928,
		})
	sortSites(cur)

	fs, stale, err := DiffAlloc(base, cur, base.GoVersion, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Errorf("unexpected stale entries: %v", stale)
	}
	if len(fs) != 2 {
		t.Fatalf("expected two new-heap-escape findings, got %+v", fs)
	}
	var sawClosure, sawSlice bool
	for _, f := range fs {
		if f.Kind != "new-heap-escape" {
			t.Errorf("finding kind = %q, want new-heap-escape", f.Kind)
		}
		if strings.Contains(f.Msg, "&Closure{...} escapes to heap") {
			sawClosure = true
		}
		if strings.Contains(f.Msg, "make([]prim.Value, len(d.regs)) escapes to heap") {
			sawSlice = true
		}
	}
	if !sawClosure || !sawSlice {
		t.Errorf("findings do not name both reintroduced closure sites: %+v", fs)
	}
}

// TestAllocScopeRejectsMissingFile: a scope entry that names no file
// of the package (a renamed or deleted hot-path file) fails the
// analyzer instead of silently shrinking the gate.
func TestAllocScopeRejectsMissingFile(t *testing.T) {
	if err := checkAllocScope("../..", DefaultAllocConfig()); err != nil {
		t.Fatalf("default scope rejected: %v", err)
	}
	cfg := DefaultAllocConfig()
	cfg.Files = append(cfg.Files, "fuse.go", "gone.go")
	_, _, err := MeasureEscapes("../..", cfg)
	if err == nil {
		t.Fatal("scope naming missing files was accepted")
	}
	if !strings.Contains(err.Error(), "fuse.go, gone.go") {
		t.Errorf("error does not name the missing files: %v", err)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	b := allocBase(t)
	var sb strings.Builder
	if err := b.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != b.Schema || got.GoVersion != b.GoVersion || len(got.Sites) != len(b.Sites) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range b.Sites {
		if got.Sites[i] != b.Sites[i] {
			t.Errorf("site %d = %+v, want %+v", i, got.Sites[i], b.Sites[i])
		}
	}
}
