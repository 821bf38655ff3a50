package verify_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/verify"
	"repro/internal/vm"
)

// wideProgram compiles (length (list 0 … n-1)): one call with n
// arguments, so the abstract state of main carries about n outgoing
// slots.
func wideProgram(t testing.TB, n int) *vm.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("(length (list")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " %d", i)
	}
	b.WriteString("))")
	c, err := compiler.Compile(b.String(), compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile width %d: %v", n, err)
	}
	return c.Program
}

// checkBytes returns the heap bytes one verify.Check of p allocates,
// failing the test if the wide unit has any finding.
func checkBytes(t *testing.T, p *vm.Program, n int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := verify.Check(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("width %d: %v", n, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckLinearInWidth guards against the verifier storing a full
// abstract state per instruction: the state of a wide call grows with
// its argument count, so per-instruction storage makes the bytes
// verify.Check allocates quadratic in the width. Doubling the width
// must at most about double them.
func TestCheckLinearInWidth(t *testing.T) {
	const n = 1000
	small, large := wideProgram(t, n), wideProgram(t, 2*n)
	bs := checkBytes(t, small, n)
	bl := checkBytes(t, large, 2*n)
	ratio := float64(bl) / float64(bs)
	t.Logf("verify.Check bytes: width %d: %d, width %d: %d, ratio %.2f", n, bs, 2*n, bl, ratio)
	if ratio > 2.2 {
		t.Errorf("verify.Check bytes grew %.2fx when the width doubled (%d -> %d); want <= 2.2x", ratio, bs, bl)
	}
}

// BenchmarkCheckWide times verify.Check on (length (list 0 … n-1)).
func BenchmarkCheckWide(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			p := wideProgram(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := verify.Check(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckSuite times one round of verify and lint over the
// benchmark suite plus a 300-wide unit, compiled with the paper's
// options.
func BenchmarkCheckSuite(b *testing.B) {
	var progs []*vm.Program
	for _, bp := range bench.All() {
		c, err := compiler.Compile(bp.Source, bench.PaperOptions())
		if err != nil {
			b.Fatalf("%s: %v", bp.Name, err)
		}
		progs = append(progs, c.Program)
	}
	progs = append(progs, wideProgram(b, 300))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			verify.Program(p)
			analysis.Analyze(p)
		}
	}
}
