package compiler

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// deepShapes are the shapes whose compile time must stay linear in
// depth (for the wide tail call, in width): the allocator's passes
// visit each node a bounded number of times (§3.1), so no subtree may
// be re-walked per enclosing node or per sibling argument.
var deepShapes = []struct {
	name string
	src  func(depth int) string
}{
	// Primitive applications nested in primitive applications.
	{"car-nest", func(n int) string {
		return "(define (f) " + strings.Repeat("(car ", n) + "'" +
			strings.Repeat("(", n) + "1" + strings.Repeat(")", 2*n) + ")\n(f)"
	}},
	// A primitive whose second operand is the next level.
	{"sum-nest", func(n int) string {
		return "(define (f v) " + strings.Repeat("(+ v ", n) + "0" +
			strings.Repeat(")", n) + ")\n(f 1)"
	}},
	// Calls nested in call arguments.
	{"call-nest", func(n int) string {
		return "(define (id x) x)\n(define (f) " + strings.Repeat("(id ", n) + "1" +
			strings.Repeat(")", n) + ")\n(f)"
	}},
	// Not a nest: a self tail call n arguments wide, arguments
	// reversed, so the slot of almost every stack argument is read by
	// a later argument and the emitter must decide, per argument,
	// whether it can be stored directly.
	{"wide-tail-call", wideTailCall},
}

// wideTailCall is a procedure of n parameters that tail-calls itself
// with its parameters in reverse order.
func wideTailCall(n int) string {
	var params, rev, args strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&params, " x%d", i)
		fmt.Fprintf(&rev, " x%d", n-1-i)
		fmt.Fprintf(&args, " %d", i)
	}
	return fmt.Sprintf("(define (f%s) (if (zero? x0) x1 (f%s)))\n(f%s)", params.String(), rev.String(), args.String())
}

// TestCompileDeepLinear compiles each deep shape at depth 16,000. A
// compiler that re-walks argument subtrees at every level needs tens of
// seconds here; a linear one needs a fraction of a second, which leaves
// the 2 s bound room for the race detector.
func TestCompileDeepLinear(t *testing.T) {
	const depth, bound = 16000, 2 * time.Second
	for _, s := range deepShapes {
		t.Run(s.name, func(t *testing.T) {
			src := s.src(depth)
			start := time.Now()
			if _, err := Compile(src, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > bound {
				t.Errorf("depth %d compiled in %v, want under %v", depth, d, bound)
			}
		})
	}
}

// TestCompileWideTailCallLinear requires the wide tail call to compile
// in time linear in its width: quadrupling the width from 8k to 32k
// may cost at most 8x (linear code costs about 4x; a per-argument scan
// of the later arguments costs about 14x). A ratio of best-of-3 times
// holds on a slow or drifting host and under the race detector.
func TestCompileWideTailCallLinear(t *testing.T) {
	best := func(n int) time.Duration {
		src := wideTailCall(n)
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := Compile(src, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); i == 0 || d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(8000), best(32000)
	t.Logf("width 8000: %v, width 32000: %v", small, large)
	if ratio := float64(large) / float64(small); ratio > 8 {
		t.Errorf("width 8000 compiled in %v, width 32000 in %v: ratio %.1f, want at most 8", small, large, ratio)
	}
}

// BenchmarkCompileDeep reports the compile time of each deep shape as
// the depth doubles (informational: linear code costs about 2x per
// row).
func BenchmarkCompileDeep(b *testing.B) {
	for _, s := range deepShapes {
		for _, depth := range []int{2000, 4000, 8000, 16000} {
			src := s.src(depth)
			b.Run(fmt.Sprintf("%s/depth=%d", s.name, depth), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Compile(src, DefaultOptions()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
