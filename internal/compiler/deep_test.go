package compiler

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// deepShapes are the nesting shapes whose compile time must stay linear
// in depth: the allocator's passes visit each node a bounded number of
// times (§3.1), so no subtree may be re-walked per enclosing node.
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
