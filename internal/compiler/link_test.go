package compiler

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/prim"
	"repro/internal/vm"
)

// TestSyntaxErrorPositionsAreUserRelative: the reader sees only the
// user's source, so its error positions point into that source.
func TestSyntaxErrorPositionsAreUserRelative(t *testing.T) {
	src := "(define x 1)\n  (car"
	for _, noPrelude := range []bool{false, true} {
		opts := DefaultOptions()
		opts.NoPrelude = noPrelude
		_, err := Compile(src, opts)
		if err == nil || err.Error() != "sexp: 2:7: unterminated list" {
			t.Errorf("Compile (NoPrelude=%t) error = %v, want sexp: 2:7: unterminated list", noPrelude, err)
		}
		if _, err := Interpret(src, noPrelude, nil); err == nil || err.Error() != "sexp: 2:7: unterminated list" {
			t.Errorf("Interpret (noPrelude=%t) error = %v, want sexp: 2:7: unterminated list", noPrelude, err)
		}
	}
}

// TestInvalidConfigErrorOrder: as in a whole-program compile, the user
// code's conversion errors come before an invalid register
// configuration's, and an invalid configuration caches no fragment.
func TestInvalidConfigErrorOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.Config.ScratchRegs = 0
	if _, err := Compile("(cons 1)", opts); err == nil || !strings.Contains(err.Error(), "cons") {
		t.Errorf("arity error under an invalid configuration: got %v", err)
	}
	if _, err := Compile("(+ 1 2)", opts); err == nil || !strings.Contains(err.Error(), "invalid register configuration") {
		t.Errorf("invalid configuration: got %v", err)
	}
	fragments.mu.Lock()
	defer fragments.mu.Unlock()
	for _, e := range fragments.entries {
		if e.key.opts.Config == opts.Config {
			t.Errorf("fragment cached under the invalid configuration %+v", opts.Config)
		}
	}
}

// TestShadowKey: only user definitions and assignments of names the
// prelude uses without defining select a separate fragment.
func TestShadowKey(t *testing.T) {
	f, err := frontFor(false)
	if err != nil {
		t.Fatal(err)
	}
	for src, want := range map[string]string{
		"(+ 1 2)":                           "[]",
		"(define (car p) p) (car 1)":        "[car]",
		"(set! null? pair?) (null? 1)":      "[null?]",
		"(define (map f l) l) (map car 1)":  "[]",
		"(define (g) (set! cdr car)) (g)":   "[cdr]",
		"(define unrelated 1) (set! car 2)": "[car]",
	} {
		user, err := f.parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(f.shadowedBy(user)); got != want {
			t.Errorf("%s: shadow set %s, want %s", src, got, want)
		}
	}
}

// TestCompileSnippetAllocs gates the cost of a small compile: with the
// prelude fragment cached, (+ 1 2) compiles in at most 640 allocations,
// a tenth of recompiling the prelude (6,393 allocations).
func TestCompileSnippetAllocs(t *testing.T) {
	opts := DefaultOptions()
	if _, err := Compile("(+ 1 2)", opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Compile("(+ 1 2)", opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 640 {
		t.Errorf("(+ 1 2) compiles in %.0f allocations, want at most 640", allocs)
	}
}

// BenchmarkCompileSnippet reports a cold compile of (+ 1 2) with the
// prelude fragment cached (target: at most 50 µs).
func BenchmarkCompileSnippet(b *testing.B) {
	opts := DefaultOptions()
	if _, err := Compile("(+ 1 2)", opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile("(+ 1 2)", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func cachedFragments() int {
	fragments.mu.Lock()
	defer fragments.mu.Unlock()
	return len(fragments.entries)
}

// TestFragmentCacheBounded: compiling under 1,000 distinct register
// configurations leaves the fragment cache at its constant bound.
func TestFragmentCacheBounded(t *testing.T) {
	opts := DefaultOptions()
	// Under -short the fragments are the empty library's, which are
	// cheap to build; the cache treats both libraries alike.
	opts.NoPrelude = testing.Short()
	n := 0
	for a := 0; a < 10; a++ {
		for u := 0; u < 10; u++ {
			for s := 1; s <= 10; s++ {
				opts.Config = vm.Config{ArgRegs: a, UserRegs: u, ScratchRegs: s}
				c, err := Compile("(+ 1 2)", opts)
				if err != nil {
					t.Fatalf("%+v: %v", opts.Config, err)
				}
				if v, err := vm.New(c.Program, nil).Run(); err != nil || prim.WriteString(v) != "3" {
					t.Fatalf("%+v: got %v, %v", opts.Config, v, err)
				}
				n++
				if got := cachedFragments(); got > fragmentCacheSize {
					t.Fatalf("after %d configurations the cache holds %d fragments, bound %d", n, got, fragmentCacheSize)
				}
			}
		}
	}
	if n != 1000 {
		t.Fatalf("compiled under %d configurations, want 1000", n)
	}
	if got := cachedFragments(); got != fragmentCacheSize {
		t.Errorf("cache holds %d fragments, want the bound %d", got, fragmentCacheSize)
	}
}

// fragmentSum checksums the code and constants a fragment contributes,
// as seen through a link of the empty program.
func fragmentSum(t *testing.T, opts Options) [32]byte {
	t.Helper()
	c, err := Compile("", opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprint(h, c.Program.Disassemble())
	for _, k := range c.Program.Consts {
		fmt.Fprintln(h, prim.WriteString(k))
	}
	fmt.Fprintf(h, "%+v", c.Program.Procs)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// TestConcurrentCompileAcrossOptions compiles under several option sets
// at once (run it under -race): the shared fragments must come out
// unwritten, and every compile must match a sequential one.
func TestConcurrentCompileAcrossOptions(t *testing.T) {
	var sets []Options
	for _, saves := range []codegen.SaveStrategy{codegen.SaveLazy, codegen.SaveEarly, codegen.SaveLate} {
		for _, cfg := range []vm.Config{vm.DefaultConfig(), {ArgRegs: 2, UserRegs: 1, ScratchRegs: 8}} {
			opts := DefaultOptions()
			opts.Saves = saves
			opts.Config = cfg
			sets = append(sets, opts)
		}
	}
	progs := []string{
		"(+ 1 2)",
		"(define (f x) (cons x (reverse (list x 2 3)))) (f (length (map car '((1) (2)))))",
		"(define (car p) (cdr p)) (map car '((1 . 2) (3 . 4)))",
		"(let loop ([i 0] [acc '()]) (if (= i 20) (length acc) (loop (+ i 1) (cons i acc))))",
	}
	want := map[string]string{}
	before := map[int][32]byte{}
	for i, opts := range sets {
		before[i] = fragmentSum(t, opts)
		for _, src := range progs {
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(i, src)] = c.Program.Disassemble()
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (w + r) % len(sets)
				for _, src := range progs {
					c, err := Compile(src, sets[i])
					if err != nil {
						errs <- err
						return
					}
					if c.Program.Disassemble() != want[fmt.Sprint(i, src)] {
						errs <- fmt.Errorf("option set %d: %q compiled differently under concurrency", i, src)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, opts := range sets {
		if fragmentSum(t, opts) != before[i] {
			t.Errorf("option set %d: the fragment's code or constants changed", i)
		}
	}
}

// TestInterpretConcurrentSharedPrelude runs the interpreter on several
// programs at once over the shared, once-parsed prelude (run it under
// -race). Two mutate quoted lists, which the interpreter copies.
func TestInterpretConcurrentSharedPrelude(t *testing.T) {
	progs := map[string]string{
		"(define l '(1 2 3)) (set-car! l 9) (append l (reverse l))":                                  "(9 2 3 3 2 9)",
		"(fold-left + 0 (map (lambda (x) (* x x)) (iota 10)))":                                       "285",
		"(define (f) '(a b)) (set-car! (f) 'z) (list (f) (length (f)))":                              "((a b) 2)",
		"(let loop ([i 0]) (if (< i 50) (begin (memq i '(1 2)) (loop (+ i 1))) (list-copy '(x y))))": "(x y)",
	}
	var wg sync.WaitGroup
	for src, want := range progs {
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(src, want string) {
				defer wg.Done()
				v, err := Interpret(src, false, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := prim.WriteString(v); got != want {
					t.Errorf("%s = %s, want %s", src, got, want)
				}
			}(src, want)
		}
	}
	wg.Wait()
}
