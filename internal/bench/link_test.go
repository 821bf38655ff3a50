package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/passes"
	"repro/internal/prelude"
	"repro/internal/prim"
	"repro/internal/vm"
)

// wholeProgram is the compile pipeline without linking: prelude and
// source read, converted and allocated as one program.
func wholeProgram(src string, opts compiler.Options) (*vm.Program, codegen.Stats, error) {
	prog, err := ast.ParseString(prelude.Source + "\n" + src)
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	irProg, err := passes.ClosureConvert(passes.AssignConvert(prog))
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	return codegen.Compile(irProg, opts.Options)
}

// checkLinkIdentity requires Compile(src) to equal both references:
// Compile of the prelude text and src under NoPrelude, and the unlinked
// whole-program pipeline.
func checkLinkIdentity(t *testing.T, name, src string, opts compiler.Options) {
	t.Helper()
	got, err := compiler.Compile(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	refOpts := opts
	refOpts.NoPrelude = true
	ref, err := compiler.Compile(prelude.Source+"\n"+src, refOpts)
	if err != nil {
		t.Fatalf("%s: NoPrelude reference: %v", name, err)
	}
	whole, wholeStats, err := wholeProgram(src, opts)
	if err != nil {
		t.Fatalf("%s: whole-program reference: %v", name, err)
	}
	for _, r := range []struct {
		what  string
		prog  *vm.Program
		stats codegen.Stats
	}{{"NoPrelude", ref.Program, ref.Stats}, {"whole-program", whole, wholeStats}} {
		if got.Stats != r.stats {
			t.Errorf("%s: stats differ from the %s reference:\n got %+v\nwant %+v", name, r.what, got.Stats, r.stats)
		}
		if g, w := got.Program.Disassemble(), r.prog.Disassemble(); g != w {
			t.Errorf("%s: disassembly differs from the %s reference (%d vs %d bytes)", name, r.what, len(g), len(w))
		} else if !reflect.DeepEqual(got.Program, r.prog) {
			t.Errorf("%s: vm.Program differs from the %s reference", name, r.what)
		}
	}
}

// TestLinkIdentity: linking user code onto the cached prelude fragment
// emits exactly what compiling prelude and user code together does, for
// every suite program under every sweep configuration.
func TestLinkIdentity(t *testing.T) {
	for _, c := range sweepConfigs() {
		for _, p := range All() {
			checkLinkIdentity(t, p.Name+" under "+c.name, p.Source, c.opts)
		}
	}
}

// linkSnippets mirror the compile workload's unit shapes: a tagged
// small snippet, deep nesting and a wide argument list.
func linkSnippets() map[string]string {
	tag := "(define unit-tag-7 12345)\n"
	deep := func(n int) string {
		return strings.Repeat("(car ", n) + "'" + strings.Repeat("(", n) + "9" + strings.Repeat(")", 2*n)
	}
	sum := func(n int) string {
		return strings.Repeat("(+ 1 ", n) + "0" + strings.Repeat(")", n)
	}
	wide := func(head string, n int) string {
		var b strings.Builder
		b.WriteString(head + " (list")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " %d", i)
		}
		return b.String() + "))"
	}
	return map[string]string{
		"empty":       "",
		"add":         "(+ 1 2)",
		"arith":       tag + "(+ 4 (* 5 6))",
		"map-iota":    tag + "(length (map (lambda (x) (* x 3)) (iota 20)))",
		"fold":        tag + "(fold-left + 0 (list 1 2 3 4))",
		"loop":        tag + "(let loop ((i 0) (acc 0)) (if (= i 9) acc (loop (+ i 1) (+ acc 2))))",
		"reverse":     tag + "(car (reverse (list 1 2 3)))",
		"square":      tag + "(define (sq x) (* x x))\n(sq 7)",
		"gensyms":     tag + "(define (f x) (cond [(memq x '(a b)) => car] [else (or x 1)])) (f 'a)",
		"car-nest":    tag + deep(120),
		"sum-nest":    tag + sum(120),
		"list-length": tag + wide("(length", 150),
		"list-sum":    tag + wide("(fold-left + 0", 150),
	}
}

// linkShadows define or assign names the prelude's code depends on.
// Their results also match the reference interpreter's.
var linkShadows = map[string]string{
	"define-car":   "(define (car p) (if (pair? p) (cdr p) p)) (map (lambda (x) x) '((1 2) (3 4)))",
	"set-null?":    "(set! null? (lambda (x) (eq? x '()))) (list (length '(1 2 3)) (null? '()))",
	"redefine-map": "(define (map f l) (if (null? l) '() (cons (f (car l)) (map f (cdr l))))) (map (lambda (x) (+ x 1)) '(1 2 3))",
}

// boxShadow redefines box, which the boxes of assignment conversion
// call, so the compiled program fails where the interpreter (which does
// no assignment conversion) does not. Linking must still reproduce the
// whole-program compile.
const boxShadow = "(define (box x) (cons 'boxed x)) (let ([v 1]) (set! v 2) v)"

func TestLinkIdentitySnippetsAndShadows(t *testing.T) {
	for _, c := range sweepConfigs() {
		for name, src := range linkSnippets() {
			checkLinkIdentity(t, name+" under "+c.name, src, c.opts)
		}
		for name, src := range linkShadows {
			checkLinkIdentity(t, name+" under "+c.name, src, c.opts)
		}
		checkLinkIdentity(t, "define-box under "+c.name, boxShadow, c.opts)
	}
	for name, src := range linkShadows {
		want, err := compiler.Interpret(src, false, nil)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", name, err)
		}
		got, _, err := compiler.Run(src, PaperOptions(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prim.WriteString(got) != prim.WriteString(want) {
			t.Errorf("%s: compiled %s, interpreted %s", name, prim.WriteString(got), prim.WriteString(want))
		}
	}
}
