package passes

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
)

func mustProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := ast.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestAssignConvertSet(t *testing.T) {
	p := mustProgram(t, "(let ([x 1]) (set! x 2) x)")
	out := AssignConvert(p)
	s := ast.Print(out.Body)
	for _, frag := range []string{"box", "set-box!", "unbox"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q in %s", frag, s)
		}
	}
}

func TestAssignConvertUnassignedUntouched(t *testing.T) {
	p := mustProgram(t, "(let ([x 1]) (+ x x))")
	out := AssignConvert(p)
	s := ast.Print(out.Body)
	if strings.Contains(s, "box") {
		t.Errorf("unassigned variable should not be boxed: %s", s)
	}
}

func TestAssignConvertLambdaParam(t *testing.T) {
	p := mustProgram(t, "(lambda (x) (set! x 1) x)")
	out := AssignConvert(p)
	lam := out.Body.(*ast.Lambda)
	// The parameter is renamed and re-bound via a box.
	let, ok := lam.Body.(*ast.Let)
	if !ok {
		t.Fatalf("expected let wrapper, got %s", ast.Print(lam.Body))
	}
	if !strings.Contains(ast.Print(let.Inits[0]), "box") {
		t.Errorf("param should be boxed: %s", ast.Print(let.Inits[0]))
	}
}

func TestAssignConvertLetrecOfLambdasKept(t *testing.T) {
	p := mustProgram(t, "(letrec ([f (lambda (n) (if (zero? n) 1 (f (- n 1))))]) (f 3))")
	out := AssignConvert(p)
	if _, ok := out.Body.(*ast.Letrec); !ok {
		t.Errorf("letrec of lambdas should remain a letrec: %s", ast.Print(out.Body))
	}
}

func TestAssignConvertLetrecGeneralBoxed(t *testing.T) {
	p := mustProgram(t, "(letrec ([x 1] [y (lambda () x)]) (y))")
	out := AssignConvert(p)
	if _, ok := out.Body.(*ast.Letrec); ok {
		t.Errorf("general letrec should lower to boxes: %s", ast.Print(out.Body))
	}
	s := ast.Print(out.Body)
	if !strings.Contains(s, "set-box!") {
		t.Errorf("general letrec should initialize via set-box!: %s", s)
	}
}

func convert(t *testing.T, src string) *ir.Program {
	t.Helper()
	p := AssignConvert(mustProgram(t, src))
	prog, err := ClosureConvert(p)
	if err != nil {
		t.Fatalf("closure convert: %v", err)
	}
	return prog
}

func TestClosureConvertBasics(t *testing.T) {
	prog := convert(t, "(define (f x) (+ x 1)) (f 2)")
	if len(prog.Procs) != 2 { // f and main
		t.Fatalf("got %d procs", len(prog.Procs))
	}
	main := prog.Procs[prog.MainIndex]
	if main.Name != "main" || len(main.Params) != 0 {
		t.Errorf("main misshapen: %s", ir.PrintProc(main))
	}
}

func TestFreeVariableCapture(t *testing.T) {
	prog := convert(t, "(lambda (x) (lambda (y) (+ x y)))")
	var inner *ir.Proc
	for _, p := range prog.Procs {
		if p.NFree == 1 {
			inner = p
		}
	}
	if inner == nil {
		t.Fatalf("no proc captures exactly one free var: %v", prog.Procs)
	}
	if inner.FreeNames[0] != "x" {
		t.Errorf("free var should be x, got %v", inner.FreeNames)
	}
	if !strings.Contains(ir.PrintProc(inner), "free 0") {
		t.Errorf("body should use free ref: %s", ir.PrintProc(inner))
	}
}

func TestNestedFreeVariablePropagation(t *testing.T) {
	// z is free in the innermost lambda and must propagate through the
	// middle lambda's closure.
	prog := convert(t, "(lambda (z) (lambda (y) (lambda (x) (+ x (+ y z)))))")
	count := 0
	for _, p := range prog.Procs {
		count += p.NFree
	}
	// inner captures {y z} (2), middle captures {z} (1).
	if count != 3 {
		t.Errorf("total free slots = %d, want 3", count)
	}
}

func TestPrimOpenCoding(t *testing.T) {
	prog := convert(t, "(car '(1 2))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if !strings.Contains(s, "%car") {
		t.Errorf("car should be open-coded: %s", s)
	}
}

func TestPrimNotOpenCodedWhenRedefined(t *testing.T) {
	prog := convert(t, "(define (car x) 42) (car '(1 2))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if strings.Contains(s, "%car") {
		t.Errorf("redefined car must not be open-coded: %s", s)
	}
}

func TestPrimNotOpenCodedWhenSet(t *testing.T) {
	prog := convert(t, "(set! cdr 99) (cdr '(1 2))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if strings.Contains(s, "%cdr") {
		t.Errorf("assigned cdr must not be open-coded: %s", s)
	}
}

func TestPrimArityError(t *testing.T) {
	p := AssignConvert(mustProgram(t, "(cons 1)"))
	if _, err := ClosureConvert(p); err == nil {
		t.Error("expected arity error for (cons 1)")
	}
}

func TestTailPositionMarking(t *testing.T) {
	prog := convert(t, "(define (f x) (if x (f (- x 1)) (g x))) (f 1)")
	var f *ir.Proc
	for _, p := range prog.Procs {
		if p.Name == "f" {
			f = p
		}
	}
	s := ir.PrintProc(f)
	if !strings.Contains(s, "(tailcall") {
		t.Errorf("recursive calls in tail position should be tail calls: %s", s)
	}
	// The call inside main's body position... f's body if-branches are tail.
	if strings.Count(s, "(tailcall") != 2 {
		t.Errorf("both branch calls are tail calls: %s", s)
	}
}

func TestNonTailInsideArgs(t *testing.T) {
	prog := convert(t, "(define (f x) (+ (f x) 1)) (f 1)")
	var f *ir.Proc
	for _, p := range prog.Procs {
		if p.Name == "f" {
			f = p
		}
	}
	s := ir.PrintProc(f)
	if strings.Contains(s, "(tailcall") {
		t.Errorf("call inside prim args is not a tail call: %s", s)
	}
	if !strings.Contains(s, "(call") {
		t.Errorf("expected a non-tail call: %s", s)
	}
}

func TestFixConversion(t *testing.T) {
	prog := convert(t, "(let loop ([i 0]) (if (= i 3) i (loop (+ i 1))))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if !strings.Contains(s, "(fix (") {
		t.Errorf("named let should become fix: %s", s)
	}
}

func TestCallCCConversion(t *testing.T) {
	prog := convert(t, "(call/cc (lambda (k) (k 1)))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if !strings.Contains(s, "call/cc") {
		t.Errorf("expected call/cc node: %s", s)
	}
}

func TestGlobalsTable(t *testing.T) {
	prog := convert(t, "(define x 1) (+ x y)")
	foundX, foundY := false, false
	for i, n := range prog.GlobalNames {
		switch n {
		case "x":
			foundX = true
			if !prog.UserGlobals[i] {
				t.Error("x should be a user global")
			}
		case "y":
			foundY = true
			if prog.UserGlobals[i] {
				t.Error("y should not be a user global")
			}
		}
	}
	if !foundX || !foundY {
		t.Errorf("globals table incomplete: %v", prog.GlobalNames)
	}
}
