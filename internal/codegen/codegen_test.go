package codegen

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/prim"
	"repro/internal/regset"
	"repro/internal/vm"
)

// build lowers source through the front end into IR (no prelude).
func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := ast.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	irProg, err := passes.ClosureConvert(passes.AssignConvert(prog))
	if err != nil {
		t.Fatal(err)
	}
	return irProg
}

func procByName(t *testing.T, p *ir.Program, name string) *ir.Proc {
	t.Helper()
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	t.Fatalf("no proc %q", name)
	return nil
}

func TestAssignLocationsParams(t *testing.T) {
	prog := build(t, "(define (f a b c) (+ a b c)) (f 1 2 3)")
	cg := &codegen{opts: Options{Config: vm.Config{ArgRegs: 2, UserRegs: 2, ScratchRegs: 8}}}
	f := procByName(t, prog, "f")
	stackParams, _ := cg.assignLocations(f)
	if stackParams != 1 {
		t.Errorf("stackParams = %d, want 1", stackParams)
	}
	if f.Params[0].Loc.Kind != ir.LocReg || f.Params[0].Loc.Index != cg.opts.Config.ArgReg(0) {
		t.Errorf("param a placed at %v", f.Params[0].Loc)
	}
	if f.Params[2].Loc.Kind != ir.LocSlot || f.Params[2].Loc.Index != 0 {
		t.Errorf("param c placed at %v", f.Params[2].Loc)
	}
}

func TestAssignLocationsScopeReuse(t *testing.T) {
	// Two sibling lets must reuse the same user register.
	prog := build(t, `
(define (f a)
  (+ (let ([x (+ a 1)]) x)
     (let ([y (+ a 2)]) y)))
(f 1)`)
	cg := &codegen{opts: Options{Config: vm.Config{ArgRegs: 2, UserRegs: 1, ScratchRegs: 8}}}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	var locs []ir.Loc
	var collect func(e ir.Expr)
	collect = func(e ir.Expr) {
		switch n := e.(type) {
		case *ir.Bind:
			locs = append(locs, n.Var.Loc)
			collect(n.Rhs)
			collect(n.Body)
		case *ir.PrimCall:
			for _, a := range n.Args {
				collect(a)
			}
		case *ir.Seq:
			for _, a := range n.Exprs {
				collect(a)
			}
		}
	}
	collect(f.Body)
	if len(locs) != 2 {
		t.Fatalf("found %d binds", len(locs))
	}
	if locs[0] != locs[1] {
		t.Errorf("sibling binds should share a register: %v vs %v", locs[0], locs[1])
	}
	if locs[0].Kind != ir.LocReg {
		t.Errorf("expected register placement, got %v", locs[0])
	}
}

func TestAssignLocationsSlotOverflow(t *testing.T) {
	// With zero user registers, nested lets go to distinct frame slots.
	prog := build(t, `
(define (f a)
  (let ([x (+ a 1)])
    (let ([y (+ x 1)])
      (+ x y))))
(f 1)`)
	cg := &codegen{opts: Options{Config: vm.BaselineConfig()}}
	f := procByName(t, prog, "f")
	_, varSlots := cg.assignLocations(f)
	if varSlots != 2 {
		t.Errorf("varSlots = %d, want 2", varSlots)
	}
}

func TestAnalyzeAnnotations(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a)
  (if (< a 0)
      a
      (+ 1 (g a))))
(f 1)`)
	opts := DefaultOptions()
	cg := &codegen{opts: opts}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	entrySaves := cg.analyzeProc(f)

	// f has a call-free path (the then branch), so nothing is saved at
	// entry under the lazy strategy...
	if !entrySaves.IsEmpty() {
		t.Errorf("entry saves = %s, want empty", entrySaves)
	}
	if f.SyntacticLeaf {
		t.Error("f is not a syntactic leaf")
	}
	if f.CallInevitable {
		t.Error("f has a call-free path")
	}
	// ...and the else branch carries the saves. Only ret is live after
	// the call (a's last use is as the argument), so only ret is saved.
	iff := findIf(f.Body)
	if iff == nil {
		t.Fatal("no if in body")
	}
	if !iff.ThenSaves.IsEmpty() {
		t.Errorf("then-branch saves = %s, want empty", iff.ThenSaves)
	}
	aReg := f.Params[0].Loc.Index
	if !iff.ElseSaves.Has(retReg) {
		t.Errorf("else-branch saves = %s, want ret", iff.ElseSaves)
	}
	if iff.ElseSaves.Has(aReg) {
		t.Errorf("a (r%d) is dead after the call and must not be saved: %s", aReg, iff.ElseSaves)
	}

	// The call is annotated with liveness and restore information.
	call := findCall(f.Body)
	if call == nil {
		t.Fatal("no call in body")
	}
	if !call.LiveAfter.Has(retReg) {
		t.Errorf("ret should be live after the call: %s", call.LiveAfter)
	}
	if !call.RefsAfter.Has(retReg) {
		t.Errorf("ret is referenced before the next call (the return): %s", call.RefsAfter)
	}
}

func TestAnalyzeCallInevitable(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a) (+ 1 (g a)))
(f 1)`)
	cg := &codegen{opts: DefaultOptions()}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	saves := cg.analyzeProc(f)
	if !f.CallInevitable {
		t.Error("every path through f calls")
	}
	if !saves.Has(retReg) {
		t.Errorf("ret must be saved at entry: %s", saves)
	}
}

func TestEarlyStrategySavesAtEntry(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a)
  (if (< a 0) a (+ 1 (g a))))
(f 1)`)
	opts := DefaultOptions()
	opts.Saves = SaveEarly
	cg := &codegen{opts: opts}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	saves := cg.analyzeProc(f)
	// Early saves at entry everything ever live across a call — even
	// though the then-path never calls.
	if !saves.Has(retReg) {
		t.Errorf("early strategy should save ret at entry: %s", saves)
	}
	iff := findIf(f.Body)
	if !iff.ThenSaves.IsEmpty() || !iff.ElseSaves.IsEmpty() {
		t.Error("early strategy places no branch saves")
	}
}

func TestLateStrategyAnnotatesCalls(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a) (+ a (g a)))
(f 1)`)
	opts := DefaultOptions()
	opts.Saves = SaveLate
	cg := &codegen{opts: opts}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	saves := cg.analyzeProc(f)
	if !saves.IsEmpty() {
		t.Errorf("late strategy saves nothing at entry: %s", saves)
	}
	call := findCall(f.Body)
	if call.LateSaves.IsEmpty() {
		t.Error("late strategy should annotate the call with saves")
	}
}

// TestRegReads checks scan's register-read fact and its record on the
// shuffle problem.
func TestRegReads(t *testing.T) {
	prog := build(t, `
(define (f a b)
  (g (+ a 1) (h b)))
(f 1 2)`)
	cg := &codegen{opts: DefaultOptions()}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	aReg := f.Params[0].Loc.Index
	bReg := f.Params[1].Loc.Index
	call := findCall(f.Body) // outermost (tail) call to g
	a := &analyzer{cg: cg}
	_, reads := a.scan(call)
	if !reads.Has(aReg) || !reads.Has(bReg) {
		t.Errorf("call reads %s, want a (r%d) and b (r%d)", reads, aReg, bReg)
	}
	// Tail calls read ret.
	if !reads.Has(retReg) {
		t.Errorf("tail call should read ret: %s", reads)
	}
	// Each shuffle argument carries its own reads and call-ness.
	if sa := call.ShuffleArgs[0]; sa.Reads != regset.Single(aReg) || sa.Complex {
		t.Errorf("(+ a 1): reads %s complex %v, want {r%d} false", sa.Reads, sa.Complex, aReg)
	}
	if sa := call.ShuffleArgs[1]; sa.Reads != regset.Single(bReg) || !sa.Complex {
		t.Errorf("(h b): reads %s complex %v, want {r%d} true", sa.Reads, sa.Complex, bReg)
	}

	// A binder hides the body's reads of its register, unless its own
	// right-hand side reads that register (the conservative rule).
	x := regVar("x", 3)
	y, yShadow := regVar("y", 4), regVar("y0", 4)
	body := &ir.PrimCall{Args: []ir.Expr{&ir.VarRef{Var: x}, &ir.VarRef{Var: y}}}
	for _, c := range []struct {
		rhs  ir.Expr
		want regset.Set
	}{
		{&ir.Const{Value: prim.FixV(1)}, regset.Of(3)},
		{&ir.VarRef{Var: yShadow}, regset.Of(3, 4)},
	} {
		if _, got := a.scan(&ir.Bind{Var: y, Rhs: c.rhs, Body: body}); got != c.want {
			t.Errorf("bind y %s: reads %s, want %s", ir.Print(c.rhs), got, c.want)
		}
	}
}

func regVar(name string, reg int) *ir.Var {
	return &ir.Var{Name: name, Loc: ir.Loc{Kind: ir.LocReg, Index: reg}, SaveSlot: -1, CSReg: -1}
}

// TestCallFacts checks scan's call-ness fact on every expression form.
// A tail call is a jump, but calls nested in its arguments count; a
// closure record is call-free.
func TestCallFacts(t *testing.T) {
	x := regVar("x", 3)
	call := &ir.Call{Fn: &ir.GlobalRef{Name: "f"}, Args: []ir.Expr{&ir.VarRef{Var: x}}}
	tail := &ir.Call{Fn: &ir.GlobalRef{Name: "f"}, Tail: true}

	cases := []struct {
		name string
		e    ir.Expr
		want bool
	}{
		{"const", &ir.Const{Value: prim.FixV(1)}, false},
		{"var", &ir.VarRef{Var: x}, false},
		{"call", call, true},
		{"tail-call-alone", tail, false},
		{"call-inside-tail-args", &ir.Call{Fn: &ir.GlobalRef{Name: "g"}, Args: []ir.Expr{call}, Tail: true}, true},
		{"call-as-tail-operator", &ir.Call{Fn: call, Tail: true}, true},
		{"seq", &ir.Seq{Exprs: []ir.Expr{&ir.Const{Value: prim.FixV(1)}, call}}, true},
		{"if-no-calls", &ir.If{Test: &ir.VarRef{Var: x}, Then: &ir.VarRef{Var: x}, Else: &ir.VarRef{Var: x}}, false},
		{"if-one-arm", &ir.If{Test: &ir.VarRef{Var: x}, Then: call, Else: &ir.VarRef{Var: x}}, true},
		{"bind-rhs", &ir.Bind{Var: x, Rhs: call, Body: &ir.VarRef{Var: x}}, true},
		{"prim-args", &ir.PrimCall{Args: []ir.Expr{call}}, true},
		{"closure", &ir.MakeClosure{ProcIndex: 0, Free: nil}, false},
		{"global-set", &ir.GlobalSet{Rhs: call}, true},
		{"fix-body", &ir.Fix{Vars: []*ir.Var{x}, Closures: []*ir.MakeClosure{{}}, Body: call, SaveVars: []bool{false}}, true},
		{"save", &ir.Save{Body: call}, true},
	}
	a := &analyzer{cg: &codegen{opts: DefaultOptions()}}
	for _, c := range cases {
		if got, _ := a.scan(c.e); got != c.want {
			t.Errorf("%s: calls = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestArgOrder checks the evaluation orders scan records: call-containing
// arguments first, then call-free ones, each group in source order.
func TestArgOrder(t *testing.T) {
	x := regVar("x", 3)
	call := func() ir.Expr { return &ir.Call{Fn: &ir.GlobalRef{Name: "f"}} }
	simple := func() ir.Expr { return &ir.VarRef{Var: x} }
	cg := &codegen{opts: Options{Config: vm.Config{ArgRegs: 1, UserRegs: 2, ScratchRegs: 8}}}
	a := &analyzer{cg: cg}

	p := &ir.PrimCall{Args: []ir.Expr{simple(), call(), simple(), call()}}
	a.scan(p)
	if got := p.Order; !slices.Equal(got.Calls(), []int{1, 3}) || !slices.Equal(got.Simple(), []int{0, 2}) {
		t.Errorf("primitive order %v (%d calls), want calls [1 3] then [0 2]", got.Index, got.NCalls)
	}

	// One register argument; the rest go on the stack.
	c := &ir.Call{Fn: call(), Args: []ir.Expr{call(), simple(), call(), simple()}, Tail: true}
	a.scan(c)
	if got := c.StackOrder; !slices.Equal(got.Calls(), []int{2}) || !slices.Equal(got.Simple(), []int{1, 3}) {
		t.Errorf("stack order %v (%d calls), want calls [2] then [1 3]", got.Index, got.NCalls)
	}
	if len(c.ShuffleArgs) != 2 || !c.ShuffleArgs[0].Complex || !c.ShuffleArgs[1].Complex ||
		c.ShuffleArgs[1].Target != cpReg || c.ShuffleExpr(1) != c.Fn {
		t.Errorf("shuffle problem %+v: want the call argument then the operator targeting cp", c.ShuffleArgs)
	}

	leaf := &ir.PrimCall{}
	a.scan(leaf)
	if len(leaf.Order.Index) != 0 {
		t.Errorf("nullary primitive order %v, want empty", leaf.Order.Index)
	}
}

// TestSyntacticLeaf: a procedure is a syntactic leaf when its body makes
// no non-tail call; a lone tail call does not count.
func TestSyntacticLeaf(t *testing.T) {
	prog := build(t, `
(define (leaf x) (+ x 1))
(define (internal x) (leaf (leaf x)))
(define (tail-only x) (leaf x))
(leaf 1)`)
	for name, want := range map[string]bool{"leaf": true, "internal": false, "tail-only": true} {
		cg := &codegen{opts: DefaultOptions()}
		p := procByName(t, prog, name)
		cg.assignLocations(p)
		cg.analyzeProc(p)
		if p.SyntacticLeaf != want {
			t.Errorf("%s: SyntacticLeaf = %v, want %v", name, p.SyntacticLeaf, want)
		}
	}
}

func TestMarkCrossing(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a b)
  (+ (g a) b))
(f 1 2)`)
	f := procByName(t, prog, "f")
	markCrossing(f)
	// b is read after the call to g: crossing. The pass is deliberately
	// conservative (argument reads are marked too), so a is also
	// crossing; the essential property is that b is never missed.
	if !f.Params[1].CrossCall {
		t.Error("b must be marked crossing")
	}
}

func TestCompileStats(t *testing.T) {
	prog := build(t, `
(define (swap a b) (if (zero? a) b (swap b (- a 1))))
(swap 3 4)`)
	opts := DefaultOptions()
	opts.ComputeShuffleStats = true
	_, stats, err := Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CallSites == 0 || stats.Procs < 2 {
		t.Errorf("stats incomplete: %+v", stats)
	}
	if stats.CyclicCallSites == 0 {
		t.Error("swap's recursive call has an argument cycle")
	}
	if stats.SitesOptimal+stats.SitesSuboptimal != stats.CallSites {
		t.Error("optimality accounting inconsistent")
	}
}

func TestCompileRejectsBadConfig(t *testing.T) {
	prog := build(t, "(+ 1 2)")
	opts := DefaultOptions()
	opts.Config = vm.Config{ArgRegs: 40, UserRegs: 40, ScratchRegs: 8}
	if _, _, err := Compile(prog, opts); err == nil {
		t.Error("expected config validation error")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[SaveStrategy]string{
		SaveLazy: "lazy", SaveEarly: "early", SaveLate: "late", SaveSimple: "simple",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if !strings.Contains(SaveStrategy(99).String(), "99") {
		t.Error("unknown strategy should print its number")
	}
	if RestoreLazy.String() != "lazy" || RestoreEager.String() != "eager" {
		t.Error("restore policy strings")
	}
	if ShuffleOptimal.String() != "optimal" || ShuffleNaive.String() != "naive" || ShuffleGreedy.String() != "greedy" {
		t.Error("shuffle method strings")
	}
}

func TestSlotReads(t *testing.T) {
	slotVar := &ir.Var{Name: "s", Loc: ir.Loc{Kind: ir.LocSlot, Index: 2}, SaveSlot: -1, CSReg: -1}
	regVar := &ir.Var{Name: "r", Loc: ir.Loc{Kind: ir.LocReg, Index: 5}, SaveSlot: -1, CSReg: -1}
	e := ir.Expr(&ir.PrimCall{Args: []ir.Expr{&ir.VarRef{Var: slotVar}, &ir.VarRef{Var: regVar}}})
	read := make([]bool, 6)
	markSlotReads(e, read)
	if want := []bool{false, false, true, false, false, false}; !slices.Equal(read, want) {
		t.Errorf("slots read %v, want %v (only slot 2; register 5 is no slot)", read, want)
	}
	// A slot at or beyond len(read) is outside the tracked area.
	markSlotReads(e, make([]bool, 2))
}

// findIf and findCall locate the first node of each type.
func findIf(e ir.Expr) *ir.If {
	var out *ir.If
	walkIR(e, func(x ir.Expr) {
		if n, ok := x.(*ir.If); ok && out == nil {
			out = n
		}
	})
	return out
}

func findCall(e ir.Expr) *ir.Call {
	var out *ir.Call
	walkIR(e, func(x ir.Expr) {
		if n, ok := x.(*ir.Call); ok && out == nil {
			out = n
		}
	})
	return out
}

func walkIR(e ir.Expr, f func(ir.Expr)) {
	f(e)
	switch n := e.(type) {
	case *ir.GlobalSet:
		walkIR(n.Rhs, f)
	case *ir.If:
		walkIR(n.Test, f)
		walkIR(n.Then, f)
		walkIR(n.Else, f)
	case *ir.Seq:
		for _, x := range n.Exprs {
			walkIR(x, f)
		}
	case *ir.Bind:
		walkIR(n.Rhs, f)
		walkIR(n.Body, f)
	case *ir.PrimCall:
		for _, x := range n.Args {
			walkIR(x, f)
		}
	case *ir.Call:
		walkIR(n.Fn, f)
		for _, x := range n.Args {
			walkIR(x, f)
		}
	case *ir.MakeClosure:
		for _, x := range n.Free {
			walkIR(x, f)
		}
	case *ir.Fix:
		for _, c := range n.Closures {
			walkIR(c, f)
		}
		walkIR(n.Body, f)
	case *ir.Save:
		walkIR(n.Body, f)
	}
}
