package ir

import (
	"strings"
	"testing"

	"repro/internal/prim"
	"repro/internal/regset"
	"repro/internal/sexp"
)

func v(name string, reg int) *Var {
	return &Var{Name: name, Loc: Loc{Kind: LocReg, Index: reg}, SaveSlot: -1, CSReg: -1}
}

func TestLocString(t *testing.T) {
	if got := (Loc{Kind: LocReg, Index: 5}).String(); got != "r5" {
		t.Errorf("got %q", got)
	}
	if got := (Loc{Kind: LocSlot, Index: 2}).String(); got != "fp[2]" {
		t.Errorf("got %q", got)
	}
	if got := (Loc{}).String(); got != "?" {
		t.Errorf("got %q", got)
	}
	unassigned := &Var{Name: "x"}
	if unassigned.String() != "x" {
		t.Errorf("got %q", unassigned.String())
	}
}

func TestPrintForms(t *testing.T) {
	x := v("x", 3)
	e := &If{
		Test:      &VarRef{Var: x},
		Then:      &PrimCall{Def: nil, Args: nil},
		Else:      &Const{Value: prim.FixV(1)},
		ThenSaves: regset.Of(3),
	}
	// PrimCall with nil Def would panic on Name; use a real one via a
	// different expression instead.
	e.Then = &Const{Value: prim.True}
	s := Print(e)
	if !strings.Contains(s, "(if x:r3 (save {r3} #t) 1)") {
		t.Errorf("got %q", s)
	}

	bind := &Bind{Var: x, Rhs: &Const{Value: prim.FixV(2)}, Body: &VarRef{Var: x}, SaveVar: true}
	if got := Print(bind); !strings.Contains(got, "save!") {
		t.Errorf("SaveVar marker missing: %q", got)
	}

	call := &Call{Fn: &GlobalRef{Name: "f"}, Args: []Expr{&FreeRef{Index: 0, Name: "y"}}, Tail: true}
	if got := Print(call); !strings.Contains(got, "tailcall") || !strings.Contains(got, "free 0") {
		t.Errorf("got %q", got)
	}

	cc := &Call{Fn: &GlobalRef{Name: "f"}, CallCC: true}
	if got := Print(cc); !strings.Contains(got, "call/cc") {
		t.Errorf("got %q", got)
	}

	fix := &Fix{
		Vars:     []*Var{x},
		Closures: []*MakeClosure{{ProcIndex: 2, Free: []Expr{&VarRef{Var: x}}}},
		Body:     &VarRef{Var: x},
		SaveVars: []bool{false},
	}
	if got := Print(fix); !strings.Contains(got, "(fix (") || !strings.Contains(got, "closure 2") {
		t.Errorf("got %q", got)
	}

	gset := &GlobalSet{Name: "g", Rhs: &Const{Value: prim.FixV(3)}}
	if got := Print(gset); got != "(global-set! g 3)" {
		t.Errorf("got %q", got)
	}

	seq := &Seq{Exprs: []Expr{&Const{Value: prim.FixV(1)}, &Const{Value: prim.FixV(2)}}}
	if got := Print(seq); got != "(seq 1 2)" {
		t.Errorf("got %q", got)
	}

	save := &Save{Regs: regset.Of(1, 2), Body: &Const{Value: prim.FixV(0)}}
	if got := Print(save); !strings.Contains(got, "(save {r1 r2} 0)") {
		t.Errorf("got %q", got)
	}
}

func TestPrintProc(t *testing.T) {
	x := v("x", 3)
	p := &Proc{Name: "f", Params: []*Var{x}, Body: &VarRef{Var: x}}
	if got := PrintProc(p); got != "(proc f (x:r3) x:r3)" {
		t.Errorf("got %q", got)
	}
}

func TestQuotedConstPrinting(t *testing.T) {
	c := &Const{Value: prim.FromDatum(sexp.List(sexp.Symbol("a"), sexp.Fixnum(1)))}
	if got := Print(c); got != "(a 1)" {
		t.Errorf("got %q", got)
	}
}
