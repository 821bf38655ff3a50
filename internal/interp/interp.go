// Package interp is a reference tree-walking interpreter for the core
// AST. It is the differential-testing oracle for the compiler + VM
// pipeline: any program the compiler accepts must produce the same value
// here (see the interpreter-versus-VM tests in internal/compiler).
//
// The interpreter is deliberately simple. The only subtlety is proper
// tail calls, implemented by a trampoline so deeply iterative benchmarks
// do not consume Go stack, and call/cc, implemented with panic/recover
// and therefore limited to upward (escaping) continuations — which is all
// the benchmark suite (ctak) requires.
package interp

import (
	"fmt"
	"io"

	"repro/internal/ast"
	"repro/internal/prim"
	"repro/internal/sexp"
)

// Closure is a user procedure paired with its environment.
type Closure struct {
	Lam *ast.Lambda
	Env *Env
}

// SchemeProcedure marks Closure as a procedure for procedure?.
func (*Closure) SchemeProcedure() {}

// PrimProcedure is a primitive as a first-class value.
type PrimProcedure struct{ Def *prim.Def }

// SchemeProcedure marks PrimProcedure as a procedure.
func (*PrimProcedure) SchemeProcedure() {}

// ContProcedure is a captured (escaping) continuation.
type ContProcedure struct{ id *int }

// SchemeProcedure marks ContProcedure as a procedure.
func (*ContProcedure) SchemeProcedure() {}

// contPanic carries a value to a captured continuation's call/cc frame.
type contPanic struct {
	id  *int
	val prim.Value
}

// Env is a chained lexical environment.
type Env struct {
	parent *Env
	vars   map[*ast.Var]*prim.Value
}

// NewEnv returns a fresh child of parent.
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: map[*ast.Var]*prim.Value{}}
}

func (e *Env) lookup(v *ast.Var) (*prim.Value, bool) {
	for env := e; env != nil; env = env.parent {
		if cell, ok := env.vars[v]; ok {
			return cell, true
		}
	}
	return nil, false
}

func (e *Env) bind(v *ast.Var, val prim.Value) {
	cell := new(prim.Value)
	*cell = val
	e.vars[v] = cell
}

// Interp evaluates programs against a global environment.
type Interp struct {
	globals map[sexp.Symbol]*prim.Value
	ctx     *prim.Ctx
	// Steps counts evaluation steps, to bound runaway tests.
	Steps    int64
	MaxSteps int64
	// Calls counts non-tail procedure applications (diagnostics only).
	Calls int64
}

// New returns an interpreter whose globals contain every primitive and
// whose output is discarded unless out is non-nil.
func New(out io.Writer) *Interp {
	in := &Interp{
		globals: map[sexp.Symbol]*prim.Value{},
		ctx:     &prim.Ctx{Out: out},
	}
	for _, d := range prim.All() {
		v := prim.ObjV(&PrimProcedure{Def: d})
		cell := new(prim.Value)
		*cell = v
		in.globals[d.Name] = cell
	}
	return in
}

// RunProgram evaluates all definitions and then the body, returning the
// body's value.
func (in *Interp) RunProgram(p *ast.Program) (prim.Value, error) {
	for _, d := range p.Defs {
		v, err := in.Eval(d.Rhs, nil)
		if err != nil {
			return prim.Value{}, err
		}
		cell := new(prim.Value)
		*cell = v
		in.globals[d.Name] = cell
	}
	return in.Eval(p.Body, nil)
}

// Eval evaluates e in env (nil means only globals are visible).
func (in *Interp) Eval(e ast.Expr, env *Env) (val prim.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if cp, ok := r.(contPanic); ok {
				// A continuation escaped past its call/cc frame; treat as error.
				err = fmt.Errorf("interp: continuation invoked outside its dynamic extent (%v)", prim.WriteString(cp.val))
				return
			}
			panic(r)
		}
	}()
	return in.eval(e, env)
}

// eval is the trampolined core: tail positions update e/env and loop.
func (in *Interp) eval(e ast.Expr, env *Env) (prim.Value, error) {
	for {
		in.Steps++
		if in.MaxSteps > 0 && in.Steps > in.MaxSteps {
			return prim.Value{}, fmt.Errorf("interp: step budget exceeded")
		}
		switch n := e.(type) {
		case *ast.Const:
			return constValue(n.Value), nil
		case *ast.Ref:
			cell, ok := env.lookup(n.Var)
			if !ok {
				return prim.Value{}, fmt.Errorf("interp: unbound variable %s", n.Var)
			}
			return *cell, nil
		case *ast.GlobalRef:
			cell, ok := in.globals[n.Name]
			if !ok {
				return prim.Value{}, fmt.Errorf("interp: unbound global %s", n.Name)
			}
			return *cell, nil
		case *ast.If:
			t, err := in.eval(n.Test, env)
			if err != nil {
				return prim.Value{}, err
			}
			if prim.Truthy(t) {
				e = n.Then
			} else {
				e = n.Else
			}
		case *ast.Begin:
			for _, x := range n.Exprs[:len(n.Exprs)-1] {
				if _, err := in.eval(x, env); err != nil {
					return prim.Value{}, err
				}
			}
			e = n.Exprs[len(n.Exprs)-1]
		case *ast.Lambda:
			return prim.ObjV(&Closure{Lam: n, Env: env}), nil
		case *ast.Let:
			inner := NewEnv(env)
			for i, init := range n.Inits {
				v, err := in.eval(init, env)
				if err != nil {
					return prim.Value{}, err
				}
				inner.bind(n.Vars[i], v)
			}
			e, env = n.Body, inner
		case *ast.Letrec:
			inner := NewEnv(env)
			for _, v := range n.Vars {
				inner.bind(v, prim.Unspecified)
			}
			for i, init := range n.Inits {
				v, err := in.eval(init, inner)
				if err != nil {
					return prim.Value{}, err
				}
				*inner.vars[n.Vars[i]] = v
			}
			e, env = n.Body, inner
		case *ast.Set:
			v, err := in.eval(n.Rhs, env)
			if err != nil {
				return prim.Value{}, err
			}
			cell, ok := env.lookup(n.Var)
			if !ok {
				return prim.Value{}, fmt.Errorf("interp: unbound variable %s", n.Var)
			}
			*cell = v
			return prim.Unspecified, nil
		case *ast.GlobalSet:
			v, err := in.eval(n.Rhs, env)
			if err != nil {
				return prim.Value{}, err
			}
			cell, ok := in.globals[n.Name]
			if !ok {
				cell = new(prim.Value)
				in.globals[n.Name] = cell
			}
			*cell = v
			return prim.Unspecified, nil
		case *ast.Call:
			// call/cc is a special form at the application site.
			if g, ok := n.Fn.(*ast.GlobalRef); ok && (g.Name == "call/cc" || g.Name == "call-with-current-continuation") {
				if _, shadowed := in.globals[g.Name]; !shadowed && len(n.Args) == 1 {
					return in.callCC(n.Args[0], env)
				}
			}
			fn, err := in.eval(n.Fn, env)
			if err != nil {
				return prim.Value{}, err
			}
			args := make([]prim.Value, len(n.Args))
			for i, a := range n.Args {
				if args[i], err = in.eval(a, env); err != nil {
					return prim.Value{}, err
				}
			}
			switch p := fn.Heap().(type) {
			case *Closure:
				if len(args) != len(p.Lam.Params) {
					return prim.Value{}, fmt.Errorf("interp: %s expects %d arguments, got %d",
						p.Lam.Name, len(p.Lam.Params), len(args))
				}
				inner := NewEnv(p.Env)
				for i, v := range p.Lam.Params {
					inner.bind(v, args[i])
				}
				in.Calls++
				e, env = p.Lam.Body, inner // proper tail call
			case *PrimProcedure:
				if err := prim.CheckArity(p.Def, len(args)); err != nil {
					return prim.Value{}, err
				}
				return p.Def.Fn(in.ctx, args)
			case *ContProcedure:
				if len(args) != 1 {
					return prim.Value{}, fmt.Errorf("interp: continuation expects 1 argument, got %d", len(args))
				}
				panic(contPanic{id: p.id, val: args[0]})
			default:
				return prim.Value{}, fmt.Errorf("interp: attempt to apply non-procedure %s", prim.WriteString(fn))
			}
		default:
			return prim.Value{}, fmt.Errorf("interp: unknown expression %T", e)
		}
	}
}

// callCC evaluates (call/cc f) by invoking f with an escaping
// continuation; invoking the continuation unwinds to this frame.
func (in *Interp) callCC(fexpr ast.Expr, env *Env) (val prim.Value, err error) {
	fn, err := in.eval(fexpr, env)
	if err != nil {
		return prim.Value{}, err
	}
	id := new(int)
	k := &ContProcedure{id: id}
	defer func() {
		if r := recover(); r != nil {
			if cp, ok := r.(contPanic); ok && cp.id == id {
				val, err = cp.val, nil
				return
			}
			panic(r)
		}
	}()
	switch p := fn.Heap().(type) {
	case *Closure:
		if len(p.Lam.Params) != 1 {
			return prim.Value{}, fmt.Errorf("interp: call/cc receiver must take 1 argument")
		}
		inner := NewEnv(p.Env)
		inner.bind(p.Lam.Params[0], prim.ObjV(k))
		in.Calls++
		return in.eval(p.Lam.Body, inner)
	default:
		return prim.Value{}, fmt.Errorf("interp: call/cc expects a procedure, got %s", prim.WriteString(fn))
	}
}

// constValue converts a quoted datum to a runtime value. FromDatum
// deep-copies pairs and vectors, so compiled/interpreted runs cannot
// alias shared program text through set-car! mutations.
func constValue(d sexp.Datum) prim.Value {
	return prim.FromDatum(d)
}
