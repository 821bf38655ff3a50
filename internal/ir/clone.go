package ir

import "fmt"

// Clone deep-copies an expression tree that the allocator has not yet
// annotated, giving each bound variable a fresh *Var. Code generation
// annotates IR in place, so a tree compiled more than once (the prelude
// definitions at the head of every linked main) is cloned per use.
func Clone(e Expr) Expr {
	return (&cloner{vars: map[*Var]*Var{}}).expr(e)
}

type cloner struct{ vars map[*Var]*Var }

func (c *cloner) bind(v *Var) *Var {
	nv := *v
	c.vars[v] = &nv
	return &nv
}

func (c *cloner) ref(v *Var) *Var {
	if nv, ok := c.vars[v]; ok {
		return nv
	}
	panic(fmt.Sprintf("ir: Clone: variable %s is not bound in the cloned tree", v))
}

func (c *cloner) exprs(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, x := range es {
		out[i] = c.expr(x)
	}
	return out
}

func (c *cloner) expr(e Expr) Expr {
	switch t := e.(type) {
	case *Const:
		return &Const{Value: t.Value}
	case *VarRef:
		return &VarRef{Var: c.ref(t.Var)}
	case *FreeRef:
		return &FreeRef{Index: t.Index, Name: t.Name}
	case *GlobalRef:
		return &GlobalRef{Index: t.Index, Name: t.Name}
	case *GlobalSet:
		return &GlobalSet{Index: t.Index, Name: t.Name, Rhs: c.expr(t.Rhs)}
	case *If:
		return &If{Test: c.expr(t.Test), Then: c.expr(t.Then), Else: c.expr(t.Else)}
	case *Seq:
		return &Seq{Exprs: c.exprs(t.Exprs)}
	case *Bind:
		rhs := c.expr(t.Rhs)
		return &Bind{Var: c.bind(t.Var), Rhs: rhs, Body: c.expr(t.Body)}
	case *PrimCall:
		return &PrimCall{Def: t.Def, Args: c.exprs(t.Args)}
	case *Call:
		return &Call{Fn: c.expr(t.Fn), Args: c.exprs(t.Args), Tail: t.Tail, CallCC: t.CallCC}
	case *MakeClosure:
		return &MakeClosure{ProcIndex: t.ProcIndex, Free: c.exprs(t.Free)}
	case *Fix:
		vars := make([]*Var, len(t.Vars))
		for i, v := range t.Vars {
			vars[i] = c.bind(v)
		}
		closures := make([]*MakeClosure, len(t.Closures))
		for i, mc := range t.Closures {
			closures[i] = c.expr(mc).(*MakeClosure)
		}
		return &Fix{Vars: vars, Closures: closures, Body: c.expr(t.Body), SaveVars: make([]bool, len(vars))}
	case *Save:
		return &Save{Regs: t.Regs, Body: c.expr(t.Body)}
	default:
		panic(fmt.Sprintf("ir: Clone: unknown expression %T", e))
	}
}
