// Package passes implements the front-end program transformations the
// paper assumes have already run before register allocation: assignment
// conversion ("we assume that assignment conversion has already been
// done, so there are no assignment expressions", §2 — it is what makes
// "variables need to be saved only once" true, §2.1) and closure
// conversion into the first-order IR.
package passes

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sexp"
)

// AssignConvert rewrites the program so no local set! remains: assigned
// variables are bound to boxes, references become unbox, assignments
// become set-box!. letrec forms whose bindings are not all unassigned
// lambdas are also lowered to boxes here, so closure conversion only
// ever sees "fix-able" letrecs (mutually recursive lambdas).
func AssignConvert(p *ast.Program) *ast.Program {
	c := &assignConverter{nextVar: p.NumVars}
	out := &ast.Program{Defs: make([]ast.Def, len(p.Defs))}
	for i, d := range p.Defs {
		out.Defs[i] = ast.Def{Name: d.Name, Rhs: c.convert(d.Rhs)}
	}
	out.Body = c.convert(p.Body)
	out.NumVars = c.nextVar
	out.NumTmps = p.NumTmps
	return out
}

type assignConverter struct {
	nextVar int
	// boxed marks variables whose binding now holds a box.
	boxed map[*ast.Var]bool
}

func (c *assignConverter) isBoxed(v *ast.Var) bool { return c.boxed[v] }

func (c *assignConverter) markBoxed(v *ast.Var) {
	if c.boxed == nil {
		c.boxed = map[*ast.Var]bool{}
	}
	c.boxed[v] = true
}

func (c *assignConverter) fresh(name sexp.Symbol) *ast.Var {
	v := &ast.Var{Name: name, ID: c.nextVar}
	c.nextVar++
	return v
}

func boxCall(e ast.Expr) ast.Expr {
	return &ast.Call{Fn: &ast.GlobalRef{Name: "box"}, Args: []ast.Expr{e}}
}

func unboxCall(e ast.Expr) ast.Expr {
	return &ast.Call{Fn: &ast.GlobalRef{Name: "unbox"}, Args: []ast.Expr{e}}
}

func setBoxCall(box, rhs ast.Expr) ast.Expr {
	return &ast.Call{Fn: &ast.GlobalRef{Name: "set-box!"}, Args: []ast.Expr{box, rhs}}
}

func (c *assignConverter) convert(e ast.Expr) ast.Expr {
	switch t := e.(type) {
	case *ast.Const, *ast.GlobalRef:
		return e
	case *ast.Ref:
		if c.isBoxed(t.Var) {
			return unboxCall(&ast.Ref{Var: t.Var})
		}
		return e
	case *ast.Set:
		// t.Var is assigned, hence boxed by its binder.
		if !c.isBoxed(t.Var) {
			panic(fmt.Sprintf("passes: set! of unboxed variable %s", t.Var))
		}
		return setBoxCall(&ast.Ref{Var: t.Var}, c.convert(t.Rhs))
	case *ast.GlobalSet:
		return &ast.GlobalSet{Name: t.Name, Rhs: c.convert(t.Rhs)}
	case *ast.If:
		return &ast.If{Test: c.convert(t.Test), Then: c.convert(t.Then), Else: c.convert(t.Else)}
	case *ast.Begin:
		out := make([]ast.Expr, len(t.Exprs))
		for i, x := range t.Exprs {
			out[i] = c.convert(x)
		}
		return &ast.Begin{Exprs: out}
	case *ast.Lambda:
		return c.convertLambda(t)
	case *ast.Let:
		return c.convertLet(t)
	case *ast.Letrec:
		return c.convertLetrec(t)
	case *ast.Call:
		fn := c.convert(t.Fn)
		args := make([]ast.Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.convert(a)
		}
		return &ast.Call{Fn: fn, Args: args}
	default:
		panic(fmt.Sprintf("passes: unknown expression %T", e))
	}
}

// convertLambda boxes assigned parameters: (lambda (p) ...set! p...)
// becomes (lambda (p*) (let ([p (box p*)]) ...)).
func (c *assignConverter) convertLambda(t *ast.Lambda) ast.Expr {
	params := make([]*ast.Var, len(t.Params))
	var boxVars []*ast.Var
	var boxInits []ast.Expr
	for i, p := range t.Params {
		if p.Assigned {
			c.markBoxed(p)
			fresh := c.fresh(p.Name + "*")
			params[i] = fresh
			boxVars = append(boxVars, p)
			boxInits = append(boxInits, boxCall(&ast.Ref{Var: fresh}))
		} else {
			params[i] = p
		}
	}
	body := c.convert(t.Body)
	if len(boxVars) > 0 {
		body = &ast.Let{Vars: boxVars, Inits: boxInits, Body: body}
	}
	return &ast.Lambda{Params: params, Body: body, Name: t.Name}
}

func (c *assignConverter) convertLet(t *ast.Let) ast.Expr {
	inits := make([]ast.Expr, len(t.Inits))
	for i, init := range t.Inits {
		conv := c.convert(init)
		if t.Vars[i].Assigned {
			c.markBoxed(t.Vars[i])
			conv = boxCall(conv)
		}
		inits[i] = conv
	}
	// Boxing must be decided before converting the body (the body's
	// references consult c.boxed), so mark first. Marking happened in
	// the loop above; references in inits see the *outer* bindings of
	// the same names thanks to alpha-renaming, so ordering is safe.
	return &ast.Let{Vars: t.Vars, Inits: inits, Body: c.convert(t.Body)}
}

// convertLetrec keeps letrecs of unassigned lambdas intact (they become
// ir.Fix) and lowers everything else to explicit boxes.
func (c *assignConverter) convertLetrec(t *ast.Letrec) ast.Expr {
	fixable := true
	for i, init := range t.Inits {
		if _, ok := init.(*ast.Lambda); !ok || t.Vars[i].Assigned {
			fixable = false
			break
		}
	}
	if fixable {
		inits := make([]ast.Expr, len(t.Inits))
		for i, init := range t.Inits {
			inits[i] = c.convert(init)
		}
		return &ast.Letrec{Vars: t.Vars, Inits: inits, Body: c.convert(t.Body)}
	}
	// (letrec ([v e] ...) body) ⇒
	// (let ([v (box unspec)] ...) (set-box! v e') ... body')
	for _, v := range t.Vars {
		c.markBoxed(v)
	}
	boxInits := make([]ast.Expr, len(t.Vars))
	for i := range t.Vars {
		boxInits[i] = boxCall(ast.Unspecified)
	}
	var seq []ast.Expr
	for i, init := range t.Inits {
		seq = append(seq, setBoxCall(&ast.Ref{Var: t.Vars[i]}, c.convert(init)))
	}
	seq = append(seq, c.convert(t.Body))
	var body ast.Expr
	if len(seq) == 1 {
		body = seq[0]
	} else {
		body = &ast.Begin{Exprs: seq}
	}
	return &ast.Let{Vars: t.Vars, Inits: boxInits, Body: body}
}
