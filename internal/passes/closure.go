package passes

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/prim"
	"repro/internal/sexp"
)

// ClosureConvert lowers an assignment-converted AST program into the
// first-order IR: each lambda becomes an ir.Proc whose free variables
// are captured in a closure record, letrecs of lambdas become ir.Fix,
// and calls to primitive names that the program does not shadow are
// open-coded as ir.PrimCall.
func ClosureConvert(p *ast.Program) (*ir.Program, error) {
	return ClosureConvertAfter(&Prefix{}, p)
}

// Prefix is the closure converter's state after converting the leading
// definitions of a program (the prelude): its global table, its
// procedure count, and the GlobalSet expressions those definitions
// contribute to the head of main. It is never written once built, so
// one Prefix serves concurrent conversions.
type Prefix struct {
	nprocs int
	// defs are main's leading GlobalSets; code generation annotates IR
	// in place, so each conversion after the prefix clones them.
	defs        []ir.Expr
	globalIdx   map[sexp.Symbol]int
	globalNames []sexp.Symbol
	primGlobals []*prim.Def
	userGlobals []bool
	userDefined map[sexp.Symbol]bool
}

// ConvertPrefix closure-converts defs as the head of a program whose
// later forms define or assign exactly the names in shadow among those
// defs mention. A defined or assigned name is never open-coded anywhere
// in the program, so shadow decides how defs compile. It returns the
// prefix and the procedures of defs' lambdas, numbered from zero.
func ConvertPrefix(defs []ast.Def, shadow []sexp.Symbol) (*Prefix, []*ir.Proc, error) {
	cc := (&Prefix{}).converter()
	markAssigned(&ast.Program{Defs: defs, Body: ast.Unspecified}, cc.userDefined)
	for _, name := range shadow {
		cc.userDefined[name] = true
	}
	main := &procConverter{cc: cc, locals: map[*ast.Var]*ir.Var{}}
	seq, err := main.convertDefs(defs, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(main.freeOrder) != 0 {
		return nil, nil, fmt.Errorf("passes: top level has free variables: %v", main.freeOrder)
	}
	return &Prefix{
		nprocs:      len(cc.procs),
		defs:        seq,
		globalIdx:   cc.globalIdx,
		globalNames: cc.globalNames,
		primGlobals: cc.primGlobals,
		userGlobals: cc.userGlobals,
		userDefined: cc.userDefined,
	}, cc.procs, nil
}

// ClosureConvertAfter converts p as the continuation of pre's program:
// global indices and procedure numbers carry on from pre's, and main
// begins with pre's definitions. The result is ClosureConvert's for the
// whole program, minus the prefix's procedures: its ProcBase is their
// count. A name that pre's definitions mention without defining or
// assigning it may be defined or assigned by p only if it is in the
// shadow set pre was built with.
func ClosureConvertAfter(pre *Prefix, p *ast.Program) (*ir.Program, error) {
	cc := pre.converter()
	markAssigned(p, cc.userDefined)

	main := &procConverter{cc: cc, locals: map[*ast.Var]*ir.Var{}}
	seq := make([]ir.Expr, 0, len(pre.defs)+len(p.Defs)+1)
	for _, d := range pre.defs {
		seq = append(seq, ir.Clone(d))
	}
	seq, err := main.convertDefs(p.Defs, seq)
	if err != nil {
		return nil, err
	}
	body, err := main.convert(p.Body, true)
	if err != nil {
		return nil, err
	}
	seq = append(seq, body)
	var mainBody ir.Expr
	if len(seq) == 1 {
		mainBody = seq[0]
	} else {
		mainBody = &ir.Seq{Exprs: seq}
	}
	if len(main.freeOrder) != 0 {
		return nil, fmt.Errorf("passes: top level has free variables: %v", main.freeOrder)
	}
	mainProc := &ir.Proc{Name: "main", Body: mainBody}
	cc.procs = append(cc.procs, mainProc)

	prog := &ir.Program{
		Procs:       cc.procs,
		ProcBase:    pre.nprocs,
		MainIndex:   pre.nprocs + len(cc.procs) - 1,
		GlobalNames: cc.globalNames,
		PrimGlobals: cc.primGlobals,
		UserGlobals: cc.userGlobals,
	}
	return prog, nil
}

// converter starts a closure converter from pre's state. The tables are
// copied, never appended to in place, because pre is shared.
func (pre *Prefix) converter() *closureConverter {
	cc := &closureConverter{
		procBase:    pre.nprocs,
		globalIdx:   maps.Clone(pre.globalIdx),
		globalNames: slices.Clone(pre.globalNames),
		primGlobals: slices.Clone(pre.primGlobals),
		userGlobals: slices.Clone(pre.userGlobals),
		userDefined: maps.Clone(pre.userDefined),
	}
	if cc.globalIdx == nil {
		cc.globalIdx = map[sexp.Symbol]int{}
	}
	if cc.userDefined == nil {
		cc.userDefined = map[sexp.Symbol]bool{}
	}
	return cc
}

// convertDefs appends the GlobalSet of each top-level definition to seq.
func (pc *procConverter) convertDefs(defs []ast.Def, seq []ir.Expr) ([]ir.Expr, error) {
	for _, d := range defs {
		rhs, err := pc.convert(d.Rhs, false)
		if err != nil {
			return nil, err
		}
		seq = append(seq, &ir.GlobalSet{Index: pc.cc.globalIndex(d.Name), Name: d.Name, Rhs: rhs})
	}
	return seq, nil
}

// Assigned returns the global names p defines or assigns with set!.
func Assigned(p *ast.Program) map[sexp.Symbol]bool {
	out := map[sexp.Symbol]bool{}
	markAssigned(p, out)
	return out
}

// Mentioned returns every global name p refers to, defines or assigns.
func Mentioned(p *ast.Program) map[sexp.Symbol]bool {
	out := map[sexp.Symbol]bool{}
	for _, d := range p.Defs {
		out[d.Name] = true
		scanGlobals(d.Rhs, nil, out)
	}
	scanGlobals(p.Body, nil, out)
	return out
}

// markAssigned records every global name the program defines or
// assigns, so that defining or set!-ing a primitive name disables its
// open-coding everywhere.
func markAssigned(p *ast.Program, out map[sexp.Symbol]bool) {
	for _, d := range p.Defs {
		out[d.Name] = true
	}
	scanGlobals(p.Body, out, nil)
	for _, d := range p.Defs {
		scanGlobals(d.Rhs, out, nil)
	}
}

// scanGlobals adds the global names e assigns to assigned and, when
// mentioned is non-nil, every global name e refers to or assigns to
// mentioned.
func scanGlobals(e ast.Expr, assigned, mentioned map[sexp.Symbol]bool) {
	switch t := e.(type) {
	case *ast.GlobalRef:
		if mentioned != nil {
			mentioned[t.Name] = true
		}
	case *ast.GlobalSet:
		if assigned != nil {
			assigned[t.Name] = true
		}
		if mentioned != nil {
			mentioned[t.Name] = true
		}
		scanGlobals(t.Rhs, assigned, mentioned)
	case *ast.If:
		scanGlobals(t.Test, assigned, mentioned)
		scanGlobals(t.Then, assigned, mentioned)
		scanGlobals(t.Else, assigned, mentioned)
	case *ast.Begin:
		for _, x := range t.Exprs {
			scanGlobals(x, assigned, mentioned)
		}
	case *ast.Lambda:
		scanGlobals(t.Body, assigned, mentioned)
	case *ast.Let:
		for _, x := range t.Inits {
			scanGlobals(x, assigned, mentioned)
		}
		scanGlobals(t.Body, assigned, mentioned)
	case *ast.Letrec:
		for _, x := range t.Inits {
			scanGlobals(x, assigned, mentioned)
		}
		scanGlobals(t.Body, assigned, mentioned)
	case *ast.Set:
		scanGlobals(t.Rhs, assigned, mentioned)
	case *ast.Call:
		scanGlobals(t.Fn, assigned, mentioned)
		for _, x := range t.Args {
			scanGlobals(x, assigned, mentioned)
		}
	}
}

type closureConverter struct {
	// procs are the procedures converted after the first procBase.
	procBase    int
	procs       []*ir.Proc
	globalIdx   map[sexp.Symbol]int
	globalNames []sexp.Symbol
	primGlobals []*prim.Def
	userGlobals []bool
	userDefined map[sexp.Symbol]bool
}

func (cc *closureConverter) globalIndex(name sexp.Symbol) int {
	if i, ok := cc.globalIdx[name]; ok {
		return i
	}
	i := len(cc.globalNames)
	cc.globalIdx[name] = i
	cc.globalNames = append(cc.globalNames, name)
	cc.primGlobals = append(cc.primGlobals, prim.Lookup(name))
	cc.userGlobals = append(cc.userGlobals, cc.userDefined[name])
	return i
}

// openCodable reports whether a call to the global name can be compiled
// as a primitive application.
func (cc *closureConverter) openCodable(name sexp.Symbol) *prim.Def {
	if cc.userDefined[name] {
		return nil
	}
	return prim.Lookup(name)
}

// procConverter converts one lambda body, discovering free variables.
type procConverter struct {
	cc        *closureConverter
	parent    *procConverter
	locals    map[*ast.Var]*ir.Var
	freeIdx   map[*ast.Var]int
	freeOrder []*ast.Var
}

// resolve turns an AST variable into a reference expression in this
// procedure, registering it as a free variable when necessary.
func (pc *procConverter) resolve(v *ast.Var) ir.Expr {
	if iv, ok := pc.locals[v]; ok {
		return &ir.VarRef{Var: iv}
	}
	if pc.parent == nil {
		// Should be impossible: parser resolved it as a local somewhere.
		panic(fmt.Sprintf("passes: unbound variable %s", v))
	}
	if idx, ok := pc.freeIdx[v]; ok {
		return &ir.FreeRef{Index: idx, Name: string(v.Name)}
	}
	if pc.freeIdx == nil {
		pc.freeIdx = map[*ast.Var]int{}
	}
	idx := len(pc.freeOrder)
	pc.freeIdx[v] = idx
	pc.freeOrder = append(pc.freeOrder, v)
	return &ir.FreeRef{Index: idx, Name: string(v.Name)}
}

func (pc *procConverter) newLocal(v *ast.Var) *ir.Var {
	iv := &ir.Var{Name: string(v.Name), SaveSlot: -1, CSReg: -1}
	pc.locals[v] = iv
	return iv
}

func (pc *procConverter) convert(e ast.Expr, tail bool) (ir.Expr, error) {
	switch t := e.(type) {
	case *ast.Const:
		// The ast→ir boundary is THE conversion point from compile-time
		// data (sexp.Datum) to the runtime value representation.
		return &ir.Const{Value: prim.FromDatum(t.Value)}, nil
	case *ast.Ref:
		return pc.resolve(t.Var), nil
	case *ast.GlobalRef:
		return &ir.GlobalRef{Index: pc.cc.globalIndex(t.Name), Name: t.Name}, nil
	case *ast.GlobalSet:
		rhs, err := pc.convert(t.Rhs, false)
		if err != nil {
			return nil, err
		}
		return &ir.GlobalSet{Index: pc.cc.globalIndex(t.Name), Name: t.Name, Rhs: rhs}, nil
	case *ast.If:
		test, err := pc.convert(t.Test, false)
		if err != nil {
			return nil, err
		}
		then, err := pc.convert(t.Then, tail)
		if err != nil {
			return nil, err
		}
		els, err := pc.convert(t.Else, tail)
		if err != nil {
			return nil, err
		}
		return &ir.If{Test: test, Then: then, Else: els}, nil
	case *ast.Begin:
		out := make([]ir.Expr, len(t.Exprs))
		for i, x := range t.Exprs {
			conv, err := pc.convert(x, tail && i == len(t.Exprs)-1)
			if err != nil {
				return nil, err
			}
			out[i] = conv
		}
		return &ir.Seq{Exprs: out}, nil
	case *ast.Lambda:
		return pc.convertLambda(t)
	case *ast.Let:
		return pc.convertLet(t, tail)
	case *ast.Letrec:
		return pc.convertFix(t, tail)
	case *ast.Call:
		return pc.convertCall(t, tail)
	case *ast.Set:
		return nil, fmt.Errorf("passes: set! survived assignment conversion")
	default:
		return nil, fmt.Errorf("passes: unknown expression %T", e)
	}
}

func (pc *procConverter) convertLambda(t *ast.Lambda) (*ir.MakeClosure, error) {
	inner := &procConverter{cc: pc.cc, parent: pc, locals: map[*ast.Var]*ir.Var{}}
	params := make([]*ir.Var, len(t.Params))
	for i, p := range t.Params {
		params[i] = inner.newLocal(p)
		params[i].Name = string(p.Name)
	}
	body, err := inner.convert(t.Body, true)
	if err != nil {
		return nil, err
	}
	proc := &ir.Proc{
		Name:   t.Name,
		Params: params,
		NFree:  len(inner.freeOrder),
		Body:   body,
	}
	for _, fv := range inner.freeOrder {
		proc.FreeNames = append(proc.FreeNames, string(fv.Name))
	}
	pc.cc.procs = append(pc.cc.procs, proc)
	procIdx := pc.cc.procBase + len(pc.cc.procs) - 1

	free := make([]ir.Expr, len(inner.freeOrder))
	for i, fv := range inner.freeOrder {
		free[i] = pc.resolve(fv)
	}
	return &ir.MakeClosure{ProcIndex: procIdx, Free: free}, nil
}

func (pc *procConverter) convertLet(t *ast.Let, tail bool) (ir.Expr, error) {
	// Alpha-renaming guarantees the inits cannot see the new bindings,
	// so a parallel let lowers to a chain of sequential binds.
	inits := make([]ir.Expr, len(t.Inits))
	for i, init := range t.Inits {
		conv, err := pc.convert(init, false)
		if err != nil {
			return nil, err
		}
		inits[i] = conv
	}
	vars := make([]*ir.Var, len(t.Vars))
	for i, v := range t.Vars {
		vars[i] = pc.newLocal(v)
	}
	body, err := pc.convert(t.Body, tail)
	if err != nil {
		return nil, err
	}
	for i := len(vars) - 1; i >= 0; i-- {
		body = &ir.Bind{Var: vars[i], Rhs: inits[i], Body: body}
	}
	return body, nil
}

// convertFix handles letrecs of unassigned lambdas (assignment
// conversion lowered every other letrec to boxes).
func (pc *procConverter) convertFix(t *ast.Letrec, tail bool) (ir.Expr, error) {
	vars := make([]*ir.Var, len(t.Vars))
	for i, v := range t.Vars {
		vars[i] = pc.newLocal(v)
	}
	closures := make([]*ir.MakeClosure, len(t.Inits))
	for i, init := range t.Inits {
		lam, ok := init.(*ast.Lambda)
		if !ok {
			return nil, fmt.Errorf("passes: letrec init is not a lambda after assignment conversion")
		}
		mc, err := pc.convertLambda(lam)
		if err != nil {
			return nil, err
		}
		closures[i] = mc
	}
	body, err := pc.convert(t.Body, tail)
	if err != nil {
		return nil, err
	}
	return &ir.Fix{Vars: vars, Closures: closures, Body: body, SaveVars: make([]bool, len(vars))}, nil
}

func (pc *procConverter) convertCall(t *ast.Call, tail bool) (ir.Expr, error) {
	if g, ok := t.Fn.(*ast.GlobalRef); ok {
		// call/cc is compiled specially unless the program shadows it.
		if (g.Name == "call/cc" || g.Name == "call-with-current-continuation") &&
			!pc.cc.userDefined[g.Name] && len(t.Args) == 1 {
			fn, err := pc.convert(t.Args[0], false)
			if err != nil {
				return nil, err
			}
			return &ir.Call{Fn: fn, Tail: tail, CallCC: true}, nil
		}
		if def := pc.cc.openCodable(g.Name); def != nil {
			if err := prim.CheckArity(def, len(t.Args)); err != nil {
				return nil, fmt.Errorf("passes: %v", err)
			}
			args := make([]ir.Expr, len(t.Args))
			for i, a := range t.Args {
				conv, err := pc.convert(a, false)
				if err != nil {
					return nil, err
				}
				args[i] = conv
			}
			return &ir.PrimCall{Def: def, Args: args}, nil
		}
	}
	fn, err := pc.convert(t.Fn, false)
	if err != nil {
		return nil, err
	}
	args := make([]ir.Expr, len(t.Args))
	for i, a := range t.Args {
		conv, err := pc.convert(a, false)
		if err != nil {
			return nil, err
		}
		args[i] = conv
	}
	return &ir.Call{Fn: fn, Args: args, Tail: tail}, nil
}
