package srclint

// The program-immutability analyzer: a go/types proof that no shipped
// function outside an allowlisted constructor/decode set writes to
// vm.Program fields or the elements of their backing slices, nor to the
// fields of the compiler's shared prelude fragments. The VM's
// concurrency contract (DESIGN.md §11, vm/concurrent_test.go) is
// "Program immutable after construction, Machine per-run": the service
// cache hands one *Program to many concurrent Machines, and the
// threaded engine's decode cache is built once and shared, so a single
// post-construction write is a data race and a cache-coherence bug.
// Until now only the race-detector tests spot-checked this; here it is
// enforced over every assignment in the module. The prelude fragments
// (internal/compiler) are shared the same way: every compile under one
// option set links onto one fragment, from any goroutine.
//
// What it proves: no assignment statement, ++/--, or copy() target in
// any non-test function of the module has a left-hand side that reaches
// a field of a protected struct type (through any chain of selectors,
// indexes, and dereferences), except inside allowlisted functions.
//
// What it deliberately cannot prove: writes through an alias created
// before the check (a Program field slice stored into a local or passed
// to a callee and mutated there), writes via unsafe or reflection, and
// mutation of values *referenced by* fields (e.g. the prim.Def pointers
// in Prims). Aliased-slice mutation in particular is out of scope —
// catching it needs escape/alias analysis, not syntax — so the race
// tests remain the backstop for that class.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"repro/internal/findings"
)

// ImmutabilityConfig names the protected types and their allowed
// writers.
type ImmutabilityConfig struct {
	// Types are the protected struct types, fully qualified
	// ("repro/internal/vm.Program").
	Types []string
	// Allow lists functions permitted to write, by types.Func.FullName
	// ("(*repro/internal/vm.Program).engine",
	// "repro/internal/codegen.Compile"). A closure inherits the
	// enclosing declaration's name.
	Allow []string
	// Forbid lists fully-qualified named types that must never be
	// reachable from a protected type's fields through any chain of
	// struct fields, pointers, slices, arrays, or maps. This is the
	// static form of the arena-ownership contract: a prim.Arena is
	// per-Machine mutable state, so a path from the shared Program to an
	// Arena would make arena recycling a data race even though no code
	// writes a Program field.
	Forbid []string
}

// DefaultImmutabilityConfig protects vm.Program and the prelude
// fragment: the compiler's fragment and front-end records and the
// closure-converter and code-generator prefixes they hold. The only
// allowed writer is the engine() decode-cache initializer, which is
// guarded by sync.Once and therefore safe under the sharing contract.
// The constructors build each value in one composite literal and never
// write through it afterwards, so they need no entry. The arena — and
// with it the pair, closure, and free-variable-slice slabs — is
// forbidden from being reachable at all: it belongs to exactly one
// Machine. prim.Closure is forbidden separately because closure
// objects live INSIDE the arena's slabs (PR 10): a declared path from
// the shared Program to a Closure would pin per-machine recycled
// memory into shared state even without naming the Arena type.
func DefaultImmutabilityConfig() ImmutabilityConfig {
	return ImmutabilityConfig{
		Types: []string{
			"repro/internal/vm.Program",
			"repro/internal/compiler.front",
			"repro/internal/compiler.fragment",
			"repro/internal/passes.Prefix",
			"repro/internal/codegen.Prefix",
		},
		Allow: []string{
			"(*repro/internal/vm.Program).engine",
			// The arena seeded-violation corpus hand-assembles Programs
			// field by field; they are analyzed by internal/dataflow, never
			// run, and never shared with a Machine.
			"repro/internal/dataflow.corpusProgram",
			"repro/internal/dataflow.withConst",
			"repro/internal/dataflow.withPrim",
		},
		Forbid: []string{
			"repro/internal/prim.Arena",
			"repro/internal/prim.Closure",
		},
	}
}

// CheckImmutability proves the no-writes property over the given
// packages (normally every package in the module).
func CheckImmutability(root string, pkgs []*Pkg, cfg ImmutabilityConfig) []findings.Finding {
	allowed := map[string]bool{}
	for _, name := range cfg.Allow {
		allowed[name] = true
	}
	var fs []findings.Finding
	for _, pkg := range pkgs {
		c := &immutCheck{root: root, pkg: pkg, cfg: cfg, allowed: allowed}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				c.decl(decl)
			}
		}
		fs = append(fs, c.found...)
	}
	fs = append(fs, checkReachability(root, pkgs, cfg)...)
	return fs
}

// checkReachability proves that none of cfg.Forbid is reachable from
// the protected types' fields: it walks the field-type graph (structs,
// pointers, slices, arrays, maps) breadth-first from each protected
// struct and reports the access path to any forbidden type it reaches.
// Interfaces are opaque to the walk (a dynamic value could hide
// anything, but storing per-machine state behind an interface field of
// Program would already be a write-path violation), so the analyzer's
// claim is about the declared structure.
func checkReachability(root string, pkgs []*Pkg, cfg ImmutabilityConfig) []findings.Finding {
	if len(cfg.Forbid) == 0 {
		return nil
	}
	forbidden := map[string]bool{}
	for _, name := range cfg.Forbid {
		forbidden[name] = true
	}
	var fs []findings.Finding
	for _, pkg := range pkgs {
		for _, typ := range cfg.Types {
			named := lookupNamed(pkg, typ)
			if named == nil {
				continue
			}
			w := &reachWalk{root: root, pkg: pkg, forbidden: forbidden, seen: map[*types.Named]bool{}}
			w.walkNamed(named, typ, named.Obj().Pos())
			fs = append(fs, w.found...)
		}
	}
	return fs
}

// lookupNamed resolves a fully-qualified type name inside pkg's scope,
// returning nil when pkg does not define it.
func lookupNamed(pkg *Pkg, full string) *types.Named {
	dot := lastDot(full)
	if dot < 0 || pkg.Path != full[:dot] {
		return nil
	}
	obj := pkg.Types.Scope().Lookup(full[dot+1:])
	if obj == nil {
		return nil
	}
	named, _ := types.Unalias(obj.Type()).(*types.Named)
	return named
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

type reachWalk struct {
	root      string
	pkg       *Pkg
	forbidden map[string]bool
	seen      map[*types.Named]bool
	found     []findings.Finding
}

// walkNamed expands a named type's underlying struct, if any.
func (w *reachWalk) walkNamed(n *types.Named, path string, at token.Pos) {
	if w.seen[n] {
		return
	}
	w.seen[n] = true
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		w.walkType(f.Type(), path+"."+f.Name(), f.Pos())
	}
}

// walkType follows one field type through containers to named types.
func (w *reachWalk) walkType(t types.Type, path string, at token.Pos) {
	switch u := types.Unalias(t).(type) {
	case *types.Pointer:
		w.walkType(u.Elem(), path, at)
	case *types.Slice:
		w.walkType(u.Elem(), path, at)
	case *types.Array:
		w.walkType(u.Elem(), path, at)
	case *types.Map:
		w.walkType(u.Key(), path, at)
		w.walkType(u.Elem(), path, at)
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil && w.forbidden[obj.Pkg().Path()+"."+obj.Name()] {
			file, line := position(w.root, w.pkg.Fset, at)
			w.found = append(w.found, findings.Finding{
				Tool: "srclint", Kind: "arena-reachable",
				File: file, Line: line,
				PC: -1, Reg: -1, Slot: -1, CallPC: -1,
				Msg: fmt.Sprintf("forbidden type %s.%s is reachable from a shared type as %s: per-machine mutable state must not hang off a type shared by concurrent machines",
					obj.Pkg().Path(), obj.Name(), path),
			})
			return
		}
		w.walkNamed(u, path, at)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			w.walkType(f.Type(), path+"."+f.Name(), f.Pos())
		}
	}
}

type immutCheck struct {
	root    string
	pkg     *Pkg
	cfg     ImmutabilityConfig
	allowed map[string]bool
	// fn is the enclosing declaration's full name during traversal.
	fn    string
	found []findings.Finding
}

func (c *immutCheck) decl(decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Body == nil {
			return
		}
		name := c.pkg.Path + ".?"
		if obj, ok := c.pkg.Info.Defs[d.Name].(*types.Func); ok {
			name = obj.FullName()
		}
		c.fn = name
		ast.Inspect(d.Body, c.visit)
	case *ast.GenDecl:
		// Package-level var initializers can write through composite
		// expressions; attribute them to the package's init.
		c.fn = c.pkg.Path + ".init"
		ast.Inspect(d, c.visit)
	}
}

func (c *immutCheck) visit(n ast.Node) bool {
	switch st := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			c.checkWrite(lhs, "assignment")
		}
	case *ast.IncDecStmt:
		c.checkWrite(st.X, "increment")
	case *ast.CallExpr:
		// copy(dst, ...) writes through dst's backing array.
		if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
			if obj, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok && obj.Name() == "copy" {
				c.checkWrite(st.Args[0], "copy into")
			}
		}
	}
	return true
}

// checkWrite reports lhs when it reaches a field of the protected type:
// it walks down through parens, indexes, slices, and dereferences, and
// flags the first selector whose base is the protected struct.
func (c *immutCheck) checkWrite(lhs ast.Expr, how string) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if typ := c.protected(e.X); typ != "" {
				if !c.allowed[c.fn] {
					c.report(e, how, typ, e.Sel.Name)
				}
				return
			}
			lhs = e.X
		default:
			return
		}
	}
}

// protected returns the protected struct type that expr's type is (or
// points to), or "" when it is none of them.
func (c *immutCheck) protected(expr ast.Expr) string {
	tv, ok := c.pkg.Info.Types[expr]
	if !ok {
		return ""
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	name := obj.Pkg().Path() + "." + obj.Name()
	if slices.Contains(c.cfg.Types, name) {
		return name
	}
	return ""
}

func (c *immutCheck) report(sel *ast.SelectorExpr, how, typ, field string) {
	file, line := position(c.root, c.pkg.Fset, sel.Pos())
	c.found = append(c.found, findings.Finding{
		Tool: "srclint", Kind: "program-mutation",
		File: file, Line: line,
		PC: -1, Reg: -1, Slot: -1, CallPC: -1,
		Msg: fmt.Sprintf("%s %s field %s in %s: %s is immutable after construction (shared across goroutines); construct a fresh value or allowlist the function with a justification",
			how, typ, field, c.fn, typ),
	})
}
