package srclint

// The engine-parity analyzer: structural cross-checks between the
// execution engine's dispatch tables. The TestEngineEquivalence golden
// tests prove the engine reproduces the recorded counters on every
// program they run; this analyzer proves the tables agree on every
// opcode, so "forgot to add the case" drift surfaces as a named finding
// at lint time instead of a golden-diff debugging session at run time.
// The checks:
//
//   - every Op constant has a case in the engine's decoder (decodeOne);
//   - every dispatch code (xcode constant) has an arm in runThreaded,
//     except the ones configured as deliberately default-handled;
//   - the specialized-primitive table is closed: every spec code
//     specPrim can return is computed by its runThreaded arm (a nested
//     case for it inside the arm), so no specialized arm silently falls
//     back to the table implementation on every execution, and every
//     arm groups codes of one arity, since it reads one operand count
//     for all of them.
//
// What it deliberately cannot prove: that an arm's *body* is right —
// that remains the golden tests' job.
// Parity here is table-shape parity: presence and arity.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/findings"
)

// ParityConfig names the engine surfaces the analyzer cross-checks.
// Every name is package-local to the analyzed package.
type ParityConfig struct {
	// OpType is the opcode constant type ("Op").
	OpType string
	// XType is the threaded engine's dispatch-code type ("xcode").
	XType string
	// DecodeFunc is the threaded engine's decoder ("decodeOne").
	DecodeFunc string
	// ThreadedFunc is the threaded dispatch loop ("runThreaded").
	ThreadedFunc string
	// DefaultX lists XType constants deliberately handled by the
	// threaded loop's default arm ("xUnknown").
	DefaultX []string
	// SpecFunc maps primitives to specialized codes ("specPrim").
	SpecFunc string
	// Spec2First is the first two-argument specialized code ("xPCons");
	// spec codes at or above it are two-argument, below one-argument.
	Spec2First string
}

// DefaultParityConfig matches internal/vm's engine surfaces.
func DefaultParityConfig() ParityConfig {
	return ParityConfig{
		OpType:       "Op",
		XType:        "xcode",
		DecodeFunc:   "decodeOne",
		ThreadedFunc: "runThreaded",
		DefaultX:     []string{"xUnknown"},
		SpecFunc:     "specPrim",
		Spec2First:   "xPCons",
	}
}

// CheckParity runs the engine cross-checks over the given package
// (normally internal/vm).
func CheckParity(root string, pkg *Pkg, cfg ParityConfig) ([]findings.Finding, error) {
	c := &parityCheck{root: root, pkg: pkg, cfg: cfg}
	return c.run()
}

type parityCheck struct {
	root  string
	pkg   *Pkg
	cfg   ParityConfig
	found []findings.Finding
}

func (c *parityCheck) run() ([]findings.Finding, error) {
	opConsts, err := c.constsOf(c.cfg.OpType)
	if err != nil {
		return nil, err
	}
	xConsts, err := c.constsOf(c.cfg.XType)
	if err != nil {
		return nil, err
	}

	// 1: opcode coverage in the decoder.
	c.checkCoverage(opConsts, c.cfg.DecodeFunc, "missing-decode-case",
		"the engine's decoder has no case for it, so it would decode as unknown and trap", nil)

	// 2: dispatch-code coverage in the threaded loop.
	defaultX := map[string]bool{}
	for _, n := range c.cfg.DefaultX {
		defaultX[n] = true
	}
	c.checkCoverage(xConsts, c.cfg.ThreadedFunc, "missing-threaded-arm",
		"the threaded dispatch loop has no arm for it", defaultX)

	// 3: the specialized-primitive table is closed.
	if err := c.checkSpecTable(xConsts); err != nil {
		return nil, err
	}
	return c.found, nil
}

// constDecl is one constant of the watched type.
type constDecl struct {
	obj *types.Const
	pos token.Pos
}

// constsOf collects the package-level constants of the named type, in
// declaration (iota) order.
func (c *parityCheck) constsOf(typeName string) ([]constDecl, error) {
	tobj := c.pkg.Types.Scope().Lookup(typeName)
	if tobj == nil {
		return nil, fmt.Errorf("srclint: parity: type %s not found in %s", typeName, c.pkg.Path)
	}
	var out []constDecl
	for ident, obj := range c.pkg.Info.Defs {
		cobj, ok := obj.(*types.Const)
		if !ok || cobj.Parent() != c.pkg.Types.Scope() {
			continue
		}
		if types.Identical(cobj.Type(), tobj.Type()) {
			out = append(out, constDecl{obj: cobj, pos: ident.Pos()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi, _ := constant.Int64Val(out[i].obj.Val())
		vj, _ := constant.Int64Val(out[j].obj.Val())
		return vi < vj
	})
	return out, nil
}

// funcBody returns the body of the package function or method with the
// given name (names are unique across the package's surfaces).
func (c *parityCheck) funcBody(name string) *ast.FuncDecl {
	for _, file := range c.pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

// caseConsts collects every constant of the watched set used as a
// switch-case expression anywhere in the function body (nested
// switches included).
func (c *parityCheck) caseConsts(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, expr := range cc.List {
			if id, ok := expr.(*ast.Ident); ok {
				if obj, ok := c.pkg.Info.Uses[id].(*types.Const); ok {
					out[obj.Name()] = true
				}
			}
		}
		return true
	})
	return out
}

func (c *parityCheck) checkCoverage(consts []constDecl, funcName, kind, why string, exempt map[string]bool) {
	fd := c.funcBody(funcName)
	if fd == nil {
		c.reportAt(token.NoPos, kind, fmt.Sprintf("dispatch function %s not found in %s", funcName, c.pkg.Path))
		return
	}
	covered := c.caseConsts(fd)
	for _, cd := range consts {
		name := cd.obj.Name()
		if exempt[name] || covered[name] {
			continue
		}
		c.reportAt(cd.pos, kind, fmt.Sprintf("%s is declared but %s: %s", name, funcName, why))
	}
}

// returnedConsts collects the constants of the watched type returned by
// the function (the spec table's range).
func (c *parityCheck) returnedConsts(fd *ast.FuncDecl, typeName string) map[string]constDecl {
	out := map[string]constDecl{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		if id, ok := ret.Results[0].(*ast.Ident); ok {
			if obj, ok := c.pkg.Info.Uses[id].(*types.Const); ok {
				if named, ok := types.Unalias(obj.Type()).(*types.Named); ok && named.Obj().Name() == typeName {
					out[obj.Name()] = constDecl{obj: obj, pos: id.Pos()}
				}
			}
		}
		return true
	})
	return out
}

func (c *parityCheck) checkSpecTable(xConsts []constDecl) error {
	specFd := c.funcBody(c.cfg.SpecFunc)
	loop := c.funcBody(c.cfg.ThreadedFunc)
	if specFd == nil || loop == nil {
		c.reportAt(token.NoPos, "spec-table-mismatch", fmt.Sprintf(
			"specialized-primitive functions missing (%s/%s)", c.cfg.SpecFunc, c.cfg.ThreadedFunc))
		return nil
	}
	var spec2First int64 = -1
	for _, cd := range xConsts {
		if cd.obj.Name() == c.cfg.Spec2First {
			spec2First, _ = constant.Int64Val(cd.obj.Val())
		}
	}
	if spec2First < 0 {
		return fmt.Errorf("srclint: parity: Spec2First constant %s not found", c.cfg.Spec2First)
	}
	specs := c.returnedConsts(specFd, c.cfg.XType)
	twoArg := func(cd constDecl) bool {
		v, _ := constant.Int64Val(cd.obj.Val())
		return v >= spec2First
	}
	// arm maps each spec code to the outermost case clause of the
	// threaded loop listing it (ast.Inspect visits outer clauses first);
	// a code with no arm is check 2's finding.
	arm := map[string]*ast.CaseClause{}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		var listed []constDecl
		for _, expr := range cc.List {
			if id, ok := expr.(*ast.Ident); ok {
				if cd, ok := specs[id.Name]; ok && arm[id.Name] == nil {
					arm[id.Name] = cc
					listed = append(listed, cd)
				}
			}
		}
		for i := 1; i < len(listed); i++ {
			if twoArg(listed[i]) != twoArg(listed[0]) {
				c.reportAt(cc.Pos(), "spec-table-mismatch", fmt.Sprintf(
					"%s arm lists %s and %s, which differ in arity: the arm reads one operand count for all its codes",
					c.cfg.ThreadedFunc, listed[0].obj.Name(), listed[i].obj.Name()))
				break
			}
		}
		return true
	})
	for name, cd := range specs {
		cc := arm[name]
		if cc == nil {
			continue
		}
		computed := false
		for _, stmt := range cc.Body {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if inner, ok := n.(*ast.CaseClause); ok {
					for _, expr := range inner.List {
						if id, ok := expr.(*ast.Ident); ok && id.Name == name {
							computed = true
						}
					}
				}
				return !computed
			})
		}
		if !computed {
			c.reportAt(cd.pos, "spec-table-mismatch", fmt.Sprintf(
				"%s returns %s but its %s arm has no compute case for it: the arm would always fall back to the table implementation",
				c.cfg.SpecFunc, name, c.cfg.ThreadedFunc))
		}
	}
	return nil
}

func (c *parityCheck) reportAt(pos token.Pos, kind, msg string) {
	var file string
	var line int
	if pos.IsValid() {
		file, line = position(c.root, c.pkg.Fset, pos)
	}
	c.found = append(c.found, findings.Finding{
		Tool: "srclint", Kind: kind,
		File: file, Line: line,
		PC: -1, Reg: -1, Slot: -1, CallPC: -1,
		Msg: msg,
	})
}
