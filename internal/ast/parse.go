package ast

import (
	"fmt"

	"repro/internal/sexp"
)

// parser carries the mutable state of a parse: the variable counter and
// gensym counter.
type parser struct {
	nextVar int
	nextTmp int
}

// scope is a lexical environment mapping names to bindings.
type scope struct {
	parent *scope
	vars   map[sexp.Symbol]*Var
}

func (s *scope) lookup(name sexp.Symbol) *Var {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v
		}
	}
	return nil
}

func (s *scope) child() *scope {
	return &scope{parent: s, vars: map[sexp.Symbol]*Var{}}
}

func (p *parser) newVar(name sexp.Symbol) *Var {
	v := &Var{Name: name, ID: p.nextVar}
	p.nextVar++
	return v
}

func (p *parser) gensym(stem string) sexp.Symbol {
	p.nextTmp++
	return sexp.Symbol(fmt.Sprintf("%%%s.%d", stem, p.nextTmp))
}

// ParseProgram parses a sequence of top-level forms. Top-level defines
// become Defs; remaining expressions are sequenced into the body. The
// value of the last body expression is the program result.
func ParseProgram(forms []sexp.Datum) (*Program, error) {
	return ParseProgramAfter(forms, 0, 0)
}

// ParseProgramAfter parses forms as the continuation of a program whose
// earlier forms used numVars variable IDs and numTmps gensyms: IDs and
// gensym names carry on from there, so each form parses exactly as it
// would following those forms in one ParseProgram call. (Top-level
// names are globals, so no other parser state crosses forms.)
func ParseProgramAfter(forms []sexp.Datum, numVars, numTmps int) (*Program, error) {
	p := &parser{nextVar: numVars, nextTmp: numTmps}
	top := &scope{vars: map[sexp.Symbol]*Var{}}
	prog := &Program{}
	var body []Expr
	for _, f := range forms {
		if name, rhs, ok := splitDefine(f); ok {
			e, err := p.parse(rhs, top, string(name))
			if err != nil {
				return nil, err
			}
			prog.Defs = append(prog.Defs, Def{Name: name, Rhs: e})
			continue
		}
		e, err := p.parse(f, top, "")
		if err != nil {
			return nil, err
		}
		body = append(body, e)
	}
	switch len(body) {
	case 0:
		prog.Body = Unspecified
	case 1:
		prog.Body = body[0]
	default:
		prog.Body = &Begin{Exprs: body}
	}
	prog.NumVars = p.nextVar
	prog.NumTmps = p.nextTmp
	return prog, nil
}

// ParseString is a convenience wrapper: read all datums in src and parse
// them as a program.
func ParseString(src string) (*Program, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return ParseProgram(forms)
}

// splitDefine recognizes (define name rhs) and (define (name . formals)
// body...) and returns the name and an equivalent rhs datum.
func splitDefine(d sexp.Datum) (sexp.Symbol, sexp.Datum, bool) {
	pair, ok := d.(*sexp.Pair)
	if !ok || pair.Car != sexp.Symbol("define") {
		return "", nil, false
	}
	items, err := sexp.ListItems(d)
	if err != nil || len(items) < 2 {
		return "", nil, false
	}
	switch head := items[1].(type) {
	case sexp.Symbol:
		if len(items) == 2 {
			return head, sexp.List(sexp.Symbol("quote"), sexp.Symbol("#!unspecified")), true
		}
		if len(items) == 3 {
			return head, items[2], true
		}
		return "", nil, false
	case *sexp.Pair:
		name, ok := head.Car.(sexp.Symbol)
		if !ok {
			return "", nil, false
		}
		lam := sexp.Cons(sexp.Symbol("lambda"), sexp.Cons(head.Cdr, sexp.List(items[2:]...)))
		return name, lam, true
	default:
		return "", nil, false
	}
}

// parse converts one datum to core AST. nameHint labels lambdas for
// profiling output.
func (p *parser) parse(d sexp.Datum, env *scope, nameHint string) (Expr, error) {
	switch t := d.(type) {
	case sexp.Fixnum, sexp.Flonum, sexp.Boolean, sexp.Char, sexp.Str:
		return &Const{Value: t}, nil
	case sexp.Symbol:
		if v := env.lookup(t); v != nil {
			return &Ref{Var: v}, nil
		}
		return &GlobalRef{Name: t}, nil
	case *sexp.Pair:
		return p.parseForm(t, env, nameHint)
	case sexp.Empty:
		return nil, fmt.Errorf("ast: empty application ()")
	default:
		return nil, fmt.Errorf("ast: cannot parse %s", d)
	}
}

func (p *parser) parseForm(form *sexp.Pair, env *scope, nameHint string) (Expr, error) {
	head, isSym := form.Car.(sexp.Symbol)
	if isSym && env.lookup(head) == nil {
		switch head {
		case "quote":
			items, err := formItems(form, 2, 2)
			if err != nil {
				return nil, err
			}
			return &Const{Value: items[1]}, nil
		case "quasiquote":
			items, err := formItems(form, 2, 2)
			if err != nil {
				return nil, err
			}
			expanded, err := expandQuasiquote(items[1], 1)
			if err != nil {
				return nil, err
			}
			return p.parse(expanded, env, nameHint)
		case "if":
			items, err := formItems(form, 3, 4)
			if err != nil {
				return nil, err
			}
			test, err := p.parse(items[1], env, "")
			if err != nil {
				return nil, err
			}
			then, err := p.parse(items[2], env, "")
			if err != nil {
				return nil, err
			}
			var els Expr = Unspecified
			if len(items) == 4 {
				if els, err = p.parse(items[3], env, ""); err != nil {
					return nil, err
				}
			}
			return &If{Test: test, Then: then, Else: els}, nil
		case "begin":
			items, err := formItems(form, 1, -1)
			if err != nil {
				return nil, err
			}
			return p.parseBody(items[1:], env)
		case "lambda":
			return p.parseLambda(form, env, nameHint)
		case "let":
			return p.parseLet(form, env, nameHint)
		case "let*":
			return p.parseLetStar(form, env, nameHint)
		case "letrec", "letrec*":
			return p.parseLetrec(form, env, nameHint)
		case "set!":
			items, err := formItems(form, 3, 3)
			if err != nil {
				return nil, err
			}
			name, ok := items[1].(sexp.Symbol)
			if !ok {
				return nil, fmt.Errorf("ast: set! target must be a symbol, got %s", items[1])
			}
			rhs, err := p.parse(items[2], env, string(name))
			if err != nil {
				return nil, err
			}
			if v := env.lookup(name); v != nil {
				v.Assigned = true
				return &Set{Var: v, Rhs: rhs}, nil
			}
			return &GlobalSet{Name: name, Rhs: rhs}, nil
		case "and":
			items, err := formItems(form, 1, -1)
			if err != nil {
				return nil, err
			}
			return p.parseAnd(items[1:], env)
		case "or":
			items, err := formItems(form, 1, -1)
			if err != nil {
				return nil, err
			}
			return p.parseOr(items[1:], env)
		case "not":
			items, err := formItems(form, 2, 2)
			if err != nil {
				return nil, err
			}
			e, err := p.parse(items[1], env, "")
			if err != nil {
				return nil, err
			}
			// (not E) = (if E #f #t), per Figure 1.
			return &If{Test: e, Then: False, Else: True}, nil
		case "when":
			items, err := formItems(form, 3, -1)
			if err != nil {
				return nil, err
			}
			test, err := p.parse(items[1], env, "")
			if err != nil {
				return nil, err
			}
			body, err := p.parseBody(items[2:], env)
			if err != nil {
				return nil, err
			}
			return &If{Test: test, Then: body, Else: Unspecified}, nil
		case "unless":
			items, err := formItems(form, 3, -1)
			if err != nil {
				return nil, err
			}
			test, err := p.parse(items[1], env, "")
			if err != nil {
				return nil, err
			}
			body, err := p.parseBody(items[2:], env)
			if err != nil {
				return nil, err
			}
			return &If{Test: test, Then: Unspecified, Else: body}, nil
		case "cond":
			return p.parseCond(form, env)
		case "case":
			return p.parseCase(form, env)
		case "do":
			return p.parseDo(form, env)
		case "define":
			return nil, fmt.Errorf("ast: define is only allowed at top level or at the head of a body")
		}
	}
	// Ordinary application.
	items, err := formItems(form, 1, -1)
	if err != nil {
		return nil, err
	}
	fn, err := p.parse(items[0], env, "")
	if err != nil {
		return nil, err
	}
	args := make([]Expr, 0, len(items)-1)
	for _, a := range items[1:] {
		e, err := p.parse(a, env, "")
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	return &Call{Fn: fn, Args: args}, nil
}

// parseBody handles internal defines at the head of a body by rewriting
// them into a letrec*, then sequences the remaining expressions.
func (p *parser) parseBody(forms []sexp.Datum, env *scope) (Expr, error) {
	var names []sexp.Symbol
	var rhss []sexp.Datum
	i := 0
	for ; i < len(forms); i++ {
		name, rhs, ok := splitDefine(forms[i])
		if !ok {
			break
		}
		names = append(names, name)
		rhss = append(rhss, rhs)
	}
	rest := forms[i:]
	if len(names) > 0 {
		if len(rest) == 0 {
			return nil, fmt.Errorf("ast: body consists only of definitions")
		}
		inner := env.child()
		vars := make([]*Var, len(names))
		for j, n := range names {
			vars[j] = p.newVar(n)
			inner.vars[n] = vars[j]
		}
		inits := make([]Expr, len(rhss))
		for j, r := range rhss {
			e, err := p.parse(r, inner, string(names[j]))
			if err != nil {
				return nil, err
			}
			inits[j] = e
		}
		body, err := p.parseBody(rest, inner)
		if err != nil {
			return nil, err
		}
		return &Letrec{Vars: vars, Inits: inits, Body: body}, nil
	}
	if len(rest) == 0 {
		return Unspecified, nil
	}
	exprs := make([]Expr, 0, len(rest))
	for _, f := range rest {
		e, err := p.parse(f, env, "")
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
	}
	if len(exprs) == 1 {
		return exprs[0], nil
	}
	return &Begin{Exprs: exprs}, nil
}

func (p *parser) parseLambda(form *sexp.Pair, env *scope, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	formals, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: lambda formals must be a proper list (variadic procedures are not supported): %s", items[1])
	}
	inner := env.child()
	params := make([]*Var, len(formals))
	for i, f := range formals {
		name, ok := f.(sexp.Symbol)
		if !ok {
			return nil, fmt.Errorf("ast: lambda formal must be a symbol, got %s", f)
		}
		params[i] = p.newVar(name)
		inner.vars[name] = params[i]
	}
	body, err := p.parseBody(items[2:], inner)
	if err != nil {
		return nil, err
	}
	if nameHint == "" {
		nameHint = "anon"
	}
	return &Lambda{Params: params, Body: body, Name: nameHint}, nil
}

// parseLet handles both ordinary and named let.
func (p *parser) parseLet(form *sexp.Pair, env *scope, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	if loopName, ok := items[1].(sexp.Symbol); ok {
		return p.parseNamedLet(loopName, items[2:], env)
	}
	names, inits, err := p.parseBindings(items[1], env)
	if err != nil {
		return nil, err
	}
	inner := env.child()
	vars := make([]*Var, len(names))
	for i, n := range names {
		vars[i] = p.newVar(n)
		inner.vars[n] = vars[i]
	}
	body, err := p.parseBody(items[2:], inner)
	if err != nil {
		return nil, err
	}
	return &Let{Vars: vars, Inits: inits, Body: body}, nil
}

func (p *parser) parseBindings(d sexp.Datum, env *scope) ([]sexp.Symbol, []Expr, error) {
	bindings, err := sexp.ListItems(d)
	if err != nil {
		return nil, nil, fmt.Errorf("ast: malformed bindings %s", d)
	}
	names := make([]sexp.Symbol, len(bindings))
	inits := make([]Expr, len(bindings))
	for i, b := range bindings {
		pair, err := sexp.ListItems(b)
		if err != nil || len(pair) != 2 {
			return nil, nil, fmt.Errorf("ast: malformed binding %s", b)
		}
		name, ok := pair[0].(sexp.Symbol)
		if !ok {
			return nil, nil, fmt.Errorf("ast: binding name must be a symbol: %s", b)
		}
		names[i] = name
		init, err := p.parse(pair[1], env, string(name))
		if err != nil {
			return nil, nil, err
		}
		inits[i] = init
	}
	return names, inits, nil
}

// parseNamedLet expands (let loop ([x e] ...) body) into
// (letrec ([loop (lambda (x ...) body)]) (loop e ...)).
func (p *parser) parseNamedLet(loopName sexp.Symbol, rest []sexp.Datum, env *scope) (Expr, error) {
	if len(rest) < 2 {
		return nil, fmt.Errorf("ast: malformed named let %s", loopName)
	}
	names, inits, err := p.parseBindings(rest[0], env)
	if err != nil {
		return nil, err
	}
	outer := env.child()
	loopVar := p.newVar(loopName)
	outer.vars[loopName] = loopVar
	inner := outer.child()
	params := make([]*Var, len(names))
	for i, n := range names {
		params[i] = p.newVar(n)
		inner.vars[n] = params[i]
	}
	body, err := p.parseBody(rest[1:], inner)
	if err != nil {
		return nil, err
	}
	lam := &Lambda{Params: params, Body: body, Name: string(loopName)}
	callArgs := make([]Expr, len(inits))
	copy(callArgs, inits)
	return &Letrec{
		Vars:  []*Var{loopVar},
		Inits: []Expr{lam},
		Body:  &Call{Fn: &Ref{Var: loopVar}, Args: callArgs},
	}, nil
}

func (p *parser) parseLetStar(form *sexp.Pair, env *scope, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	bindings, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed let* bindings")
	}
	return p.parseLetStarLoop(bindings, items[2:], env)
}

func (p *parser) parseLetStarLoop(bindings []sexp.Datum, body []sexp.Datum, env *scope) (Expr, error) {
	if len(bindings) == 0 {
		return p.parseBody(body, env)
	}
	pair, err := sexp.ListItems(bindings[0])
	if err != nil || len(pair) != 2 {
		return nil, fmt.Errorf("ast: malformed binding %s", bindings[0])
	}
	name, ok := pair[0].(sexp.Symbol)
	if !ok {
		return nil, fmt.Errorf("ast: binding name must be a symbol: %s", bindings[0])
	}
	init, err := p.parse(pair[1], env, string(name))
	if err != nil {
		return nil, err
	}
	inner := env.child()
	v := p.newVar(name)
	inner.vars[name] = v
	rest, err := p.parseLetStarLoop(bindings[1:], body, inner)
	if err != nil {
		return nil, err
	}
	return &Let{Vars: []*Var{v}, Inits: []Expr{init}, Body: rest}, nil
}

func (p *parser) parseLetrec(form *sexp.Pair, env *scope, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	bindings, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed letrec bindings")
	}
	inner := env.child()
	vars := make([]*Var, len(bindings))
	rhss := make([]sexp.Datum, len(bindings))
	for i, b := range bindings {
		pair, err := sexp.ListItems(b)
		if err != nil || len(pair) != 2 {
			return nil, fmt.Errorf("ast: malformed binding %s", b)
		}
		name, ok := pair[0].(sexp.Symbol)
		if !ok {
			return nil, fmt.Errorf("ast: binding name must be a symbol: %s", b)
		}
		vars[i] = p.newVar(name)
		inner.vars[name] = vars[i]
		rhss[i] = pair[1]
	}
	inits := make([]Expr, len(vars))
	for i, r := range rhss {
		e, err := p.parse(r, inner, string(vars[i].Name))
		if err != nil {
			return nil, err
		}
		inits[i] = e
	}
	body, err := p.parseBody(items[2:], inner)
	if err != nil {
		return nil, err
	}
	return &Letrec{Vars: vars, Inits: inits, Body: body}, nil
}

// parseAnd expands (and ...) into nested ifs, per Figure 1.
func (p *parser) parseAnd(args []sexp.Datum, env *scope) (Expr, error) {
	if len(args) == 0 {
		return True, nil
	}
	first, err := p.parse(args[0], env, "")
	if err != nil {
		return nil, err
	}
	if len(args) == 1 {
		return first, nil
	}
	rest, err := p.parseAnd(args[1:], env)
	if err != nil {
		return nil, err
	}
	return &If{Test: first, Then: rest, Else: False}, nil
}

// parseOr expands (or e1 e2 ...) into (let ([t e1]) (if t t (or e2 ...)))
// so that e1 is evaluated once, per Figure 1's (if E1 true E2) modulo the
// usual value-preserving temporary.
func (p *parser) parseOr(args []sexp.Datum, env *scope) (Expr, error) {
	if len(args) == 0 {
		return False, nil
	}
	first, err := p.parse(args[0], env, "")
	if err != nil {
		return nil, err
	}
	if len(args) == 1 {
		return first, nil
	}
	rest, err := p.parseOr(args[1:], env)
	if err != nil {
		return nil, err
	}
	tmp := p.newVar(p.gensym("or"))
	return &Let{
		Vars:  []*Var{tmp},
		Inits: []Expr{first},
		Body:  &If{Test: &Ref{Var: tmp}, Then: &Ref{Var: tmp}, Else: rest},
	}, nil
}

func (p *parser) parseCond(form *sexp.Pair, env *scope) (Expr, error) {
	items, err := formItems(form, 2, -1)
	if err != nil {
		return nil, err
	}
	return p.parseCondClauses(items[1:], env)
}

func (p *parser) parseCondClauses(clauses []sexp.Datum, env *scope) (Expr, error) {
	if len(clauses) == 0 {
		return Unspecified, nil
	}
	clause, err := sexp.ListItems(clauses[0])
	if err != nil || len(clause) == 0 {
		return nil, fmt.Errorf("ast: malformed cond clause %s", clauses[0])
	}
	if clause[0] == sexp.Symbol("else") {
		if len(clauses) != 1 {
			return nil, fmt.Errorf("ast: cond else clause must be last")
		}
		return p.parseBody(clause[1:], env)
	}
	test, err := p.parse(clause[0], env, "")
	if err != nil {
		return nil, err
	}
	rest, err := p.parseCondClauses(clauses[1:], env)
	if err != nil {
		return nil, err
	}
	if len(clause) == 1 {
		// (cond (test) ...) yields test's value when true.
		tmp := p.newVar(p.gensym("cond"))
		return &Let{
			Vars:  []*Var{tmp},
			Inits: []Expr{test},
			Body:  &If{Test: &Ref{Var: tmp}, Then: &Ref{Var: tmp}, Else: rest},
		}, nil
	}
	if len(clause) == 3 && clause[1] == sexp.Symbol("=>") {
		tmp := p.newVar(p.gensym("cond"))
		recv, err := p.parse(clause[2], env, "")
		if err != nil {
			return nil, err
		}
		return &Let{
			Vars:  []*Var{tmp},
			Inits: []Expr{test},
			Body: &If{
				Test: &Ref{Var: tmp},
				Then: &Call{Fn: recv, Args: []Expr{&Ref{Var: tmp}}},
				Else: rest,
			},
		}, nil
	}
	then, err := p.parseBody(clause[1:], env)
	if err != nil {
		return nil, err
	}
	return &If{Test: test, Then: then, Else: rest}, nil
}

// parseCase expands case into a let-bound key and a chain of memv tests.
func (p *parser) parseCase(form *sexp.Pair, env *scope) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	key, err := p.parse(items[1], env, "")
	if err != nil {
		return nil, err
	}
	tmp := p.newVar(p.gensym("case"))
	inner := env.child() // tmp is hidden from user code (gensym name)
	body, err := p.parseCaseClauses(items[2:], tmp, inner)
	if err != nil {
		return nil, err
	}
	return &Let{Vars: []*Var{tmp}, Inits: []Expr{key}, Body: body}, nil
}

func (p *parser) parseCaseClauses(clauses []sexp.Datum, key *Var, env *scope) (Expr, error) {
	if len(clauses) == 0 {
		return Unspecified, nil
	}
	clause, err := sexp.ListItems(clauses[0])
	if err != nil || len(clause) < 2 {
		return nil, fmt.Errorf("ast: malformed case clause %s", clauses[0])
	}
	if clause[0] == sexp.Symbol("else") {
		if len(clauses) != 1 {
			return nil, fmt.Errorf("ast: case else clause must be last")
		}
		return p.parseBody(clause[1:], env)
	}
	data, err := sexp.ListItems(clause[0])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed case datum list %s", clause[0])
	}
	then, err := p.parseBody(clause[1:], env)
	if err != nil {
		return nil, err
	}
	rest, err := p.parseCaseClauses(clauses[1:], key, env)
	if err != nil {
		return nil, err
	}
	test := &Call{
		Fn:   &GlobalRef{Name: "memv"},
		Args: []Expr{&Ref{Var: key}, &Const{Value: sexp.List(data...)}},
	}
	return &If{Test: test, Then: then, Else: rest}, nil
}

// parseDo expands (do ([v init step] ...) (test result ...) body ...)
// into a named-let loop.
func (p *parser) parseDo(form *sexp.Pair, env *scope) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	specs, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed do bindings")
	}
	exit, err := sexp.ListItems(items[2])
	if err != nil || len(exit) < 1 {
		return nil, fmt.Errorf("ast: malformed do exit clause")
	}

	loopSym := p.gensym("do")
	outer := env.child()
	loopVar := p.newVar(loopSym)
	outer.vars[loopSym] = loopVar

	inner := outer.child()
	vars := make([]*Var, len(specs))
	inits := make([]Expr, len(specs))
	steps := make([]sexp.Datum, len(specs))
	for i, s := range specs {
		parts, err := sexp.ListItems(s)
		if err != nil || len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("ast: malformed do binding %s", s)
		}
		name, ok := parts[0].(sexp.Symbol)
		if !ok {
			return nil, fmt.Errorf("ast: do binding name must be a symbol: %s", s)
		}
		if inits[i], err = p.parse(parts[1], env, string(name)); err != nil {
			return nil, err
		}
		vars[i] = p.newVar(name)
		inner.vars[name] = vars[i]
		if len(parts) == 3 {
			steps[i] = parts[2]
		} else {
			steps[i] = parts[0] // variable unchanged across iterations
		}
	}

	test, err := p.parse(exit[0], inner, "")
	if err != nil {
		return nil, err
	}
	var result Expr = Unspecified
	if len(exit) > 1 {
		if result, err = p.parseBody(exit[1:], inner); err != nil {
			return nil, err
		}
	}
	var bodyExprs []Expr
	for _, b := range items[3:] {
		e, err := p.parse(b, inner, "")
		if err != nil {
			return nil, err
		}
		bodyExprs = append(bodyExprs, e)
	}
	stepArgs := make([]Expr, len(steps))
	for i, s := range steps {
		e, err := p.parse(s, inner, "")
		if err != nil {
			return nil, err
		}
		stepArgs[i] = e
	}
	again := &Call{Fn: &Ref{Var: loopVar}, Args: stepArgs}
	var loopBody Expr
	if len(bodyExprs) == 0 {
		loopBody = again
	} else {
		loopBody = &Begin{Exprs: append(bodyExprs, again)}
	}
	lam := &Lambda{Params: vars, Body: &If{Test: test, Then: result, Else: loopBody}, Name: string(loopSym)}
	return &Letrec{
		Vars:  []*Var{loopVar},
		Inits: []Expr{lam},
		Body:  &Call{Fn: &Ref{Var: loopVar}, Args: inits},
	}, nil
}

// expandQuasiquote rewrites quasiquote templates into cons/append/list
// constructions. depth tracks nesting of quasiquote within quasiquote.
func expandQuasiquote(d sexp.Datum, depth int) (sexp.Datum, error) {
	switch t := d.(type) {
	case *sexp.Pair:
		if t.Car == sexp.Symbol("unquote") && sexp.Length(t) == 2 {
			arg := t.Cdr.(*sexp.Pair).Car
			if depth == 1 {
				return arg, nil
			}
			inner, err := expandQuasiquote(arg, depth-1)
			if err != nil {
				return nil, err
			}
			return sexp.List(sexp.Symbol("list"), sexp.List(sexp.Symbol("quote"), sexp.Symbol("unquote")), inner), nil
		}
		if t.Car == sexp.Symbol("quasiquote") && sexp.Length(t) == 2 {
			inner, err := expandQuasiquote(t.Cdr.(*sexp.Pair).Car, depth+1)
			if err != nil {
				return nil, err
			}
			return sexp.List(sexp.Symbol("list"), sexp.List(sexp.Symbol("quote"), sexp.Symbol("quasiquote")), inner), nil
		}
		if carPair, ok := t.Car.(*sexp.Pair); ok && carPair.Car == sexp.Symbol("unquote-splicing") && sexp.Length(carPair) == 2 {
			if depth != 1 {
				return nil, fmt.Errorf("ast: nested unquote-splicing beyond depth 1 is not supported")
			}
			spliced := carPair.Cdr.(*sexp.Pair).Car
			rest, err := expandQuasiquote(t.Cdr, depth)
			if err != nil {
				return nil, err
			}
			return sexp.List(sexp.Symbol("append"), spliced, rest), nil
		}
		car, err := expandQuasiquote(t.Car, depth)
		if err != nil {
			return nil, err
		}
		cdr, err := expandQuasiquote(t.Cdr, depth)
		if err != nil {
			return nil, err
		}
		return sexp.List(sexp.Symbol("cons"), car, cdr), nil
	case *sexp.Vector:
		lst := sexp.List(t.Items...)
		expanded, err := expandQuasiquote(lst, depth)
		if err != nil {
			return nil, err
		}
		return sexp.List(sexp.Symbol("list->vector"), expanded), nil
	default:
		return sexp.List(sexp.Symbol("quote"), d), nil
	}
}

func formItems(form *sexp.Pair, min, max int) ([]sexp.Datum, error) {
	items, err := sexp.ListItems(form)
	if err != nil {
		return nil, fmt.Errorf("ast: improper form %s", form)
	}
	if len(items) < min || (max >= 0 && len(items) > max) {
		return nil, fmt.Errorf("ast: malformed %s form: %s", items[0], form)
	}
	return items, nil
}
