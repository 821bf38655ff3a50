package compiler

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/passes"
	"repro/internal/prelude"
	"repro/internal/sexp"
)

// front is a library's front end, run once: the forms every program is
// read after. User source is parsed on its own with the parser's
// counters carried on from the library's, so the gensym names in it
// match those of one parse of library and user text together.
type front struct {
	// parsed is the library as read, for the interpreter.
	parsed *ast.Program
	// converted holds the assignment-converted definitions, for the
	// compiler's fragments.
	converted []ast.Def
	// numVars and numTmps are the counters user parses start from.
	numVars, numTmps int
	// open holds the global names the library mentions but neither
	// defines nor assigns. User code that defines or assigns one of
	// them changes how the library compiles (an open-coded primitive
	// becomes a global call), so those names key the fragment.
	open map[sexp.Symbol]bool
}

var (
	preludeFront = sync.OnceValues(func() (*front, error) { return newFront(prelude.Source) })
	emptyFront   = &front{parsed: &ast.Program{Body: ast.Unspecified}}
)

// frontFor returns the prelude's front end, or the empty one.
func frontFor(noPrelude bool) (*front, error) {
	if noPrelude {
		return emptyFront, nil
	}
	return preludeFront()
}

func newFront(src string) (*front, error) {
	parsed, err := ast.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("compiler: prelude: %w", err)
	}
	if parsed.Body != ast.Unspecified {
		return nil, fmt.Errorf("compiler: prelude has top-level expressions; it may only define")
	}
	converted := passes.AssignConvert(parsed)
	assigned := passes.Assigned(converted)
	open := map[sexp.Symbol]bool{}
	for name := range passes.Mentioned(converted) {
		if !assigned[name] {
			open[name] = true
		}
	}
	return &front{
		parsed:    parsed,
		converted: converted.Defs,
		numVars:   converted.NumVars,
		numTmps:   parsed.NumTmps,
		open:      open,
	}, nil
}

// parse reads and parses src as the forms following the library's.
func (f *front) parse(src string) (*ast.Program, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return ast.ParseProgramAfter(forms, f.numVars, f.numTmps)
}

// shadowedBy returns, sorted, the library's open names that p defines
// or assigns.
func (f *front) shadowedBy(p *ast.Program) []sexp.Symbol {
	if len(f.open) == 0 {
		return nil
	}
	var out []sexp.Symbol
	for name := range passes.Assigned(p) {
		if f.open[name] {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// fragment is a library compiled under one option set and shadow set:
// the closure converter's and the code generator's state after its
// definitions, which a compile continues from. It is never written once
// built; every compile under that key shares it.
type fragment struct {
	conv *passes.Prefix
	code *codegen.Prefix
}

// fragmentKey identifies a fragment: the library, the options that
// affect code (all but Verify and Lint) and the shadow set.
type fragmentKey struct {
	lib    *front
	opts   codegen.Options
	shadow string
}

// fragmentCacheSize bounds the fragment cache. Clients choose register
// configurations, so distinct keys are unbounded; the paper's sweeps
// use seven option sets.
const fragmentCacheSize = 16

var fragments fragmentCache

// fragmentFor returns f compiled under opts, whose register
// configuration is valid, with the names in shadow defined by the user
// program.
func fragmentFor(f *front, opts codegen.Options, shadow []sexp.Symbol) (*fragment, error) {
	opts.Verify, opts.Lint = false, false
	names := make([]string, len(shadow))
	for i, s := range shadow {
		names[i] = string(s)
	}
	key := fragmentKey{lib: f, opts: opts, shadow: strings.Join(names, "\x00")}
	return fragments.get(key, func() (*fragment, error) {
		conv, procs, err := passes.ConvertPrefix(f.converted, shadow)
		if err != nil {
			return nil, err
		}
		code, err := codegen.CompilePrefix(procs, opts)
		if err != nil {
			return nil, err
		}
		return &fragment{conv: conv, code: code}, nil
	})
}

// fragmentCache holds the fragmentCacheSize most recently used
// fragments. Each is built once, outside the lock, by the first compile
// that needs it; compiles under other keys do not wait for it.
type fragmentCache struct {
	mu sync.Mutex
	// entries are ordered most recently used first.
	entries []*fragmentEntry
}

type fragmentEntry struct {
	key  fragmentKey
	once sync.Once
	frag *fragment
	err  error
}

func (c *fragmentCache) get(key fragmentKey, build func() (*fragment, error)) (*fragment, error) {
	c.mu.Lock()
	i := slices.IndexFunc(c.entries, func(e *fragmentEntry) bool { return e.key == key })
	var e *fragmentEntry
	if i >= 0 {
		e = c.entries[i]
		copy(c.entries[1:i+1], c.entries[:i])
	} else {
		e = &fragmentEntry{key: key}
		if len(c.entries) < fragmentCacheSize {
			c.entries = append(c.entries, nil)
		}
		copy(c.entries[1:], c.entries)
	}
	c.entries[0] = e
	c.mu.Unlock()
	e.once.Do(func() { e.frag, e.err = build() })
	return e.frag, e.err
}
