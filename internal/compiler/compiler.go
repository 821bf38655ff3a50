// Package compiler is the end-to-end pipeline: source text → reader →
// macro expansion → assignment conversion → closure conversion →
// register allocation → VM code. It is the internal engine behind the
// public lsr package.
package compiler

import (
	"io"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/passes"
	"repro/internal/prim"
	"repro/internal/verify"
	"repro/internal/vm"
)

// Options configures a compilation; it extends the code generator's
// options with front-end choices.
type Options struct {
	codegen.Options
	// NoPrelude omits the Scheme run-time library (used by tiny tests).
	NoPrelude bool
}

// DefaultOptions is the paper's configuration.
func DefaultOptions() Options {
	return Options{Options: codegen.DefaultOptions()}
}

// Compiled bundles the results of a compilation.
type Compiled struct {
	Program *vm.Program
	Stats   codegen.Stats
	// Lint is the optimality analyzer's report (nil unless Options.Lint).
	Lint *analysis.Report
}

// Compile compiles source text. The prelude's part of the program comes
// from a fragment compiled once per option set (see fragmentFor); only
// src is read, converted and allocated here, then linked onto it. The
// result is identical to compiling the prelude and src as one program.
func Compile(src string, opts Options) (*Compiled, error) {
	f, err := frontFor(opts.NoPrelude)
	if err != nil {
		return nil, err
	}
	user, err := f.parse(src)
	if err != nil {
		return nil, err
	}
	converted := passes.AssignConvert(user)
	shadow := f.shadowedBy(converted)
	if cerr := opts.Config.Validate(); cerr != nil {
		// A whole-program compile reports conversion errors before the
		// register configuration's. Convert against an uncached
		// fragment to keep that order.
		pre, _, err := passes.ConvertPrefix(f.converted, shadow)
		if err == nil {
			_, err = passes.ClosureConvertAfter(pre, converted)
		}
		if err != nil {
			return nil, err
		}
		return nil, cerr
	}
	frag, err := fragmentFor(f, opts.Options, shadow)
	if err != nil {
		return nil, err
	}
	irProg, err := passes.ClosureConvertAfter(frag.conv, converted)
	if err != nil {
		return nil, err
	}
	code, stats, err := codegen.CompileAfter(frag.code, irProg)
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		if verr := verify.Check(code); verr != nil {
			return nil, verr
		}
	}
	c := &Compiled{Program: code, Stats: stats}
	if opts.Lint {
		c.Lint = analysis.Analyze(code)
	}
	return c, nil
}

// DefaultFuel is the step budget Run and RunValidated attach to every
// execution. The differential fuzzers and unit tests run through these
// helpers, and their programs finish in well under a billion steps —
// but a miscompilation can turn a terminating program into an infinite
// loop, and without fuel that hangs `go test` instead of failing it.
const DefaultFuel = 1_000_000_000

// Run compiles and executes source, returning the result value and the
// machine counters. out receives program output (nil discards).
// Execution carries the DefaultFuel step budget; a program that
// exhausts it fails with vm.ErrFuelExhausted.
func Run(src string, opts Options, out io.Writer) (prim.Value, *vm.Counters, error) {
	c, err := Compile(src, opts)
	if err != nil {
		return prim.Value{}, nil, err
	}
	m := vm.New(c.Program, out)
	m.MaxSteps = DefaultFuel
	v, err := m.Run()
	return v, &m.Counters, err
}

// RunValidated is Run with the restore-validation machine mode on
// (poisoned registers at call boundaries).
func RunValidated(src string, opts Options, out io.Writer) (prim.Value, *vm.Counters, error) {
	c, err := Compile(src, opts)
	if err != nil {
		return prim.Value{}, nil, err
	}
	m := vm.New(c.Program, out)
	m.MaxSteps = DefaultFuel
	m.ValidateRestores = true
	v, err := m.Run()
	return v, &m.Counters, err
}

// Interpret evaluates source with the reference interpreter (the
// differential-testing oracle). The prelude's definitions are the ones
// parsed once for Compile: the interpreter never writes the AST it runs,
// and it copies quoted data before a program can mutate it.
func Interpret(src string, noPrelude bool, out io.Writer) (prim.Value, error) {
	f, err := frontFor(noPrelude)
	if err != nil {
		return prim.Value{}, err
	}
	user, err := f.parse(src)
	if err != nil {
		return prim.Value{}, err
	}
	prog := &ast.Program{
		Defs:    slices.Concat(f.parsed.Defs, user.Defs),
		Body:    user.Body,
		NumVars: user.NumVars,
		NumTmps: user.NumTmps,
	}
	in := interp.New(out)
	in.MaxSteps = 500_000_000
	return in.RunProgram(prog)
}
