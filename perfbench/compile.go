package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/prelude"
	"repro/internal/prim"
	"repro/internal/service"
	"repro/internal/sexp"
	"repro/internal/store"
	"repro/internal/verify"
	"repro/internal/vm"
)

// minUnits is the fewest units a compile run measures, so that its p99
// has at least ten samples beyond it; code_instrs sums over exactly
// these first units.
const minUnits = 1000

// compileSetup warms the pipeline by compiling and checking every suite
// program once.
func compileSetup(seed uint64) (*unitGen, error) {
	g := newUnitGen(seed)
	for _, p := range g.suite {
		c, err := compiler.Compile(p.Source, bench.PaperOptions())
		if err != nil {
			return nil, fmt.Errorf("set-up: %s: %w", p.Name, err)
		}
		if err := checkCode(c.Program); err != nil {
			return nil, fmt.Errorf("set-up: %s: %w", p.Name, err)
		}
	}
	return g, nil
}

// checkCode is the verify + lint verdict on compiled code.
func checkCode(p *vm.Program) error {
	if err := verify.Check(p); err != nil {
		return err
	}
	return analysis.Analyze(p).WasteError()
}

// checkValue compares a unit's known value with the reference
// interpreter's. Suite units skip the interpreter: their value is the
// suite's recorded Expect, which the suite's own tests check, and some
// take seconds to interpret.
func checkValue(u unit) error {
	if u.shape == shapeSuite {
		return nil
	}
	v, err := compiler.Interpret(u.source, false, nil)
	if err != nil {
		return fmt.Errorf("unit %d (%s): interpreter: %w", u.index, u.name, err)
	}
	if got := prim.WriteString(v); got != u.expect {
		return fmt.Errorf("unit %d (%s): interpreter computes %s, generator expects %s", u.index, u.name, got, u.expect)
	}
	return nil
}

// unitMix accumulates the compile workload's input properties.
type unitMix struct {
	units, deep, wide      int
	preludeBytes, allBytes int
}

func (m *unitMix) add(u unit) {
	m.units++
	switch u.shape {
	case shapeDeep:
		m.deep++
	case shapeWide:
		m.wide++
	}
	m.preludeBytes += len(prelude.Source) + 1
	m.allBytes += len(prelude.Source) + 1 + len(u.source)
}

func (m *unitMix) report(res *result) {
	res.set("compile.prelude_byte_share", "ratio", ratio(float64(m.preludeBytes), float64(m.allBytes)))
	res.set("compile.deep_share", "ratio", ratio(float64(m.deep), float64(m.units)))
	res.set("compile.wide_share", "ratio", ratio(float64(m.wide), float64(m.units)))
}

func runCompile(cfg config) (*result, error) {
	g, st, err := firstSetup(func() (*unitGen, error) { return compileSetup(cfg.seed) }, func(*unitGen) {})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceCompile(cfg, g)
	}
	// One operation is one unit taken from source to the verify + lint
	// verdict.
	opts := bench.PaperOptions()
	var t tally
	var opMs []float64
	var allocBytes uint64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		if err := st.sample(); err != nil {
			return nil, err
		}
		u := g.unit(i)
		_, b0 := heapAllocs()
		t0 := time.Now()
		c, err := compiler.Compile(u.source, opts)
		if err == nil {
			if verr := checkCode(c.Program); verr != nil {
				err = fmt.Errorf("check: %w", verr)
			}
		}
		d := time.Since(t0)
		_, b1 := heapAllocs()
		opMs = append(opMs, ms(d))
		allocBytes += b1 - b0
		if err != nil {
			t.check(fmt.Errorf("unit %d (%s): %w", i, u.name, err))
			continue
		}
		t.check(checkValue(u))
	}
	res := t.result()
	setOpMetrics(res, opMs, float64(allocBytes)/float64(len(opMs)), st.seconds())
	return res, nil
}

// tracedPipeline is compiler.Compile's pipeline called phase by phase,
// with a span around each call into a layer. The drift guard in
// traceCompile checks that its output stays byte-identical to
// compiler.Compile's.
func tracedPipeline(tr *tracer, id uint64, src string, opts compiler.Options) (*vm.Program, codegen.Stats, error) {
	root := tr.begin(id, "compile", -1)
	defer tr.end(root)
	full := src
	if !opts.NoPrelude {
		full = prelude.Source + "\n" + src
	}
	var forms []sexp.Datum
	var prog *ast.Program
	var err error
	tr.wrap(id, "sexp", root, func() { forms, err = sexp.ReadAll(full) })
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	tr.wrap(id, "ast", root, func() { prog, err = ast.ParseProgram(forms) })
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	var irProg *ir.Program
	tr.wrap(id, "passes", root, func() {
		irProg, err = passes.ClosureConvert(passes.AssignConvert(prog))
	})
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	var code *vm.Program
	var stats codegen.Stats
	tr.wrap(id, "codegen", root, func() { code, stats, err = codegen.Compile(irProg, opts.Options) })
	return code, stats, err
}

// traceCompile is the traced compile run. Per unit it runs the traced
// pipeline and, untraced, compiler.Compile; the two must emit identical
// disassembly. It then checks the code and round-trips it through an
// on-disk store.
func traceCompile(cfg config, g *unitGen) (*result, error) {
	dir, err := scratchDir("store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	opts := bench.PaperOptions()
	tr := newTracer(true)
	var t tally
	var mix unitMix
	var shapes []string // by unit ID
	var tracedNs, untracedNs int64
	var saves, restores, temps, instrs, firstInstrs int
	var compileMs, checkMs []float64
	var compileBytes uint64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		u := g.unit(i)
		id := uint64(i)
		mix.add(u)
		shapes = append(shapes, u.shape)
		// Alternate which of the two compiles goes first, so neither
		// always finds the caches warm from the other.
		var code *vm.Program
		var stats codegen.Stats
		var ref *compiler.Compiled
		var err, refErr error
		traced := func() {
			t0 := time.Now()
			code, stats, err = tracedPipeline(tr, id, u.source, opts)
			tracedNs += time.Since(t0).Nanoseconds()
		}
		untraced := func() {
			_, b0 := heapAllocs()
			t0 := time.Now()
			ref, refErr = compiler.Compile(u.source, opts)
			d := time.Since(t0)
			_, b1 := heapAllocs()
			untracedNs += d.Nanoseconds()
			compileMs = append(compileMs, ms(d))
			compileBytes += b1 - b0
		}
		if i%2 == 0 {
			traced()
			untraced()
		} else {
			untraced()
			traced()
		}
		if err != nil || refErr != nil {
			t.check(fmt.Errorf("unit %d (%s): compile: %w", i, u.name, errors.Join(err, refErr)))
			continue
		}
		var errs []error
		if code.Disassemble() != ref.Program.Disassemble() {
			errs = append(errs, fmt.Errorf("unit %d (%s): traced pipeline drifted from compiler.Compile", i, u.name))
		}
		saves += stats.SaveSites
		restores += stats.RestoreSites
		temps += stats.ShuffleTemps
		instrs += len(code.Code)
		if i < minUnits {
			firstInstrs += len(code.Code)
		}

		check := tr.begin(id, "check", -1)
		var verr error
		tr.wrap(id, "verify", check, func() { verr = verify.Check(code) })
		var rep *analysis.Report
		tr.wrap(id, "analysis", check, func() { rep = analysis.Analyze(code) })
		tr.end(check)
		checkMs = append(checkMs, ms(tr.duration(check)))
		errs = append(errs, verr, rep.WasteError())
		errs = append(errs, storeRoundTrip(tr, id, st, service.KeyFor(u.source, opts), ref))
		errs = append(errs, checkValue(u))
		if err := errors.Join(errs...); err != nil {
			t.check(fmt.Errorf("unit %d (%s): %w", i, u.name, err))
		} else {
			t.check(nil)
		}
	}

	layers := tr.selfTimes()
	n := float64(mix.units)
	res := t.result()
	// The compile pipeline and the checks as a whole: compiles are the
	// untraced reference compiles, checks the traced verify + lint.
	res.set("compile_ms_p50", "ms", percentile(compileMs, 0.50))
	res.set("compile_ms_p99", "ms", percentile(compileMs, 0.99))
	res.set("compile_units_per_s", "1/s", float64(len(compileMs))/((sum(compileMs)+sum(checkMs))/1e3))
	res.set("check_ms_p50", "ms", percentile(checkMs, 0.50))
	res.set("check_ms_p99", "ms", percentile(checkMs, 0.99))
	res.set("code_instrs", "count", float64(firstInstrs))
	res.set("compile_alloc_kb", "KiB", float64(compileBytes)/float64(len(compileMs))/1024)
	for _, name := range []string{"sexp", "ast", "passes", "codegen", "verify", "analysis"} {
		lt := layerOf(layers, name)
		res.set(name+".busy_ms", "ms", float64(lt.selfNs)/n/1e6)
		res.set(name+".allocs", "count", float64(lt.objects)/n)
	}
	for _, name := range []string{"sexp", "ast", "passes"} {
		res.set(name+".calls", "count", float64(layerOf(layers, name).calls)/n)
	}
	var deepNs, wideNs int64
	for _, sp := range tr.spans {
		switch {
		case sp.Name == "codegen" && shapes[sp.ID] == shapeDeep:
			deepNs += sp.End - sp.Start
		case sp.Name == "verify" && shapes[sp.ID] == shapeWide:
			wideNs += sp.End - sp.Start
		}
	}
	res.set("codegen.busy_ms.deep", "ms", ratio(float64(deepNs), float64(mix.deep))/1e6)
	res.set("verify.busy_ms.wide", "ms", ratio(float64(wideNs), float64(mix.wide))/1e6)
	res.set("codegen.instrs", "count", float64(instrs)/n)
	res.set("codegen.save_sites", "count", float64(saves)/n)
	res.set("codegen.restore_sites", "count", float64(restores)/n)
	res.set("codegen.shuffle_temps", "count", float64(temps)/n)
	res.set("verify.alloc_kb", "KiB", float64(layerOf(layers, "verify").bytes)/n/1024)
	res.set("store.put_ms", "ms", float64(layerOf(layers, "store.put").selfNs)/n/1e6)
	res.set("store.get_ms", "ms", float64(layerOf(layers, "store.get").selfNs)/n/1e6)
	entryBytes, entries := dirBytes(dir, ".lsrc")
	res.set("store.entry_kb", "KiB", ratio(float64(entryBytes), float64(entries))/1024)
	mix.report(res)
	res.set("trace.overhead_ratio", "ratio", ratio(float64(tracedNs), float64(untracedNs))-1)
	return finishTrace(res, tr, "compile", cfg.seed)
}

// storeRoundTrip writes c to the store and reads it back; the code read
// back must disassemble byte-identically.
func storeRoundTrip(tr *tracer, id uint64, st *store.Store, key service.CacheKey, c *compiler.Compiled) error {
	var err error
	tr.wrap(id, "store.put", -1, func() { err = st.Put(store.Key(key), c) })
	if err != nil {
		return err
	}
	var back *compiler.Compiled
	var ok bool
	tr.wrap(id, "store.get", -1, func() { back, ok = st.Get(store.Key(key)) })
	switch {
	case !ok:
		return errors.New("store miss after put")
	case back.Program.Disassemble() != c.Program.Disassemble():
		return errors.New("store round-trip changed the code")
	}
	return nil
}

// dirBytes sums the sizes of the files under dir with the given suffix.
func dirBytes(dir, suffix string) (bytes int64, files int) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != suffix {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}
