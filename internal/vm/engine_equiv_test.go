// Golden test for the machine's observable semantics. Every run the
// tests below make — the benchmark suite, a corpus of traps, the
// fixnum-overflow corpus, a restore-validation run and two fuel
// sweeps, each under four compiler configurations — is checked against
// testdata/engine_golden.json: the same result value, the same error
// string and trap pc, and byte-for-byte identical full counters
// (PerProc included). The golden was recorded from the original
// decode-every-step switch loop before that engine was deleted; the
// pre-decoded engine must keep reproducing it exactly, so it can
// specialize primitives and reorder its arms without ever changing the
// cost-model outputs the paper's tables are built from. Result values
// are also checked independently: the suite against each program's
// expected value, the overflow corpus against the reference
// interpreter.
//
// A fuel sweep runs one program with every step budget from 1 to 3000
// and stores one SHA-256 over its sequence of (*FuelError, counters)
// pairs, at step 1 and at the -short step 17.
//
// It lives in package vm_test because driving real programs through the
// machine needs the compiler, which depends on package vm.
//
// Regenerate (only when the corpus or the configurations change, never
// to paper over a diff):
//
//	UPDATE_ENGINE_GOLDEN=1 go test ./internal/vm -run '^TestEngineEquivalence$'
package vm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/prim"
	"repro/internal/vm"
)

const engineGoldenPath = "testdata/engine_golden.json"

// equivConfig is one compiler configuration the golden covers.
type equivConfig struct {
	name string
	opts compiler.Options
}

// equivConfigs are the paper configuration (lazy saves), the
// zero-register baseline (stack operands everywhere, exercising the
// readOperand slow paths of the specialized arms), and the two
// alternative save strategies.
func equivConfigs() []equivConfig {
	return []equivConfig{
		{"paper", bench.PaperOptions()},
		{"baseline", bench.BaselineOptions()},
		{"early", bench.StrategyOptions(codegen.SaveEarly)},
		{"late", bench.StrategyOptions(codegen.SaveLate)},
	}
}

// goldenRun is what one run showed: its written result or its error
// (with the trap pc of a *vm.RuntimeError), and its full counters.
// Counters.PerProc is moved to PerProc as (Activations, MadeCalls)
// pairs, one per procedure in Program.Procs order: the names come from
// the program, not the run, and would triple the golden's size.
type goldenRun struct {
	Key      string       `json:"key"`
	Value    string       `json:"value,omitempty"`
	Error    string       `json:"error,omitempty"`
	TrapPC   *int         `json:"trap_pc,omitempty"`
	Counters *vm.Counters `json:"counters"`
	PerProc  []int64      `json:"per_proc"`
}

// goldenSweep is the digest of one fuel sweep at one step.
type goldenSweep struct {
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
}

type goldenFile struct {
	Schema string        `json:"schema"`
	Runs   []goldenRun   `json:"runs"`
	Sweeps []goldenSweep `json:"sweeps"`
}

// runMachine executes an already-compiled program on a fresh machine
// with full counters.
func runMachine(p *vm.Program, fuel int64, validate bool) (prim.Value, error, *vm.Counters) {
	m := vm.New(p, io.Discard)
	m.Counting = vm.CountFull
	m.MaxSteps = fuel
	m.ValidateRestores = validate
	v, err := m.Run()
	return v, err, &m.Counters
}

// observe runs p under the benchmark fuel and records what the run
// showed under key.
func observe(key string, p *vm.Program, validate bool) goldenRun {
	v, err, cnt := runMachine(p, bench.BenchFuel, validate)
	r := goldenRun{Key: key, Counters: cnt, PerProc: make([]int64, 0, 2*len(cnt.PerProc))}
	for _, pc := range cnt.PerProc {
		r.PerProc = append(r.PerProc, pc.Activations, pc.MadeCalls)
	}
	cnt.PerProc = nil
	if err != nil {
		r.Error = err.Error()
		var re *vm.RuntimeError
		if errors.As(err, &re) {
			r.TrapPC = &re.PC
		}
	} else {
		r.Value = prim.WriteString(v)
	}
	return r
}

// runEssential executes p with only the essential counters.
func runEssential(p *vm.Program) (*vm.Counters, error) {
	m := vm.New(p, io.Discard)
	m.Counting = vm.CountEssential
	m.MaxSteps = bench.BenchFuel
	_, err := m.Run()
	return &m.Counters, err
}

func compileOrFatal(t *testing.T, label, src string, opts compiler.Options) *vm.Program {
	t.Helper()
	c, err := compiler.Compile(src, opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	return c.Program
}

// suitePrograms is every benchmark plus the counting loop of the quick
// subset; -short runs quickPrograms only.
func suitePrograms(t *testing.T) []*bench.Program {
	if testing.Short() {
		return quickPrograms(t)
	}
	return append(bench.All(), addSub1Program())
}

// quickPrograms is the -short subset: small programs that together
// decode every specialized primitive under every equivConfigs
// configuration (TestQuickProgramsCoverSpecPrims). fread brings *,
// string-ref and char=?; typecheck brings the type predicates and
// vector-ref. No suite program calls add1 or sub1 (boyer only quotes
// them), so a small counting loop covers those two.
func quickPrograms(t *testing.T) []*bench.Program {
	var out []*bench.Program
	for _, name := range []string{"tak", "cpstak", "deriv", "destruct", "fread", "typecheck"} {
		p, err := bench.ByName(name)
		if err != nil {
			t.Fatalf("quick subset: %v", err)
		}
		out = append(out, p)
	}
	return append(out, addSub1Program())
}

func addSub1Program() *bench.Program {
	return &bench.Program{
		Name: "add1-sub1",
		Source: `(define (count n acc) (if (zero? n) acc (count (sub1 n) (add1 acc))))
		         (count 100 0)`,
		Expect: "100",
	}
}

// trapCorpus is programs that trap at runtime. The unboxed-operand
// entries aim a wrong immediate tag at every operand position the
// specialized threaded arms type-check, so a divergence between an
// arm's tag test and the generic primitive's shows up as an error or
// counter diff.
var trapCorpus = []struct{ name, src string }{
	{"car-of-fixnum", `(car 42)`},
	{"cdr-of-empty", `(cdr '())`},
	{"add-non-number", `(+ 1 'a)`},
	{"lt-non-number", `(< 1 "x")`},
	{"vector-ref-oob", `(vector-ref (vector 1 2 3) 9)`},
	{"string-ref-oob", `(string-ref "ab" 5)`},
	{"arity", `(define (f x y) x) (f 1)`},
	{"non-procedure", `(define f 7) (f 1)`},
	{"zero-division", `(quotient 1 0)`},
	{"error-prim", `(error "boom" 1 2)`},
	// Type traps on unboxed (immediate-tagged) operands.
	{"car-of-char", `(car #\a)`},
	{"car-of-bool", `(car #t)`},
	{"cdr-of-fixnum", `(cdr 3)`},
	{"add-of-char", `(+ 1 #\a)`},
	{"add-of-bool", `(+ #t 1)`},
	{"add-of-empty", `(+ 1 '())`},
	{"sub-of-empty", `(- '() 1)`},
	{"mul-of-char", `(* 2 #\x)`},
	{"div-of-bool", `(/ #f 2)`},
	{"add1-of-bool", `(add1 #t)`},
	{"sub1-of-char", `(sub1 #\a)`},
	{"lt-of-bool", `(< 1 #t)`},
	{"eq-num-of-empty", `(= '() 0)`},
	{"quotient-of-char", `(quotient #\a 2)`},
	{"remainder-of-bool", `(remainder 7 #t)`},
	{"modulo-of-empty", `(modulo 7 '())`},
	{"vector-ref-of-fixnum", `(vector-ref 7 0)`},
	{"vector-ref-char-index", `(vector-ref (vector 1) #\a)`},
	{"string-length-of-fixnum", `(string-length 7)`},
	{"string-ref-bool-index", `(string-ref "ab" #t)`},
	{"set-car-of-fixnum", `(set-car! 1 2)`},
	{"set-cdr-of-empty", `(set-cdr! '() 2)`},
	{"char-to-int-of-fixnum", `(char->integer 5)`},
	{"int-to-char-of-bool", `(integer->char #f)`},
	{"length-of-fixnum", `(length 5)`},
	// Type trap on a BOXED fixnum operand: the wide fixnum is a
	// number, so arithmetic accepts it, but it is not a pair.
	{"car-of-boxed-fixnum", `(car (expt 2 62))`},
}

const (
	fixMax = "1152921504606846975"  // prim.FixMax
	fixMin = "-1152921504606846976" // prim.FixMin
)

// overflowCorpus drives every arithmetic primitive across the 61-bit
// immediate/boxed fixnum boundary in both directions.
var overflowCorpus = []struct{ name, src string }{
	{"add-overflow", `(+ ` + fixMax + ` 1)`},
	{"add-wide", `(+ (expt 2 62) (expt 2 62))`},
	{"sub-overflow", `(- ` + fixMin + ` 1)`},
	{"sub-unary-overflow", `(- ` + fixMin + `)`},
	{"mul-overflow", `(* 3037000499 3037000499)`},
	{"mul-wide", `(* (expt 2 32) (expt 2 29))`},
	{"add1-overflow", `(add1 ` + fixMax + `)`},
	{"sub1-overflow", `(sub1 ` + fixMin + `)`},
	{"abs-overflow", `(abs (- ` + fixMin + ` 1))`},
	{"expt-overflow", `(expt 2 62)`},
	{"quotient-boxed", `(quotient (expt 2 62) 3)`},
	{"quotient-back-in-range", `(quotient (expt 2 62) 16)`},
	{"remainder-boxed", `(remainder (expt 2 62) 1000000007)`},
	{"modulo-boxed", `(modulo (- (expt 2 62)) 1000000007)`},
	{"min-boxed", `(min (expt 2 62) (expt 2 61))`},
	{"max-boxed", `(max (expt 2 61) (expt 2 62))`},
	{"ash-overflow", `(ash 1 62)`},
	{"boxed-compare", `(< (expt 2 61) (add1 (expt 2 61)))`},
	{"boxed-equal-num", `(= (expt 2 62) (expt 2 62))`},
	{"boxed-eqv", `(eqv? (expt 2 62) (expt 2 62))`},
	{"boxed-back-to-immediate", `(- (+ ` + fixMax + ` 1) 1)`},
	{"boxed-zero-p", `(zero? (expt 2 62))`},
	{"boxed-even-p", `(even? (expt 2 62))`},
	{"boxed-fixnum-p", `(fixnum? (expt 2 62))`},
	{"boxed-in-structure", `(car (cons (expt 2 62) '()))`},
	{"boxed-display", `(number->string (add1 (expt 2 61)))`},
}

// fuelOverflowSrc conses from the arena in its inner loop and pushes
// fixnums across the boxing boundary, so a fuel sweep's cut-off lands
// on every pc of the representation's hot paths (arena cons, FixV
// overflow promotion, boxed comparison).
const fuelOverflowSrc = `
  (define (loop i acc lst)
    (if (> i 2000)
        (length lst)
        (loop (add1 i) (* acc 3) (cons acc lst))))
  (loop 0 1152921504606846000 '())`

const (
	sweepMaxFuel   = 3000
	sweepShortStep = 17
)

// sweepSteps are the fuel steps a sweep is checked at.
func sweepSteps() []int64 {
	if testing.Short() {
		return []int64{sweepShortStep}
	}
	return []int64{1, sweepShortStep}
}

// fuelSweep runs p with every budget 1, 1+steps[0], ... up to
// sweepMaxFuel, requires each run to stop with a *FuelError matching
// ErrFuelExhausted, and returns one digest per step over the runs whose
// budget that step visits.
func fuelSweep(t *testing.T, key string, p *vm.Program, steps []int64) []goldenSweep {
	t.Helper()
	hs := make([]hash.Hash, len(steps))
	for i := range hs {
		hs[i] = sha256.New()
	}
	for fuel := int64(1); fuel <= sweepMaxFuel; fuel += steps[0] {
		_, err, cnt := runMachine(p, fuel, false)
		var fe *vm.FuelError
		if !errors.As(err, &fe) || !errors.Is(err, vm.ErrFuelExhausted) {
			t.Fatalf("%s: fuel=%d: expected a FuelError matching ErrFuelExhausted, got %v", key, fuel, err)
		}
		line, err := json.Marshal(struct {
			Fuel     *vm.FuelError
			Counters *vm.Counters
		}{fe, cnt})
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range steps {
			if (fuel-1)%step == 0 {
				hs[i].Write(append(line, '\n'))
			}
		}
	}
	out := make([]goldenSweep, len(steps))
	for i, step := range steps {
		out[i] = goldenSweep{Key: fmt.Sprintf("%s/step=%d", key, step), SHA256: hex.EncodeToString(hs[i].Sum(nil))}
	}
	return out
}

// renderEngineGolden makes every run and sweep the tests check and
// encodes them one entry per line.
func renderEngineGolden(t *testing.T) []byte {
	t.Helper()
	var runs []goldenRun
	var sweeps []goldenSweep
	add := func(key, src string, opts compiler.Options, validate bool) {
		runs = append(runs, observe(key, compileOrFatal(t, key, src, opts), validate))
	}
	for _, cfg := range equivConfigs() {
		for _, p := range append(bench.All(), addSub1Program()) {
			add("suite/"+cfg.name+"/"+p.Name, p.Source, cfg.opts, false)
		}
	}
	for _, cfg := range equivConfigs() {
		for _, tc := range trapCorpus {
			add("trap/"+cfg.name+"/"+tc.name, tc.src, cfg.opts, false)
		}
	}
	for _, cfg := range equivConfigs() {
		for _, tc := range overflowCorpus {
			add("overflow/"+cfg.name+"/"+tc.name, tc.src, cfg.opts, false)
		}
	}
	deriv, err := bench.ByName("deriv")
	if err != nil {
		t.Fatal(err)
	}
	tak, err := bench.ByName("tak")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range equivConfigs() {
		add("validate/"+cfg.name+"/deriv", deriv.Source, cfg.opts, true)
	}
	steps := []int64{1, sweepShortStep}
	for _, cfg := range equivConfigs() {
		key := "fuel/" + cfg.name + "/tak"
		sweeps = append(sweeps, fuelSweep(t, key, compileOrFatal(t, key, tak.Source, cfg.opts), steps)...)
	}
	for _, cfg := range equivConfigs() {
		key := "fuel-overflow/" + cfg.name + "/loop"
		sweeps = append(sweeps, fuelSweep(t, key, compileOrFatal(t, key, fuelOverflowSrc, cfg.opts), steps)...)
	}

	var b bytes.Buffer
	b.WriteString("{\"schema\": \"lsr/engine-golden/v1\",\n\"runs\": [\n")
	writeLines(t, &b, len(runs), func(i int) any { return runs[i] })
	b.WriteString("],\n\"sweeps\": [\n")
	writeLines(t, &b, len(sweeps), func(i int) any { return sweeps[i] })
	b.WriteString("]}\n")
	return b.Bytes()
}

// writeLines writes n JSON values to b, one per line, comma-separated.
func writeLines(t *testing.T, b *bytes.Buffer, n int, at func(int) any) {
	for i := 0; i < n; i++ {
		line, err := json.Marshal(at(i))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < n-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
}

// engineGolden is the loaded golden, indexed by key, with the keys a
// test has checked.
type engineGolden struct {
	runs    map[string]goldenRun
	sweeps  map[string]string
	checked map[string]bool
}

func loadEngineGolden(t *testing.T) *engineGolden {
	t.Helper()
	data, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("read golden (generate with UPDATE_ENGINE_GOLDEN=1): %v", err)
	}
	var f goldenFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("decode %s: %v", engineGoldenPath, err)
	}
	g := &engineGolden{runs: map[string]goldenRun{}, sweeps: map[string]string{}, checked: map[string]bool{}}
	for _, r := range f.Runs {
		g.runs[r.Key] = r
	}
	for _, s := range f.Sweeps {
		g.sweeps[s.Key] = s.SHA256
	}
	return g
}

// checkRun requires got to match the golden run with its key.
func (g *engineGolden) checkRun(t *testing.T, got goldenRun) {
	t.Helper()
	want, ok := g.runs[got.Key]
	if !ok {
		t.Errorf("%s: no golden entry", got.Key)
		return
	}
	g.checked[got.Key] = true
	if got.Value != want.Value {
		t.Errorf("%s: result %s, golden %s", got.Key, got.Value, want.Value)
	}
	if got.Error != want.Error {
		t.Errorf("%s: error %q, golden %q", got.Key, got.Error, want.Error)
	}
	if !reflect.DeepEqual(got.TrapPC, want.TrapPC) {
		t.Errorf("%s: trap pc %s, golden %s", got.Key, pcString(got.TrapPC), pcString(want.TrapPC))
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.PerProc, want.PerProc) {
		t.Errorf("%s: counters diverge from the golden:%s", got.Key, counterDiff(got, want))
	}
}

// checkSweep requires got to match the golden sweep digest with its key.
func (g *engineGolden) checkSweep(t *testing.T, got goldenSweep) {
	t.Helper()
	want, ok := g.sweeps[got.Key]
	if !ok {
		t.Errorf("%s: no golden entry", got.Key)
		return
	}
	g.checked[got.Key] = true
	if got.SHA256 != want {
		t.Errorf("%s: fuel sweep digest %s, golden %s", got.Key, got.SHA256, want)
	}
}

// checkCovered requires, outside -short, that every golden entry whose
// key starts with prefix was checked, so a stale golden cannot hide
// behind a shrunken corpus.
func (g *engineGolden) checkCovered(t *testing.T, prefix string) {
	t.Helper()
	if testing.Short() {
		return
	}
	for k := range g.runs {
		if strings.HasPrefix(k, prefix) && !g.checked[k] {
			t.Errorf("golden run %s was not checked", k)
		}
	}
	for k := range g.sweeps {
		if strings.HasPrefix(k, prefix) && !g.checked[k] {
			t.Errorf("golden sweep %s was not checked", k)
		}
	}
}

func pcString(pc *int) string {
	if pc == nil {
		return "none"
	}
	return fmt.Sprint(*pc)
}

// counterDiff lists the counter fields and per-procedure pairs in
// which got and want differ.
func counterDiff(got, want goldenRun) string {
	var b strings.Builder
	gv, wv := reflect.ValueOf(got.Counters).Elem(), reflect.ValueOf(want.Counters).Elem()
	for i := 0; i < gv.NumField(); i++ {
		gf, wf := gv.Field(i).Interface(), wv.Field(i).Interface()
		if !reflect.DeepEqual(gf, wf) {
			fmt.Fprintf(&b, "\n  %s: %v, golden %v", gv.Type().Field(i).Name, gf, wf)
		}
	}
	if len(got.PerProc) != len(want.PerProc) {
		fmt.Fprintf(&b, "\n  PerProc: %d procedures, golden %d", len(got.PerProc)/2, len(want.PerProc)/2)
		return b.String()
	}
	for i := 0; i < len(got.PerProc); i += 2 {
		if got.PerProc[i] != want.PerProc[i] || got.PerProc[i+1] != want.PerProc[i+1] {
			fmt.Fprintf(&b, "\n  PerProc[%d] activations, made calls: %d %d, golden %d %d",
				i/2, got.PerProc[i], got.PerProc[i+1], want.PerProc[i], want.PerProc[i+1])
		}
	}
	return b.String()
}

// TestEngineEquivalence runs the benchmark suite under every
// configuration and checks results and full counters against the
// golden, and the essential-counter run's cost-model outputs against
// the full run's. Short mode uses the quick subset. With
// UPDATE_ENGINE_GOLDEN set it regenerates the whole golden instead.
func TestEngineEquivalence(t *testing.T) {
	if os.Getenv("UPDATE_ENGINE_GOLDEN") != "" {
		if testing.Short() {
			t.Fatal("regenerate the golden without -short")
		}
		data := renderEngineGolden(t)
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", engineGoldenPath, len(data))
		return
	}
	g := loadEngineGolden(t)
	for _, cfg := range equivConfigs() {
		for _, p := range suitePrograms(t) {
			key := "suite/" + cfg.name + "/" + p.Name
			prog := compileOrFatal(t, key, p.Source, cfg.opts)
			got := observe(key, prog, false)
			if got.Error != "" {
				t.Fatalf("%s: run error: %s", key, got.Error)
			}
			if p.Expect != "" && got.Value != p.Expect {
				t.Errorf("%s: result %s, want %s", key, got.Value, p.Expect)
			}
			g.checkRun(t, got)
			// The counters-off fast path must report the identical cost
			// model outputs.
			ess, err := runEssential(prog)
			if err != nil {
				t.Fatalf("%s: essential run: %v", key, err)
			}
			checkEssential(t, key, ess, got.Counters)
		}
	}
	g.checkCovered(t, "suite/")
}

// TestQuickProgramsCoverSpecPrims requires the -short subset to decode
// every specialized-primitive dispatch code under every configuration,
// so -short runs of TestEngineEquivalence exercise every specialized arm.
func TestQuickProgramsCoverSpecPrims(t *testing.T) {
	for _, cfg := range equivConfigs() {
		var seen [vm.NumSpecPrims]bool
		for _, p := range quickPrograms(t) {
			prog := compileOrFatal(t, cfg.name+"/"+p.Name, p.Source, cfg.opts)
			for i, used := range vm.DecodedSpecPrims(prog) {
				seen[i] = seen[i] || used
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("%s: specialized primitive code xPCar+%d is never decoded by the quick subset", cfg.name, i)
			}
		}
	}
}

// checkEssential verifies the essential counter subset (the cost-model
// outputs) against a full-mode reference.
func checkEssential(t *testing.T, label string, got, want *vm.Counters) {
	t.Helper()
	if got.Instructions != want.Instructions || got.Cycles != want.Cycles ||
		got.StallCycles != want.StallCycles ||
		got.StackReads != want.StackReads || got.StackWrites != want.StackWrites {
		t.Errorf("%s: essential counters diverge from full mode\nessential: %+v\nfull:      %+v", label, got, want)
	}
}

// TestEngineEquivalenceFuel sweeps tak's step budget so execution is
// cut off at every early pc, and checks the sequence of FuelErrors
// (budget and pc) and counters at the point of exhaustion against the
// golden digest.
func TestEngineEquivalenceFuel(t *testing.T) {
	g := loadEngineGolden(t)
	tak, err := bench.ByName("tak")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range equivConfigs() {
		key := "fuel/" + cfg.name + "/tak"
		for _, s := range fuelSweep(t, key, compileOrFatal(t, key, tak.Source, cfg.opts), sweepSteps()) {
			g.checkSweep(t, s)
		}
	}
	g.checkCovered(t, "fuel/")
}

// TestEngineEquivalenceErrors runs the trap corpus and checks each
// error, trap pc and counters against the golden.
func TestEngineEquivalenceErrors(t *testing.T) {
	g := loadEngineGolden(t)
	for _, cfg := range equivConfigs() {
		for _, tc := range trapCorpus {
			key := "trap/" + cfg.name + "/" + tc.name
			got := observe(key, compileOrFatal(t, key, tc.src, cfg.opts), false)
			if got.Error == "" {
				t.Fatalf("%s: expected a trap, got %s", key, got.Value)
			}
			g.checkRun(t, got)
		}
	}
	g.checkCovered(t, "trap/")
}

// TestEngineEquivalenceOverflow runs the overflow corpus and checks
// results and counters against the golden, and each result against the
// reference interpreter, which shares the Value representation but none
// of the VM's specialized arithmetic arms. A bug in the overflow
// promotion (an arm producing an immediate where FixV would box, or
// vice versa) would surface as an eqv?/write divergence here.
func TestEngineEquivalenceOverflow(t *testing.T) {
	g := loadEngineGolden(t)
	for _, cfg := range equivConfigs() {
		for _, tc := range overflowCorpus {
			key := "overflow/" + cfg.name + "/" + tc.name
			got := observe(key, compileOrFatal(t, key, tc.src, cfg.opts), false)
			if got.Error != "" {
				t.Fatalf("%s: run error: %s", key, got.Error)
			}
			g.checkRun(t, got)
			iv, err := compiler.Interpret(tc.src, false, io.Discard)
			if err != nil {
				t.Fatalf("%s: interpreter oracle: %v", key, err)
			}
			if want := prim.WriteString(iv); got.Value != want {
				t.Errorf("%s: machine produced %s, interpreter oracle %s", key, got.Value, want)
			}
		}
	}
	g.checkCovered(t, "overflow/")
}

// TestEngineEquivalenceFuelOverflow sweeps the step budget over
// fuelOverflowSrc and checks the sweep against the golden digest.
func TestEngineEquivalenceFuelOverflow(t *testing.T) {
	g := loadEngineGolden(t)
	for _, cfg := range equivConfigs() {
		key := "fuel-overflow/" + cfg.name + "/loop"
		for _, s := range fuelSweep(t, key, compileOrFatal(t, key, fuelOverflowSrc, cfg.opts), sweepSteps()) {
			g.checkSweep(t, s)
		}
	}
	g.checkCovered(t, "fuel-overflow/")
}

// TestEngineEquivalenceValidate runs deriv with ValidateRestores on
// (poisoned caller-save registers, every register read through the
// slow path) and checks the outcome against the golden.
func TestEngineEquivalenceValidate(t *testing.T) {
	g := loadEngineGolden(t)
	deriv, err := bench.ByName("deriv")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range equivConfigs() {
		key := "validate/" + cfg.name + "/deriv"
		got := observe(key, compileOrFatal(t, key, deriv.Source, cfg.opts), true)
		if got.Error != "" {
			t.Fatalf("%s: validate run error: %s", key, got.Error)
		}
		g.checkRun(t, got)
	}
	g.checkCovered(t, "validate/")
}
