package dataflow

import (
	"testing"

	"repro/internal/prim"
	"repro/internal/sexp"
	"repro/internal/vm"
)

// TestArenaCorpus is the mutation gate: every seeded violation must
// produce every expected finding kind. A change that blinds one of the
// arena rules fails here before it can let the emitter drift.
func TestArenaCorpus(t *testing.T) {
	for _, c := range ArenaViolationCorpus() {
		rep := AnalyzeArena(c.Prog, ArenaOptions{StrictResult: c.Strict})
		got := map[string]bool{}
		// Transfers run again on every replay of a solved extent, so a
		// finding recorded per pc must still be reported exactly once.
		type site struct {
			kind     string
			pc, slot int
		}
		once := map[site]bool{}
		constMuts := 0
		for _, f := range rep.Findings {
			got[f.Kind] = true
			if k := (site{f.Kind, f.PC, f.Slot}); once[k] {
				t.Errorf("%s: %s at pc %d reported twice", c.Name, f.Kind, f.PC)
			} else {
				once[k] = true
			}
			if f.Kind == KindArenaConstMutation {
				constMuts++
			}
		}
		if rep.Totals.ConstMutations != constMuts {
			t.Errorf("%s: ConstMutations total %d, %d findings", c.Name, rep.Totals.ConstMutations, constMuts)
		}
		for _, k := range c.Want {
			if !got[k] {
				t.Errorf("%s: missing expected finding kind %s; report:\n%s", c.Name, k, rep.Render())
			}
		}
		if rep.Clean() {
			t.Errorf("%s: seeded violation analyzed clean", c.Name)
		}
	}
	for name, miss := range CheckArenaCorpus() {
		if len(miss) > 0 {
			t.Errorf("CheckArenaCorpus disagrees with direct analysis for %s: missing %v", name, miss)
		}
	}
}

// TestArenaCleanProgram holds the other side of the gate: a program
// that respects all three rules produces no findings, in both modes.
func TestArenaCleanProgram(t *testing.T) {
	// main: store a fresh cons into g, read it back, return a fixnum.
	p := corpusProgram([]sexp.Symbol{"g"}, []vm.Instr{
		{Op: vm.OpLoadConst, A: 3, B: 0},
		{Op: vm.OpPrim, A: 4, B: 0, Regs: []int{3, 3}},
		{Op: vm.OpStoreGlobal, A: 4, B: 0},
		{Op: vm.OpLoadGlobal, A: 5, B: 0},
		{Op: vm.OpMove, A: vm.RegRV, B: 3},
		{Op: vm.OpReturn},
	})
	withConst(p, prim.FixV(1))
	withPrim(p, "cons")
	for _, strict := range []bool{false, true} {
		rep := AnalyzeArena(p, ArenaOptions{StrictResult: strict})
		if !rep.Clean() {
			t.Errorf("strict=%v: clean program produced findings:\n%s", strict, rep.Render())
		}
	}
}

// TestArenaProtectedConstClean: a ConstMutable pair constant is copied
// into the arena per load, so neither const rule fires — and the copy
// counts as arena structure, so returning it trips only strict mode.
func TestArenaProtectedConstClean(t *testing.T) {
	p := corpusProgram(nil, []vm.Instr{
		{Op: vm.OpLoadConst, A: vm.RegRV, B: 0},
		{Op: vm.OpReturn},
	})
	ci := withConst(p, prim.PairV(corpusArena.NewPair(prim.FixV(1), prim.Empty)))
	p.ConstMutable[ci] = true
	if rep := AnalyzeArena(p, ArenaOptions{}); !rep.Clean() {
		t.Errorf("protected const flagged:\n%s", rep.Render())
	}
	rep := AnalyzeArena(p, ArenaOptions{StrictResult: true})
	if rep.Totals.ResultEscapes == 0 {
		t.Errorf("arena copy of a protected const escaping as the result not flagged under StrictResult:\n%s", rep.Render())
	}
}

// TestArenaResultEscapeOnlyStrict: the result-escape rule must stay
// opt-in; returning list structure is the machine's documented
// contract.
func TestArenaResultEscapeOnlyStrict(t *testing.T) {
	p := corpusProgram(nil, []vm.Instr{
		{Op: vm.OpLoadConst, A: 3, B: 0},
		{Op: vm.OpPrim, A: vm.RegRV, B: 0, Regs: []int{3, 3}},
		{Op: vm.OpReturn},
	})
	withConst(p, prim.FixV(1))
	withPrim(p, "cons")
	if rep := AnalyzeArena(p, ArenaOptions{}); !rep.Clean() {
		t.Errorf("result escape reported without StrictResult:\n%s", rep.Render())
	}
	if rep := AnalyzeArena(p, ArenaOptions{StrictResult: true}); rep.Totals.ResultEscapes == 0 {
		t.Errorf("result escape missed under StrictResult:\n%s", rep.Render())
	}
}

// TestArenaClosureTainted: closure objects come from the per-machine
// arena slab (PR 10), so even a closure that captures nothing is arena
// structure from birth. Storing one into a global must make an earlier
// read of that global stale, and returning one must trip StrictResult
// — both would have analyzed clean under the pre-slab rule that only
// propagated captured taint.
func TestArenaClosureTainted(t *testing.T) {
	p := corpusProgram([]sexp.Symbol{"g"}, []vm.Instr{
		{Op: vm.OpLoadGlobal, A: 3, B: 0},         // read g before its store
		{Op: vm.OpClosure, A: 4, B: 1, Regs: nil}, // capture-free closure of f
		{Op: vm.OpStoreGlobal, A: 4, B: 0},        // g <- closure
		{Op: vm.OpMove, A: vm.RegRV, B: 4},
		{Op: vm.OpReturn},
	}, corpusProc{
		name: "f",
		body: []vm.Instr{{Op: vm.OpEntry, A: 0, B: 0}, {Op: vm.OpReturn}},
	})
	rep := AnalyzeArena(p, ArenaOptions{})
	if rep.Totals.StaleGlobalReads == 0 {
		t.Errorf("stale read of a closure-holding global not flagged:\n%s", rep.Render())
	}
	if rep.Totals.TaintedGlobals != 1 {
		t.Errorf("closure store did not taint the global, got %d tainted:\n%s", rep.Totals.TaintedGlobals, rep.Render())
	}
	if rep := AnalyzeArena(p, ArenaOptions{StrictResult: true}); rep.Totals.ResultEscapes == 0 {
		t.Errorf("capture-free closure escaping as the result not flagged under StrictResult:\n%s", rep.Render())
	}
}

// TestPrimEffectsExhaustive keeps prims.go in lockstep with the
// runtime's primitive table, in both directions: every primitive must
// be classified, and every classification must name a primitive.
func TestPrimEffectsExhaustive(t *testing.T) {
	known := map[string]bool{}
	for _, d := range prim.All() {
		known[string(d.Name)] = true
		if _, ok := primEffects[string(d.Name)]; !ok {
			t.Errorf("primitive %s has no effect classification; add it to primEffects", d.Name)
		}
	}
	for name := range primEffects {
		if !known[name] {
			t.Errorf("primEffects entry %q names no primitive in the runtime table", name)
		}
	}
}

// TestPrimEffectOfUnknown: an unregistered primitive must come back
// un-ok so analyses fall to the conservative effect.
func TestPrimEffectOfUnknown(t *testing.T) {
	if _, ok := PrimEffectOf(nil); ok {
		t.Error("nil def classified")
	}
	if !conservativePrimEffect.AllocatesPairs || !conservativePrimEffect.Derives ||
		conservativePrimEffect.MutatesArg != 0 || conservativePrimEffect.StoresArg != 0 {
		t.Error("conservative effect is not fully conservative")
	}
}

// TestArenaMutatorTaintsGlobals: once a mutator stores arena structure
// into anything, every code-stored global is assumed to hold it — the
// conservative widening that keeps rule 2 sound without heap modeling.
func TestArenaMutatorTaintsGlobals(t *testing.T) {
	// g1 <- plain fixnum-carrying box... then set-car! splices a fresh
	// cons into a pair read back from g1, without ever storing the cons
	// into g1 directly. g1 must still become tainted, and the early read
	// of g2 (also stored by code) must be flagged.
	p := corpusProgram([]sexp.Symbol{"g1", "g2"}, []vm.Instr{
		{Op: vm.OpLoadGlobal, A: 6, B: 1}, // read g2 before its store
		{Op: vm.OpLoadConst, A: 3, B: 0},
		{Op: vm.OpPrim, A: 4, B: 0, Regs: []int{3, 3}}, // fresh cons A
		{Op: vm.OpStoreGlobal, A: 4, B: 1},             // g2 <- cons A (restore path)
		{Op: vm.OpPrim, A: 5, B: 0, Regs: []int{3, 3}}, // fresh cons B
		{Op: vm.OpPrim, A: 7, B: 1, Regs: []int{4, 5}}, // set-car!(A, B): hazard
		{Op: vm.OpStoreGlobal, A: 3, B: 0},             // g1 <- fixnum (but widened)
		{Op: vm.OpMove, A: vm.RegRV, B: 3},
		{Op: vm.OpReturn},
	})
	withConst(p, prim.FixV(1))
	withPrim(p, "cons")
	withPrim(p, "set-car!")
	rep := AnalyzeArena(p, ArenaOptions{})
	if !rep.Totals.MutationHazard {
		t.Fatalf("mutation hazard not detected:\n%s", rep.Render())
	}
	if rep.Totals.TaintedGlobals != 2 {
		t.Errorf("want both globals tainted after a mutation hazard, got %d:\n%s", rep.Totals.TaintedGlobals, rep.Render())
	}
	if rep.Totals.StaleGlobalReads == 0 {
		t.Errorf("stale read of g2 before its store not flagged:\n%s", rep.Render())
	}
}
