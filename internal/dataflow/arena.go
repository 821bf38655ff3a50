package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/findings"
	"repro/internal/prim"
	"repro/internal/vm"
)

// The arena-lifetime escape analysis. Pair cells, closure objects, and
// closure free-variable slices come from a per-machine arena
// (prim.Arena) that Machine.Recycle invalidates wholesale between
// runs, and constants containing mutable structure are shared
// Program-lifetime values that every load must arena-copy
// (Program.ConstMutable). Closures joined the arena in PR 10, so the
// analysis treats every OpClosure result (and the bootstrap closure in
// main's cp register) as arena-tainted from birth; the rules below are
// checked for the combined pair+closure ownership story:
//
//  1. const-pool protection: every constant containing mutable
//     structure (pairs or vectors) must be marked ConstMutable so the
//     machine copies it per load (kind arena-const-unprotected), and no
//     mutating primitive may receive structure loaded from an
//     unprotected constant (kind arena-const-mutation) — otherwise one
//     machine's set-car! corrupts the Program every machine shares.
//
//  2. no stale global reads: a global that may hold arena-derived
//     structure must be provably re-stored on every path from main's
//     entry before anything can read it — directly in main, or
//     transitively through a call from main (kind
//     arena-stale-global-read). Globals survive Recycle but their
//     arena-derived contents do not, so a read that can happen before
//     the same-run store would observe recycled cells on a re-run.
//
//  3. optionally (StrictResult), the program result must be provably
//     arena-free (kind arena-result-escape): an embedder that recycles
//     between runs while retaining results needs Machine.Recycle's
//     caveat to be vacuous. Real programs return list structure all the
//     time — the machine's contract makes the CALLER keep the result
//     alive past Recycle — so this rule is opt-in.
//
// The analysis is a whole-program forward taint pass built on the
// package's CFG + fixpoint engine: per extent it tracks, for every
// register and frame slot, whether the value may contain arena cells
// (arenaT) and whether it may contain unprotected Program-lifetime
// structure (constT), with primitive effects classified by prims.go and
// global taint resolved by an outer fixpoint like the call-graph
// builder's. Mutation is handled conservatively: once any mutator
// stores an arena-derived value anywhere (set-car!, vector-set!, ...),
// every global the code ever stores is assumed arena-tainted, since the
// mutated structure may be reachable from any of them.

// Arena finding kinds.
const (
	// KindArenaConstUnprotected marks a constant-pool entry containing
	// mutable structure that is not flagged ConstMutable.
	KindArenaConstUnprotected = "arena-const-unprotected"
	// KindArenaConstMutation marks a mutating primitive whose mutated
	// argument may be unprotected Program-lifetime structure.
	KindArenaConstMutation = "arena-const-mutation"
	// KindArenaStaleGlobalRead marks a read (direct or through a call
	// from main) of an arena-tainted global that is not provably
	// re-stored first in the current run.
	KindArenaStaleGlobalRead = "arena-stale-global-read"
	// KindArenaResultEscape marks a program whose result may contain
	// arena cells (reported only under ArenaOptions.StrictResult).
	KindArenaResultEscape = "arena-result-escape"
)

// ArenaOptions configures the analysis.
type ArenaOptions struct {
	// StrictResult additionally requires the program result to be
	// arena-free (see the package rules above).
	StrictResult bool
}

// ArenaStats aggregates one program's audit.
type ArenaStats struct {
	// Extents counts procedure bodies analyzed; Unanalyzable those whose
	// CFG could not be built (every check involving them degrades to the
	// conservative assumption).
	Extents      int `json:"extents"`
	Unanalyzable int `json:"unanalyzable"`
	// MutableConsts counts constant-pool entries with mutable structure;
	// TaintedGlobals the globals that may hold arena-derived values.
	MutableConsts  int `json:"mutable_consts"`
	TaintedGlobals int `json:"tainted_globals"`
	// MutationHazard reports that some mutator may store arena-derived
	// structure (the conservative trigger for rule 2's global taint).
	MutationHazard bool `json:"mutation_hazard"`
	// Findings counts by kind.
	ConstUnprotected int `json:"const_unprotected"`
	ConstMutations   int `json:"const_mutations"`
	StaleGlobalReads int `json:"stale_global_reads"`
	ResultEscapes    int `json:"result_escapes"`
}

// ArenaReport is the analysis result for one program.
type ArenaReport struct {
	Findings []findings.Finding
	Totals   ArenaStats
}

// Clean reports whether the audit found no violations.
func (r *ArenaReport) Clean() bool { return len(r.Findings) == 0 }

// hasMutableStructure reports whether v contains a pair or vector
// anywhere (the structures CopyTree copies and mutators can change).
// Matches the compiler's ConstMutable predicate, which only needs to
// look at the top level: any nested pair or vector sits under a
// top-level pair or vector.
func hasMutableStructure(v prim.Value) bool {
	if _, ok := v.Pair(); ok {
		return true
	}
	_, ok := v.Vector()
	return ok
}

// taintState is the per-point lattice: two bits per location (registers
// then frame slots) — may-hold-arena and may-hold-unprotected-const.
// Join is bitwise OR (a may-analysis).
type taintState struct {
	arena []bool
	conz  []bool
}

type taintProblem struct {
	p      *vm.Program
	g      *Graph
	nRegs  int
	frame  int
	isMain bool
	// constUnprotected[i] is true for const-pool entries with mutable
	// structure not marked ConstMutable (rule 1 scan's result).
	constUnprotected []bool
	gArena, gConst   []bool
	// effects discovered during transfer (monotone accumulators; safe
	// because the engine only re-runs transfer, never un-runs it).
	mutHazard *bool
	constMut  map[int]int // pc -> operand register/slot of the mutation
}

func (tp taintProblem) size() int { return tp.nRegs + tp.frame }

func (tp taintProblem) Entry() taintState {
	s := taintState{arena: make([]bool, tp.size()), conz: make([]bool, tp.size())}
	if !tp.isMain {
		// A procedure can be handed anything through registers and
		// stack-passed arguments. Unprotected const structure is excluded
		// by rule 1: when the scan is clean no such value exists at run
		// time, and when it is not, the const-unprotected finding already
		// fired.
		for i := range s.arena {
			s.arena[i] = true
		}
	} else if vm.RegCP < tp.nRegs {
		// Main starts with the bootstrap closure in cp, which is
		// arena-allocated like every other closure (machine.go Run).
		s.arena[vm.RegCP] = true
	}
	return s
}

func (tp taintProblem) CopyInto(dst, src taintState) taintState {
	return taintState{
		arena: append(dst.arena[:0], src.arena...),
		conz:  append(dst.conz[:0], src.conz...),
	}
}

func (tp taintProblem) Join(dst, src taintState) (taintState, bool) {
	changed := false
	for i := range dst.arena {
		if src.arena[i] && !dst.arena[i] {
			dst.arena[i] = true
			changed = true
		}
		if src.conz[i] && !dst.conz[i] {
			dst.conz[i] = true
			changed = true
		}
	}
	return dst, changed
}

// loc maps an OpPrim/OpClosure operand to a state index (-1 if out of
// the tracked range).
func (tp taintProblem) loc(operand int) int {
	if vm.IsSlotOperand(operand) {
		if sl := vm.SlotOperand(operand); sl >= 0 && sl < tp.frame {
			return tp.nRegs + sl
		}
		return -1
	}
	if operand >= 0 && operand < tp.nRegs {
		return operand
	}
	return -1
}

func (tp taintProblem) taintAt(s taintState, operand int) (arena, conz bool) {
	if i := tp.loc(operand); i >= 0 {
		return s.arena[i], s.conz[i]
	}
	// Out-of-range operand: conservative.
	return true, true
}

func (tp taintProblem) set(s taintState, reg int, arena, conz bool) {
	if reg >= 0 && reg < tp.nRegs {
		s.arena[reg] = arena
		s.conz[reg] = conz
	}
}

func (tp taintProblem) Transfer(pc int, s taintState) taintState {
	in := tp.p.Code[pc]
	switch in.Op {
	case vm.OpMove:
		if in.B >= 0 && in.B < tp.nRegs {
			tp.set(s, in.A, s.arena[in.B], s.conz[in.B])
		} else {
			tp.set(s, in.A, true, true)
		}
	case vm.OpLoadConst:
		arena, conz := false, false
		if in.B >= 0 && in.B < len(tp.p.Consts) {
			mutable := in.B < len(tp.p.ConstMutable) && tp.p.ConstMutable[in.B]
			if mutable {
				// Copied per load: fresh arena structure.
				arena = hasMutableStructure(tp.p.Consts[in.B])
			} else if in.B < len(tp.constUnprotected) && tp.constUnprotected[in.B] {
				// Rule 1 violation: the load aliases the Program's value.
				conz = true
			}
		} else {
			arena, conz = true, true
		}
		tp.set(s, in.A, arena, conz)
	case vm.OpLoadGlobal:
		if in.B >= 0 && in.B < len(tp.gArena) {
			tp.set(s, in.A, tp.gArena[in.B], tp.gConst[in.B])
		} else {
			tp.set(s, in.A, true, true)
		}
	case vm.OpStoreGlobal:
		// Folded into the global taint by the outer fixpoint; no
		// register effect.
	case vm.OpLoadSlot:
		if in.B >= 0 && in.B < tp.frame {
			tp.set(s, in.A, s.arena[tp.nRegs+in.B], s.conz[tp.nRegs+in.B])
		} else {
			tp.set(s, in.A, true, true)
		}
	case vm.OpStoreSlot:
		if in.B >= 0 && in.B < tp.frame {
			a, c := tp.taintAt(s, in.A)
			s.arena[tp.nRegs+in.B] = a
			s.conz[tp.nRegs+in.B] = c
		}
	case vm.OpStoreOut:
		// Writes the callee's frame; the callee's entry state is already
		// fully tainted.
	case vm.OpClosure:
		// The closure object itself is allocated from the machine's
		// arena slab (PR 10), so the result is arena-tainted no matter
		// what it captures; const taint still comes from the captured
		// operands.
		conz := false
		for _, r := range in.Regs {
			_, c := tp.taintAt(s, r)
			conz = conz || c
		}
		tp.set(s, in.A, true, conz)
	case vm.OpClosurePatch:
		// Patches a captured slot of the closure in A with the value in
		// C. The closure may already be stored elsewhere (that is the
		// point of patching), so a tainted patch is a mutation hazard.
		a, c := tp.taintAt(s, in.C)
		if a {
			*tp.mutHazard = true
		}
		if in.A >= 0 && in.A < tp.nRegs {
			s.arena[in.A] = s.arena[in.A] || a
			s.conz[in.A] = s.conz[in.A] || c
		}
	case vm.OpFreeRef:
		// Free variables of the running closure: anything the creator
		// captured. Arena-conservative; const-free by rule 1.
		tp.set(s, in.A, true, false)
	case vm.OpPrim:
		tp.transferPrim(pc, in, s)
	case vm.OpCall, vm.OpCallCC:
		// The callee may return arena structure and leaves the
		// caller-save registers clobbered (restored values reload from
		// slots, which keep their own taint). Const-free by rule 1.
		e := tp.g.Effects(pc)
		e.Defs.Union(e.Clobbers).ForEach(func(r int) { tp.set(s, r, true, false) })
	default:
		// Remaining opcodes (halt, entry, jumps, branches, returns,
		// tail calls) move control, not values.
		e := tp.g.Effects(pc)
		e.Defs.Union(e.Clobbers).ForEach(func(r int) { tp.set(s, r, true, true) })
	}
	return s
}

func (tp taintProblem) transferPrim(pc int, in vm.Instr, s taintState) {
	var def *prim.Def
	if in.B >= 0 && in.B < len(tp.p.Prims) {
		def = tp.p.Prims[in.B]
	}
	eff, ok := PrimEffectOf(def)
	if !ok {
		eff = conservativePrimEffect
		// Unknown primitive: any argument may be mutated with any other.
		anyArena, anyConst := false, false
		for _, r := range in.Regs {
			a, c := tp.taintAt(s, r)
			anyArena, anyConst = anyArena || a, anyConst || c
		}
		if anyArena {
			*tp.mutHazard = true
		}
		if anyConst {
			tp.constMut[pc] = firstOperand(in.Regs)
		}
		tp.set(s, in.A, true, anyConst)
		return
	}
	argArena, argConst := false, false
	for _, r := range in.Regs {
		a, c := tp.taintAt(s, r)
		argArena, argConst = argArena || a, argConst || c
	}
	if eff.MutatesArg >= 0 && eff.MutatesArg < len(in.Regs) {
		_, mc := tp.taintAt(s, in.Regs[eff.MutatesArg])
		if mc {
			// Mutating unprotected Program-lifetime structure.
			tp.constMut[pc] = in.Regs[eff.MutatesArg]
		}
		if eff.StoresArg >= 0 && eff.StoresArg < len(in.Regs) {
			if sa, _ := tp.taintAt(s, in.Regs[eff.StoresArg]); sa {
				// Arena structure now reachable from wherever the mutated
				// value flows — including globals.
				*tp.mutHazard = true
			}
			// The mutated argument now contains the stored one.
			if mi := tp.loc(in.Regs[eff.MutatesArg]); mi >= 0 {
				sa, sc := tp.taintAt(s, in.Regs[eff.StoresArg])
				s.arena[mi] = s.arena[mi] || sa
				s.conz[mi] = s.conz[mi] || sc
			}
		}
	}
	resArena := eff.AllocatesPairs || (eff.Derives && argArena)
	resConst := eff.Derives && argConst
	tp.set(s, in.A, resArena, resConst)
}

func firstOperand(regs []int) int {
	if len(regs) > 0 {
		return regs[0]
	}
	return -1
}

// globalReadSummaries computes, per procedure, the set of globals a
// call to it may read (directly or through any callee), as bitsets over
// the global table. Unanalyzable bodies and unresolved call sites widen
// to the full set; primitive callees read no globals.
func globalReadSummaries(cg *CallGraph) [][]uint64 {
	p := cg.Prog
	words := (len(p.GlobalNames) + 63) / 64
	full := make([]uint64, words)
	for gi := range p.GlobalNames {
		full[gi/64] |= 1 << (gi % 64)
	}
	direct := make([][]uint64, len(cg.Extents))
	sitesOf := make([][]int, len(cg.Extents))
	for si, site := range cg.Sites {
		sitesOf[site.Extent] = append(sitesOf[site.Extent], si)
	}
	for i := range cg.Extents {
		d := make([]uint64, words)
		g := cg.Graphs[i]
		if g == nil {
			copy(d, full)
		} else {
			for pc := g.Start(); pc < g.End(); pc++ {
				if in := p.Code[pc]; in.Op == vm.OpLoadGlobal && in.B >= 0 && in.B < len(p.GlobalNames) {
					d[in.B/64] |= 1 << (in.B % 64)
				}
			}
		}
		direct[i] = d
	}
	sums := make([][]uint64, len(p.Procs))
	for pi := range sums {
		ei := cg.extOf[pi]
		if ei < 0 || cg.Graphs[ei] == nil {
			sums[pi] = append([]uint64(nil), full...)
			continue
		}
		sums[pi] = append([]uint64(nil), direct[ei]...)
	}
	for pass := 0; pass < DefaultMaxPasses; pass++ {
		changed := false
		for pi := range sums {
			ei := cg.extOf[pi]
			if ei < 0 || cg.Graphs[ei] == nil {
				continue
			}
			for _, si := range sitesOf[ei] {
				callee := siteReadSet(cg, sums, full, cg.Sites[si])
				for w := range sums[pi] {
					if nv := sums[pi][w] | callee[w]; nv != sums[pi][w] {
						sums[pi][w] = nv
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

// siteReadSet is the global read set of one call site's callee.
func siteReadSet(cg *CallGraph, sums [][]uint64, full []uint64, site CallSite) []uint64 {
	if site.Op == vm.OpCallCC {
		return full
	}
	switch site.Callee.Kind {
	case CalleeProc:
		if site.Callee.Index >= 0 && site.Callee.Index < len(sums) {
			return sums[site.Callee.Index]
		}
	case CalleePrim:
		return make([]uint64, len(full))
	}
	return full
}

// mustStoredProblem computes, forward over main's extent, the set of
// globals definitely stored on every path from entry (intersection
// join; gen at OpStoreGlobal).
type mustStoredProblem struct {
	p     *vm.Program
	words int
}

func (mp mustStoredProblem) Entry() []uint64 { return make([]uint64, mp.words) }
func (mp mustStoredProblem) CopyInto(dst, src []uint64) []uint64 {
	return append(dst[:0], src...)
}
func (mp mustStoredProblem) Join(dst, src []uint64) ([]uint64, bool) {
	changed := false
	for w := range dst {
		if nv := dst[w] & src[w]; nv != dst[w] {
			dst[w] = nv
			changed = true
		}
	}
	return dst, changed
}
func (mp mustStoredProblem) Transfer(pc int, s []uint64) []uint64 {
	if in := mp.p.Code[pc]; in.Op == vm.OpStoreGlobal && in.B >= 0 && in.B/64 < len(s) {
		s[in.B/64] |= 1 << (in.B % 64)
	}
	return s
}

// AnalyzeArena runs the arena-lifetime escape analysis on p.
func AnalyzeArena(p *vm.Program, opt ArenaOptions) *ArenaReport {
	rep := &ArenaReport{}
	cg := BuildCallGraph(p)
	rep.Totals.Extents = len(cg.Extents)
	for _, g := range cg.Graphs {
		if g == nil {
			rep.Totals.Unanalyzable++
		}
	}

	// Rule 1a: const-pool protection scan.
	constUnprotected := make([]bool, len(p.Consts))
	for i, c := range p.Consts {
		if !hasMutableStructure(c) {
			continue
		}
		rep.Totals.MutableConsts++
		if i < len(p.ConstMutable) && p.ConstMutable[i] {
			continue
		}
		constUnprotected[i] = true
		rep.Totals.ConstUnprotected++
		pc, proc := firstConstLoad(p, cg, i)
		rep.Findings = append(rep.Findings, findings.Finding{
			Tool: "arena", Kind: KindArenaConstUnprotected, Proc: proc,
			PC: pc, Instr: instrAt(p, pc), Reg: -1, Slot: i, CallPC: -1,
			Msg: fmt.Sprintf("constant %d contains mutable structure (%s) but is not marked ConstMutable: loads alias the shared Program value instead of arena copies", i, prim.WriteString(c)),
		})
	}

	// Whole-program taint fixpoint (rule 1b inputs + rule 2 global taint).
	gArena := make([]bool, len(p.GlobalNames))
	gConst := make([]bool, len(p.GlobalNames))
	storedByCode := make([]bool, len(p.GlobalNames))
	mutHazard := false
	problems := make([]taintProblem, len(cg.Extents))
	for i, ext := range cg.Extents {
		frame := 0
		if in := p.Code[ext.Start]; in.Op == vm.OpEntry && in.B > 0 {
			frame = in.B
		}
		problems[i] = taintProblem{
			p: p, g: cg.Graphs[i], nRegs: p.Config.NumRegs(), frame: frame,
			isMain:           ext.Index == p.MainIndex,
			constUnprotected: constUnprotected,
			gArena:           gArena, gConst: gConst,
			mutHazard: &mutHazard,
			constMut:  map[int]int{},
		}
	}
	// Globals stored from unanalyzable extents are conservatively
	// tainted; record all code stores for the mutation-hazard widening.
	for i, ext := range cg.Extents {
		for pc := ext.Start; pc < ext.End; pc++ {
			if in := p.Code[pc]; in.Op == vm.OpStoreGlobal && in.B >= 0 && in.B < len(gArena) {
				storedByCode[in.B] = true
				if cg.Graphs[i] == nil {
					gArena[in.B] = true
				}
			}
		}
	}
	// resultEscapes lists, from the latest solve of main, the reachable
	// exits whose result may hold arena cells (rule 3's input).
	var resultEscapes []int
	mainExt := -1
	for round := 0; round < DefaultMaxPasses; round++ {
		changed := false
		for i := range cg.Extents {
			g := cg.Graphs[i]
			if g == nil {
				continue
			}
			tp := problems[i]
			sol := SolveForward[taintState](g, tp, DefaultMaxPasses)
			if tp.isMain {
				mainExt = i
				resultEscapes = resultEscapes[:0]
			}
			sol.Walk(func(pc int, in taintState) {
				instr := p.Code[pc]
				if tp.isMain && opt.StrictResult {
					switch instr.Op {
					case vm.OpHalt, vm.OpReturn:
						if a, _ := tp.taintAt(in, vm.RegRV); a {
							resultEscapes = append(resultEscapes, pc)
						}
					case vm.OpTailCall:
						// The result comes from the callee.
						resultEscapes = append(resultEscapes, pc)
					}
				}
				if instr.Op != vm.OpStoreGlobal || instr.B < 0 || instr.B >= len(gArena) {
					return
				}
				// Taint of the stored register AFTER the instructions
				// before the store ran: the in-state at the store.
				a, c := tp.taintAt(in, instr.A)
				if a && !gArena[instr.B] {
					gArena[instr.B] = true
					changed = true
				}
				if c && !gConst[instr.B] {
					gConst[instr.B] = true
					changed = true
				}
			})
		}
		if mutHazard {
			for gi := range gArena {
				if storedByCode[gi] && !gArena[gi] {
					gArena[gi] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	rep.Totals.MutationHazard = mutHazard
	for gi := range gArena {
		if gArena[gi] {
			rep.Totals.TaintedGlobals++
		}
	}

	// Rule 1b: const mutations discovered by the taint transfer.
	for i := range problems {
		ext := cg.Extents[i]
		pcs := make([]int, 0, len(problems[i].constMut))
		for pc := range problems[i].constMut {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		for _, pc := range pcs {
			rep.Totals.ConstMutations++
			rep.Findings = append(rep.Findings, findings.Finding{
				Tool: "arena", Kind: KindArenaConstMutation, Proc: ext.Info.Name,
				PC: pc, Instr: instrAt(p, pc), Reg: problems[i].constMut[pc], Slot: -1, CallPC: -1,
				Msg:     "mutating primitive may receive structure loaded from an unprotected constant: the mutation would corrupt the Program every machine shares",
				Witness: cg.Graphs[i].WitnessPath(pc),
			})
		}
	}

	// Rule 2: stale global reads, checked over main.
	if mainExt >= 0 {
		g := cg.Graphs[mainExt]
		words := (len(p.GlobalNames) + 63) / 64
		stored := SolveForward[[]uint64](g, mustStoredProblem{p: p, words: words}, DefaultMaxPasses)
		readSums := globalReadSummaries(cg)
		full := make([]uint64, words)
		for gi := range p.GlobalNames {
			full[gi/64] |= 1 << (gi % 64)
		}
		siteAt := make(map[int]CallSite, len(cg.Sites))
		for _, site := range cg.Sites {
			siteAt[site.PC] = site
		}
		has := func(bs []uint64, gi int) bool { return bs[gi/64]&(1<<(gi%64)) != 0 }
		flag := func(pc, gi, reg int) {
			rep.Totals.StaleGlobalReads++
			rep.Findings = append(rep.Findings, findings.Finding{
				Tool: "arena", Kind: KindArenaStaleGlobalRead, Proc: mainName(p),
				PC: pc, Instr: instrAt(p, pc), Reg: reg, Slot: gi, CallPC: -1,
				Msg:     fmt.Sprintf("global %s may hold arena structure from a previous run and is not provably re-stored before this read: after Machine.Recycle the read observes recycled cells", p.GlobalNames[gi]),
				Witness: g.WitnessPath(pc),
			})
		}
		stored.Walk(func(pc int, st []uint64) {
			in := p.Code[pc]
			switch in.Op {
			case vm.OpLoadGlobal:
				if in.B >= 0 && in.B < len(gArena) && gArena[in.B] && !has(st, in.B) {
					flag(pc, in.B, in.A)
				}
			case vm.OpCall, vm.OpTailCall, vm.OpCallCC:
				reads := full
				if site, ok := siteAt[pc]; ok {
					reads = siteReadSet(cg, readSums, full, site)
				}
				for gi := range gArena {
					if gArena[gi] && has(reads, gi) && !has(st, gi) {
						flag(pc, gi, -1)
						break // one finding per call site
					}
				}
			}
		})

		// Rule 3: strict result escape at main's exits.
		for _, pc := range resultEscapes {
			rep.Totals.ResultEscapes++
			rep.Findings = append(rep.Findings, findings.Finding{
				Tool: "arena", Kind: KindArenaResultEscape, Proc: mainName(p),
				PC: pc, Instr: instrAt(p, pc), Reg: vm.RegRV, Slot: -1, CallPC: -1,
				Msg:     "program result may contain arena cells: a caller that recycles between runs must not retain it (strict-result mode)",
				Witness: g.WitnessPath(pc),
			})
		}
	}

	sort.SliceStable(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].PC != rep.Findings[j].PC {
			return rep.Findings[i].PC < rep.Findings[j].PC
		}
		return rep.Findings[i].Kind < rep.Findings[j].Kind
	})
	return rep
}

func firstConstLoad(p *vm.Program, cg *CallGraph, ci int) (pc int, proc string) {
	for i, ext := range cg.Extents {
		for pc := ext.Start; pc < ext.End; pc++ {
			if in := p.Code[pc]; in.Op == vm.OpLoadConst && in.B == ci {
				_ = i
				return pc, ext.Info.Name
			}
		}
	}
	return -1, ""
}

func instrAt(p *vm.Program, pc int) string {
	if pc < 0 || pc >= len(p.Code) {
		return ""
	}
	return p.FormatInstr(p.Code[pc])
}

func mainName(p *vm.Program) string {
	if p.MainIndex >= 0 && p.MainIndex < len(p.Procs) {
		return p.Procs[p.MainIndex].Name
	}
	return ""
}

// Render formats the report for humans.
func (r *ArenaReport) Render() string {
	t := r.Totals
	s := fmt.Sprintf("arena: %d finding(s): %d unprotected const(s), %d const mutation(s), %d stale global read(s), %d result escape(s)\n",
		len(r.Findings), t.ConstUnprotected, t.ConstMutations, t.StaleGlobalReads, t.ResultEscapes)
	s += fmt.Sprintf("extents: %d (%d unanalyzable); mutable consts: %d; tainted globals: %d; mutation hazard: %v\n",
		t.Extents, t.Unanalyzable, t.MutableConsts, t.TaintedGlobals, t.MutationHazard)
	for _, f := range r.Findings {
		s += fmt.Sprintf("  %s at pc %d in %s [%s]: %s\n", f.Kind, f.PC, f.Proc, f.Instr, f.Msg)
	}
	return s
}
