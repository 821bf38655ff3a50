package dataflow

import (
	"repro/internal/vm"
)

// Call-graph construction. Every call in this instruction set goes
// through the cp register, so resolving a call site means knowing what
// closure value cp holds there. The tracker is a forward dataflow over
// a small "callable identity" lattice, run per procedure extent, with
// global bindings resolved by an outer fixpoint: top-level `define`
// compiles to a closure allocation followed by a global store, so the
// binding of each global is the join of every value stored into it
// (seeded with the prelude's primitive bindings), and loads of the
// global yield that join. Closure free variables get the same
// treatment: each procedure's free slots accumulate the join of every
// value captured at a closure allocation or stored by a patch, so the
// self-patched closures that `fix` and the expander's do-loops emit
// resolve to themselves instead of widening every recursive loop to
// unknown. A global or free slot rebound to two different procedures
// joins to unknown, as does anything flowing through channels the
// tracker does not model (data structures, call/cc).

// CalleeKind classifies what a tracked value is known to be.
type CalleeKind uint8

const (
	// CalleeNone is the lattice bottom: no value seen yet.
	CalleeNone CalleeKind = iota
	// CalleeProc is a closure of a known procedure; Index is the
	// procedure table index.
	CalleeProc
	// CalleePrim is a primitive binding; Index is the global table index
	// it came from.
	CalleePrim
	// CalleeUnknown is the lattice top: could be anything.
	CalleeUnknown
)

// Callee is one point in the callable-identity lattice.
type Callee struct {
	Kind  CalleeKind
	Index int
}

// joinCallee is the lattice join: bottom is the identity, equal values
// stay, and disagreement widens to unknown.
func joinCallee(a, b Callee) Callee {
	switch {
	case a.Kind == CalleeNone:
		return b
	case b.Kind == CalleeNone:
		return a
	case a == b:
		return a
	default:
		return Callee{Kind: CalleeUnknown}
	}
}

// CallSite is one resolved (or unresolved) call instruction.
type CallSite struct {
	// PC is the call instruction's address; Extent indexes
	// CallGraph.Extents for the enclosing procedure.
	PC     int
	Extent int
	// Op is the call opcode (OpCall, OpTailCall or OpCallCC).
	Op vm.Op
	// Callee is the tracked identity of cp at the call. Call/cc sites
	// keep the receiver here but are always treated as unresolved: the
	// captured continuation can re-enter with arbitrary register state.
	Callee Callee
}

// CallGraph holds the whole-program call structure: one extent per
// procedure, the per-extent CFGs, every call site with its resolved
// callee, and the fixpoint global bindings.
type CallGraph struct {
	Prog    *vm.Program
	Extents []Extent
	// Graphs[i] is the CFG of Extents[i], nil when the body was too
	// malformed to walk (the verifier reports why).
	Graphs []*Graph
	// Sites lists every call instruction in address order.
	Sites []CallSite
	// Globals is the resolved binding of each global cell.
	Globals []Callee
	// Frees[p][j] is the resolved binding of free-variable slot j of
	// procedure p: the join of every value captured into that slot by a
	// closure allocation or a patch anywhere in the program.
	Frees [][]Callee

	// extOf maps a procedure table index to its position in Extents
	// (-1 when the procedure has no extent).
	extOf []int
}

// ExtentOf returns the position in Extents of procedure procIdx, or -1.
func (cg *CallGraph) ExtentOf(procIdx int) int { return cg.extOf[procIdx] }

// calleeState is the tracker's per-point state: one lattice value per
// register, then one per frame slot. Frame slots matter because the
// allocator parks closure values in the frame across calls — a
// restore's provenance would otherwise be lost exactly where the
// interprocedural analysis needs it.
type calleeState []Callee

// calleeProblem runs the tracker over one extent.
type calleeProblem struct {
	cg     *CallGraph
	g      *Graph
	nRegs  int
	frame  int
	selfIx int // procedure table index of the extent's own procedure
}

func (cp calleeProblem) Entry() calleeState {
	s := make(calleeState, cp.nRegs+cp.frame)
	for i := range s {
		s[i] = Callee{Kind: CalleeUnknown}
	}
	// cp holds the closure being executed.
	s[vm.RegCP] = Callee{Kind: CalleeProc, Index: cp.selfIx}
	return s
}

func (cp calleeProblem) CopyInto(dst, src calleeState) calleeState {
	return append(dst[:0], src...)
}

func (cp calleeProblem) Join(dst, src calleeState) (calleeState, bool) {
	changed := false
	for i := range dst {
		if nv := joinCallee(dst[i], src[i]); nv != dst[i] {
			dst[i] = nv
			changed = true
		}
	}
	return dst, changed
}

// operandValue reads an OpPrim/OpClosure operand (register or encoded
// frame slot) from the state.
func (cp calleeProblem) operandValue(s calleeState, operand int) Callee {
	if vm.IsSlotOperand(operand) {
		if sl := vm.SlotOperand(operand); sl >= 0 && sl < cp.frame {
			return s[cp.nRegs+sl]
		}
		return Callee{Kind: CalleeUnknown}
	}
	if operand >= 0 && operand < cp.nRegs {
		return s[operand]
	}
	return Callee{Kind: CalleeUnknown}
}

// captureFree folds a value captured into a procedure's free slot. An
// out-of-range slot means the instruction stream disagrees with the
// procedure table, so resolution gives up on free variables entirely.
func (cg *CallGraph) captureFree(proc, slot int, v Callee) {
	if proc < 0 || proc >= len(cg.Frees) {
		return
	}
	if slot < 0 || slot >= len(cg.Frees[proc]) {
		cg.polluteFrees()
		return
	}
	cg.Frees[proc][slot] = joinCallee(cg.Frees[proc][slot], v)
}

// polluteFrees widens every free-slot binding to unknown.
func (cg *CallGraph) polluteFrees() {
	for _, fs := range cg.Frees {
		for j := range fs {
			fs[j] = Callee{Kind: CalleeUnknown}
		}
	}
}

// freeBinding is the resolved binding of one free slot.
func (cg *CallGraph) freeBinding(proc, slot int) Callee {
	if proc >= 0 && proc < len(cg.Frees) && slot >= 0 && slot < len(cg.Frees[proc]) {
		return cg.Frees[proc][slot]
	}
	return Callee{Kind: CalleeUnknown}
}

// freesSnapshot flattens Frees for the stability check.
func (cg *CallGraph) freesSnapshot() []Callee {
	var out []Callee
	for _, fs := range cg.Frees {
		out = append(out, fs...)
	}
	return out
}

func (cp calleeProblem) Transfer(pc int, s calleeState) calleeState {
	in := cp.cg.Prog.Code[pc]
	unknown := Callee{Kind: CalleeUnknown}
	switch in.Op {
	case vm.OpMove:
		s[in.A] = s[in.B]
	case vm.OpLoadConst:
		// The constant pool is compile-time data; no constant is or
		// contains a closure. Bottom, not unknown: the placeholder a
		// patched closure captures before its patch lands must not widen
		// the free slot, and a call through constant data is a runtime
		// type error on which resolution may claim anything.
		s[in.A] = Callee{Kind: CalleeNone}
	case vm.OpClosure:
		for j, r := range in.Regs {
			cp.cg.captureFree(in.B, j, cp.operandValue(s, r))
		}
		s[in.A] = Callee{Kind: CalleeProc, Index: in.B}
	case vm.OpClosurePatch:
		switch cl := s[in.A]; cl.Kind {
		case CalleeProc:
			cp.cg.captureFree(cl.Index, in.B, s[in.C])
		case CalleeNone, CalleePrim:
			// Dead value or a runtime type error: nothing to record.
		default:
			// Patching a closure of unknown identity could write any
			// procedure's free slot.
			cp.cg.polluteFrees()
		}
	case vm.OpFreeRef:
		s[in.A] = cp.cg.freeBinding(cp.selfIx, in.B)
	case vm.OpLoadGlobal:
		s[in.A] = cp.cg.Globals[in.B]
	case vm.OpLoadSlot:
		if in.B >= 0 && in.B < cp.frame {
			s[in.A] = s[cp.nRegs+in.B]
		} else {
			s[in.A] = unknown
		}
	case vm.OpStoreSlot:
		if in.B >= 0 && in.B < cp.frame {
			s[cp.nRegs+in.B] = s[in.A]
		}
	case vm.OpCall, vm.OpCallCC:
		// Conservative at tracker level: the callee may write any
		// caller-save register. Frame slots survive.
		vm.CallClobbers(cp.cg.Prog.Config).ForEach(func(r int) { s[r] = unknown })
		s[vm.RegRV] = unknown
		s[vm.RegRet] = unknown
	default:
		e := cp.g.Effects(pc)
		e.Defs.ForEach(func(r int) { s[r] = unknown })
		e.Clobbers.ForEach(func(r int) { s[r] = unknown })
		for _, sl := range e.WriteSlots {
			if sl >= 0 && sl < cp.frame {
				s[cp.nRegs+sl] = unknown
			}
		}
	}
	return s
}

// BuildCallGraph resolves the program's call structure.
func BuildCallGraph(p *vm.Program) *CallGraph {
	cg := &CallGraph{
		Prog:    p,
		Extents: Extents(p),
		Globals: make([]Callee, len(p.GlobalNames)),
		Frees:   make([][]Callee, len(p.Procs)),
		extOf:   make([]int, len(p.Procs)),
	}
	for i, pr := range p.Procs {
		if pr.NFree > 0 {
			cg.Frees[i] = make([]Callee, pr.NFree)
		}
	}
	for i := range cg.extOf {
		cg.extOf[i] = -1
	}
	cg.Graphs = make([]*Graph, len(cg.Extents))
	for i, ext := range cg.Extents {
		if g, err := NewGraph(p, ext.Start, ext.End); err == nil {
			cg.Graphs[i] = g
		}
		if cg.extOf[ext.Index] < 0 {
			cg.extOf[ext.Index] = i
		}
	}

	seed := make([]Callee, len(cg.Globals))
	for gi := range seed {
		if gi < len(p.PrimGlobals) && p.PrimGlobals[gi] != nil {
			seed[gi] = Callee{Kind: CalleePrim, Index: gi}
		}
	}
	// Stores inside unanalyzable extents are invisible to the tracker;
	// the globals and free slots they touch must stay unknown.
	for i, ext := range cg.Extents {
		if cg.Graphs[i] != nil {
			continue
		}
		for pc := ext.Start; pc < ext.End; pc++ {
			switch in := p.Code[pc]; in.Op {
			case vm.OpStoreGlobal:
				if in.B >= 0 && in.B < len(seed) {
					seed[in.B] = Callee{Kind: CalleeUnknown}
				}
			case vm.OpClosure:
				if in.B >= 0 && in.B < len(cg.Frees) {
					for j := range cg.Frees[in.B] {
						cg.Frees[in.B][j] = Callee{Kind: CalleeUnknown}
					}
				}
			case vm.OpClosurePatch:
				cg.polluteFrees()
			}
		}
	}
	copy(cg.Globals, seed)

	// Outer fixpoint over global bindings: solve every extent under the
	// current bindings, fold each global store's stored value back in,
	// repeat until stable. Bindings only rise in the lattice, so the
	// round cap is generous.
	// sites collects, from the latest solve of each extent, the tracked
	// callee at every reachable call.
	sites := make([][]CallSite, len(cg.Extents))
	stable := false
	for round := 0; round < DefaultMaxPasses && !stable; round++ {
		next := make([]Callee, len(seed))
		copy(next, seed)
		frees := cg.freesSnapshot()
		for i := range cg.Extents {
			g := cg.Graphs[i]
			if g == nil {
				continue
			}
			sites[i] = sites[i][:0]
			SolveForward[calleeState](g, cg.problemFor(i), DefaultMaxPasses).Walk(func(pc int, in calleeState) {
				switch instr := p.Code[pc]; instr.Op {
				case vm.OpStoreGlobal:
					if instr.B >= 0 && instr.B < len(next) {
						next[instr.B] = joinCallee(next[instr.B], in[instr.A])
					}
				case vm.OpCall, vm.OpTailCall, vm.OpCallCC:
					sites[i] = append(sites[i], CallSite{PC: pc, Extent: i, Op: instr.Op, Callee: in[vm.RegCP]})
				}
			})
		}
		stable = true
		for gi := range next {
			if next[gi] != cg.Globals[gi] {
				stable = false
			}
		}
		for fi, fv := range cg.freesSnapshot() {
			if fv != frees[fi] {
				stable = false
			}
		}
		copy(cg.Globals, next)
	}

	// Call sites from the final converged states.
	for _, ss := range sites {
		for _, site := range ss {
			if !stable {
				// The binding fixpoint hit its round cap; the last solve
				// may have used stale bindings, so resolve nothing.
				site.Callee = Callee{Kind: CalleeUnknown}
			}
			cg.Sites = append(cg.Sites, site)
		}
	}
	return cg
}

func (cg *CallGraph) problemFor(ext int) calleeProblem {
	e := cg.Extents[ext]
	frame := 0
	if in := cg.Prog.Code[e.Start]; in.Op == vm.OpEntry && in.B > 0 {
		frame = in.B
	}
	return calleeProblem{
		cg:     cg,
		g:      cg.Graphs[ext],
		nRegs:  cg.Prog.Config.NumRegs(),
		frame:  frame,
		selfIx: e.Index,
	}
}
