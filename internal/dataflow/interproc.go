package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/findings"
	"repro/internal/regset"
	"repro/internal/vm"
)

// The interprocedural save/restore waste analysis. The intraprocedural
// passes assume every call destroys the whole caller-save set — that is
// the contract the allocator compiles against, and the machine's
// -validate mode physically poisons those registers. But the registers
// an actual callee touches are usually a small subset, so some of the
// saves and restores the allocator must emit are provably no-ops for
// the program as compiled. This pass quantifies that slack: it resolves
// each call's callee (callgraph.go), computes transitive may-clobber
// summaries (summary.go), then runs a forward must-analysis per
// procedure tracking which registers still hold the same value as which
// frame slots. A restore whose register provably already holds the
// slot's value is a cross-call-dead-restore; a save whose every
// reachable read is such a restore is a cross-call-redundant-save (the
// save and its restores are removable together).
//
// The findings are advisory, not gated: they measure the headroom an
// interprocedural register allocator would have over the paper's
// per-procedure one, they do not indicate emitter bugs. Removing the
// flagged instructions would break the allocator's own contract (and
// trip -validate) unless callers and callees were allocated together.

// Interprocedural finding kinds.
const (
	// KindCrossCallDeadRestore marks a restore that reloads a value the
	// register provably still holds given callee clobber summaries.
	KindCrossCallDeadRestore = "cross-call-dead-restore"
	// KindCrossCallRedundantSave marks a save whose every reachable read
	// is a cross-call-dead restore.
	KindCrossCallRedundantSave = "cross-call-redundant-save"
)

// InterprocStats aggregates one program's interprocedural audit.
type InterprocStats struct {
	// CallSites counts reachable call instructions; ResolvedSites those
	// whose callee summary is sharper than the conservative assumption.
	CallSites     int `json:"call_sites"`
	ResolvedSites int `json:"resolved_sites"`
	// Saves and Restores count static allocator-placed sites.
	Saves    int `json:"saves"`
	Restores int `json:"restores"`
	// CrossDeadRestores and CrossRedundantSaves count the findings.
	CrossDeadRestores   int `json:"cross_dead_restores"`
	CrossRedundantSaves int `json:"cross_redundant_saves"`
}

// InterprocReport is the analysis result for one program.
type InterprocReport struct {
	Findings []findings.Finding
	Totals   InterprocStats
}

// matchState tracks, per register, the set of frame slots whose current
// value the register provably equals on every path (a must-analysis:
// joins intersect).
type matchState [][]uint64

type matchProblem struct {
	p        *vm.Program
	g        *Graph
	nRegs    int
	frame    int
	words    int
	callClob map[int]regset.Set
}

func (mp matchProblem) Entry() matchState {
	s := make(matchState, mp.nRegs)
	for r := range s {
		s[r] = make([]uint64, mp.words)
	}
	return s
}

func (mp matchProblem) CopyInto(dst, src matchState) matchState {
	if len(dst) != len(src) {
		dst = make(matchState, len(src))
	}
	for r := range src {
		dst[r] = append(dst[r][:0], src[r]...)
	}
	return dst
}

func (mp matchProblem) Join(dst, src matchState) (matchState, bool) {
	changed := false
	for r := range dst {
		for w := range dst[r] {
			if nv := dst[r][w] & src[r][w]; nv != dst[r][w] {
				dst[r][w] = nv
				changed = true
			}
		}
	}
	return dst, changed
}

func (mp matchProblem) zero(s matchState, r int) {
	for w := range s[r] {
		s[r][w] = 0
	}
}

func (mp matchProblem) clearSlot(s matchState, sl int) {
	for r := range s {
		s[r][sl/64] &^= 1 << (sl % 64)
	}
}

func (mp matchProblem) Transfer(pc int, s matchState) matchState {
	in := mp.p.Code[pc]
	switch in.Op {
	case vm.OpMove:
		copy(s[in.A], s[in.B])
	case vm.OpLoadSlot:
		mp.zero(s, in.A)
		if in.B >= 0 && in.B < mp.frame {
			s[in.A][in.B/64] |= 1 << (in.B % 64)
		}
	case vm.OpStoreSlot:
		if in.B >= 0 && in.B < mp.frame {
			mp.clearSlot(s, in.B)
			s[in.A][in.B/64] |= 1 << (in.B % 64)
		}
	case vm.OpCall, vm.OpCallCC:
		mp.callClob[pc].ForEach(func(r int) { mp.zero(s, r) })
	default:
		e := mp.g.Effects(pc)
		e.Defs.Union(e.Clobbers).ForEach(func(r int) { mp.zero(s, r) })
		for _, sl := range e.WriteSlots {
			if sl >= 0 && sl < mp.frame {
				mp.clearSlot(s, sl)
			}
		}
	}
	return s
}

func (s matchState) has(r, sl int) bool {
	return s[r][sl/64]&(1<<(sl%64)) != 0
}

// AnalyzeInterproc runs the interprocedural save/restore waste audit.
func AnalyzeInterproc(p *vm.Program) *InterprocReport {
	cg := BuildCallGraph(p)
	sums := ComputeSummaries(cg)
	rep := &InterprocReport{}

	siteAt := make(map[int]CallSite, len(cg.Sites))
	for _, site := range cg.Sites {
		siteAt[site.PC] = site
		rep.Totals.CallSites++
		if _, ok := sums.CallEffect(site); ok {
			rep.Totals.ResolvedSites++
		}
	}

	for ei := range cg.Extents {
		g := cg.Graphs[ei]
		if g == nil {
			continue
		}
		analyzeExtentInterproc(p, cg, sums, ei, siteAt, rep)
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].PC != rep.Findings[j].PC {
			return rep.Findings[i].PC < rep.Findings[j].PC
		}
		return rep.Findings[i].Kind < rep.Findings[j].Kind
	})
	return rep
}

func analyzeExtentInterproc(p *vm.Program, cg *CallGraph, sums *Summaries, ei int, siteAt map[int]CallSite, rep *InterprocReport) {
	g := cg.Graphs[ei]
	ext := cg.Extents[ei]
	frame := 0
	if in := p.Code[ext.Start]; in.Op == vm.OpEntry && in.B > 0 {
		frame = in.B
	}
	mp := matchProblem{
		p:        p,
		g:        g,
		nRegs:    p.Config.NumRegs(),
		frame:    frame,
		words:    (frame + 63) / 64,
		callClob: map[int]regset.Set{},
	}
	full := regset.Universe(p.Config.CallerSaveLimit())
	for pc := g.Start(); pc < g.End(); pc++ {
		op := p.Code[pc].Op
		if op != vm.OpCall && op != vm.OpCallCC {
			continue
		}
		if site, ok := siteAt[pc]; ok {
			clob, _ := sums.CallEffect(site)
			mp.callClob[pc] = clob
		} else {
			mp.callClob[pc] = full
		}
	}
	sol := SolveForward[matchState](g, mp, DefaultMaxPasses)
	if !sol.Converged {
		return
	}

	report := func(kind string, pc, reg, slot, callPC int, msg string, witness []int) {
		rep.Findings = append(rep.Findings, findings.Finding{
			Tool: "interproc", Kind: kind, Proc: ext.Info.Name,
			PC: pc, Instr: p.FormatInstr(p.Code[pc]),
			Reg: reg, Slot: slot, CallPC: callPC,
			Msg: msg, Witness: witness,
		})
	}
	// nearestCallBefore finds the last call on the entry→pc witness
	// path, the call whose sharpened summary makes the finding real.
	nearestCallBefore := func(path []int) int {
		for i := len(path) - 1; i >= 0; i-- {
			if op := p.Code[path[i]].Op; op == vm.OpCall || op == vm.OpCallCC {
				return path[i]
			}
		}
		return -1
	}

	deadRestore := map[int]bool{}
	sol.Walk(func(pc int, in matchState) {
		instr := p.Code[pc]
		switch {
		case instr.Op == vm.OpStoreSlot && instr.Kind == vm.KindSave:
			rep.Totals.Saves++
		case instr.Op == vm.OpLoadSlot && instr.Kind == vm.KindRestore:
			rep.Totals.Restores++
			if instr.B >= 0 && instr.B < frame && in.has(instr.A, instr.B) {
				deadRestore[pc] = true
				rep.Totals.CrossDeadRestores++
				witness := g.WitnessPath(pc)
				callPC := nearestCallBefore(witness)
				msg := fmt.Sprintf("restore of r%d from fp[%d] reloads a value r%d provably still holds: no callee on any path since the save clobbers it",
					instr.A, instr.B, instr.A)
				if callPC >= 0 {
					if site, ok := siteAt[callPC]; ok && site.Callee.Kind == CalleeProc {
						msg += fmt.Sprintf(" (call at pc %d resolves to %s, clobbers %s)",
							callPC, p.Procs[site.Callee.Index].Name, sums.ByProc[site.Callee.Index])
					}
				}
				report(KindCrossCallDeadRestore, pc, instr.A, instr.B, callPC, msg, witness)
			}
		}
	})

	// A save is cross-call-redundant when its slot has at least one
	// reachable read and every such read is a cross-call-dead restore:
	// the save and those restores are removable as a unit. Slots with no
	// reads at all are the intraprocedural lint's redundant-save finding
	// and are not re-reported here.
	for pc := g.Start(); pc < g.End(); pc++ {
		if !sol.Reached(pc) {
			continue
		}
		instr := p.Code[pc]
		if instr.Op != vm.OpStoreSlot || instr.Kind != vm.KindSave || instr.B < 0 || instr.B >= frame {
			continue
		}
		reads := slotReadsFrom(p, g, pc, instr.B)
		if len(reads) == 0 {
			continue
		}
		allDead := true
		for _, rpc := range reads {
			if !deadRestore[rpc] {
				allDead = false
				break
			}
		}
		if !allDead {
			continue
		}
		rep.Totals.CrossRedundantSaves++
		witness := g.WitnessPath(pc)
		tail := g.PathFrom(pc, func(q int) bool { return q != pc && deadRestore[q] }, nil)
		if len(tail) > 1 {
			witness = append(witness, tail[1:]...)
		}
		callPC := nearestCallBefore(witness)
		report(KindCrossCallRedundantSave, pc, instr.A, instr.B, callPC,
			fmt.Sprintf("save of r%d into fp[%d] is only read by restores of values the registers still hold — save and restores are removable together given callee clobber summaries",
				instr.A, instr.B),
			witness)
	}
}

// slotReadsFrom walks forward from the save at pc and collects every
// instruction that can read slot sl before it is overwritten: the
// "first uses" the save exists to serve. Reads do not stop the walk
// (later reads of the same stored value count too); writes do.
func slotReadsFrom(p *vm.Program, g *Graph, pc, sl int) []int {
	seen := make(map[int]bool)
	var reads []int
	var buf [2]int
	stack := append([]int(nil), g.Succs(pc, buf[:])...)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[q] {
			continue
		}
		seen[q] = true
		e := g.Effects(q)
		for _, s := range e.ReadSlots {
			if s == sl {
				reads = append(reads, q)
				break
			}
		}
		overwritten := false
		for _, s := range e.WriteSlots {
			if s == sl {
				overwritten = true
				break
			}
		}
		if overwritten {
			continue
		}
		stack = append(stack, g.Succs(q, buf[:])...)
	}
	return reads
}

// Render formats the report for humans.
func (r *InterprocReport) Render() string {
	var b strings.Builder
	t := r.Totals
	fmt.Fprintf(&b, "interproc: %d finding(s): %d cross-call dead restore(s), %d cross-call redundant save(s)\n",
		len(r.Findings), t.CrossDeadRestores, t.CrossRedundantSaves)
	fmt.Fprintf(&b, "call sites: %d/%d resolved; static sites: %d save(s), %d restore(s)\n",
		t.ResolvedSites, t.CallSites, t.Saves, t.Restores)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s at pc %d in %s [%s]: %s\n", f.Kind, f.PC, f.Proc, f.Instr, f.Msg)
	}
	return b.String()
}
