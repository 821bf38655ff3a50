package codegen

import (
	"fmt"
	"maps"
	"os"
	"slices"

	"repro/internal/ir"
	"repro/internal/prim"
	"repro/internal/vm"
)

// codegen holds program-wide compilation state.
type codegen struct {
	opts   Options
	code   []vm.Instr
	consts []prim.Value
	// constIdx dedups comparable constants.
	constIdx map[prim.Value]int
	prims    []*prim.Def
	primIdx  map[*prim.Def]int
	unspec   int
	stats    Stats
	shuffles []vm.ShuffleRecord
}

// Compile lowers an IR program to VM code under the given options. The
// IR is annotated in place (variable locations, shuffle plans, save
// sets), so a fresh IR must be built per compilation.
func Compile(prog *ir.Program, opts Options) (*vm.Program, Stats, error) {
	pre, err := CompilePrefix(nil, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return CompileAfter(pre, prog)
}

// Prefix is the code generator's state after emitting the leading
// procedures of a program (the prelude's): the code so far, the
// constant and primitive pools with their dedup indices, the shuffle
// records, the procedures' metadata and the running Stats. Allocation
// is intraprocedural, so those procedures compile the same whatever
// follows them. A Prefix is never written once built, so one serves
// concurrent compilations.
type Prefix struct {
	opts     Options
	code     []vm.Instr
	consts   []prim.Value
	constIdx map[prim.Value]int
	prims    []*prim.Def
	primIdx  map[*prim.Def]int
	unspec   int
	shuffles []vm.ShuffleRecord
	procs    []vm.ProcInfo
	stats    Stats
}

// CompilePrefix emits procs as procedures 0.. of a program that
// CompileAfter completes under the same options. Like Compile, it
// annotates their IR in place.
func CompilePrefix(procs []*ir.Proc, opts Options) (*Prefix, error) {
	if verr := opts.Config.Validate(); verr != nil {
		return nil, verr
	}
	cg := &codegen{
		opts:     opts,
		constIdx: map[prim.Value]int{},
		primIdx:  map[*prim.Def]int{},
		unspec:   -1,
	}
	cg.emit(vm.Instr{Op: vm.OpHalt}) // code[0]: where main returns
	infos := make([]vm.ProcInfo, len(procs))
	if err := cg.emitProcs(procs, infos); err != nil {
		return nil, err
	}
	return &Prefix{
		opts:     cg.opts,
		code:     cg.code,
		consts:   cg.consts,
		constIdx: cg.constIdx,
		prims:    cg.prims,
		primIdx:  cg.primIdx,
		unspec:   cg.unspec,
		shuffles: cg.shuffles,
		procs:    infos,
		stats:    cg.stats,
	}, nil
}

// CompileAfter lowers prog, converted after the prefix's procedures
// (prog.ProcBase of them), under pre's options and links it onto pre:
// the result is the whole program, as Compile would emit it for all the
// procedures at once. pre's slices are copied, never appended to, since
// pre is shared.
func CompileAfter(pre *Prefix, prog *ir.Program) (*vm.Program, Stats, error) {
	if prog.ProcBase != len(pre.procs) {
		return nil, Stats{}, fmt.Errorf("codegen: program continues %d procedures, prefix has %d", prog.ProcBase, len(pre.procs))
	}
	cg := &codegen{
		opts: pre.opts,
		// The headroom holds main and a small program without regrowing.
		code:     append(make([]vm.Instr, 0, len(pre.code)+len(pre.code)/4), pre.code...),
		consts:   slices.Clone(pre.consts),
		constIdx: maps.Clone(pre.constIdx),
		prims:    slices.Clone(pre.prims),
		primIdx:  maps.Clone(pre.primIdx),
		unspec:   pre.unspec,
		shuffles: slices.Clone(pre.shuffles),
		stats:    pre.stats,
	}
	procs := make([]vm.ProcInfo, len(pre.procs)+len(prog.Procs))
	copy(procs, pre.procs)
	if err := cg.emitProcs(prog.Procs, procs[len(pre.procs):]); err != nil {
		return nil, Stats{}, err
	}

	constMutable := make([]bool, len(cg.consts))
	for i, c := range cg.consts {
		constMutable[i] = isMutableConst(c)
	}

	out := &vm.Program{
		Code:         cg.code,
		Consts:       cg.consts,
		ConstMutable: constMutable,
		Prims:        cg.prims,
		Procs:        procs,
		MainIndex:    prog.MainIndex,
		GlobalNames:  prog.GlobalNames,
		PrimGlobals:  prog.PrimGlobals,
		Config:       pre.opts.Config,
		Shuffles:     cg.shuffles,
	}
	return out, cg.stats, nil
}

// emitProcs emits procs in order, filling infos[i] for procs[i].
func (cg *codegen) emitProcs(procs []*ir.Proc, infos []vm.ProcInfo) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if os.Getenv("CODEGEN_DEBUG") != "" {
				panic(r)
			}
			err = fmt.Errorf("codegen: internal error: %v", r)
		}
	}()
	for i, p := range procs {
		entry := cg.emitProc(p)
		infos[i] = vm.ProcInfo{
			Name:           p.Name,
			Entry:          entry,
			NArgs:          len(p.Params),
			NFree:          p.NFree,
			SyntacticLeaf:  p.SyntacticLeaf,
			CallInevitable: p.CallInevitable,
		}
		cg.stats.Procs++
		if p.SyntacticLeaf {
			cg.stats.SyntacticLeaves++
		}
		if p.CallInevitable {
			cg.stats.CallInevitable++
		}
	}
	cg.stats.Instructions = len(cg.code)
	return nil
}

func (cg *codegen) emit(in vm.Instr) { cg.code = append(cg.code, in) }

func (cg *codegen) constIndex(v prim.Value) int {
	if comparableConst(v) {
		if i, ok := cg.constIdx[v]; ok {
			return i
		}
	}
	i := len(cg.consts)
	cg.consts = append(cg.consts, v)
	if comparableConst(v) {
		cg.constIdx[v] = i
	}
	return i
}

func (cg *codegen) unspecIndex() int {
	if cg.unspec < 0 {
		cg.unspec = cg.constIndex(prim.Unspecified)
	}
	return cg.unspec
}

func (cg *codegen) primIndex(d *prim.Def) int {
	if i, ok := cg.primIdx[d]; ok {
		return i
	}
	i := len(cg.prims)
	cg.prims = append(cg.prims, d)
	cg.primIdx[d] = i
	return i
}

// comparableConst reports whether v can key the dedup map: everything
// except pairs and vectors, which are mutable (each quote evaluation
// must yield fresh structure, so sharing a pool slot is fine but the
// Value contains pointers that defeat by-value dedup anyway).
func comparableConst(v prim.Value) bool {
	return !isMutableConst(v)
}

func isMutableConst(v prim.Value) bool {
	if _, ok := v.Pair(); ok {
		return true
	}
	_, ok := v.Vector()
	return ok
}
