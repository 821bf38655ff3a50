package dataflow_test

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/regset"
	"repro/internal/vm"
)

// Hand-built effects for engine tests: tiny CFGs with known answers.

func fall() vm.Effects             { return vm.Effects{Jump: -1, FallsThrough: true} }
func branch(target int) vm.Effects { return vm.Effects{Jump: target, FallsThrough: true} }
func jump(target int) vm.Effects   { return vm.Effects{Jump: target} }
func exit() vm.Effects             { return vm.Effects{Jump: -1, IsExit: true} }
func def(r int) vm.Effects         { e := fall(); e.Defs = e.Defs.Add(r); return e }
func use(r int) vm.Effects         { e := fall(); e.Uses = e.Uses.Add(r); return e }

// maybeDefined is a forward may-analysis: the set of registers some
// path has defined.
type maybeDefined struct{ g *dataflow.Graph }

func (md maybeDefined) Entry() regset.Set { return 0 }
func (md maybeDefined) Transfer(pc int, s regset.Set) regset.Set {
	return s.Union(md.g.Effects(pc).Defs)
}
func (md maybeDefined) CopyInto(_, src regset.Set) regset.Set { return src }
func (md maybeDefined) Join(dst, src regset.Set) (regset.Set, bool) {
	nv := dst.Union(src)
	return nv, nv != dst
}

// refSolveForward is the naive per-instruction forward solver the
// block-granular engine replaced: it stores an in-state for every pc
// and sweeps every reachable instruction in address order. It is kept
// here as the reference the engine must agree with.
func refSolveForward[S any](g *dataflow.Graph, p dataflow.ForwardProblem[S], maxPasses int) (in []S, reached []bool, converged bool) {
	n := g.End() - g.Start()
	in = make([]S, n)
	reached = make([]bool, n)
	in[0] = p.Entry()
	reached[0] = true
	var zero S
	var buf [2]int
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for pc := g.Start(); pc < g.End(); pc++ {
			if !reached[pc-g.Start()] {
				continue
			}
			out := p.Transfer(pc, p.CopyInto(zero, in[pc-g.Start()]))
			for _, succ := range g.Succs(pc, buf[:]) {
				i := succ - g.Start()
				if !reached[i] {
					in[i] = p.CopyInto(zero, out)
					reached[i] = true
					changed = true
				} else if nv, ch := p.Join(in[i], out); ch {
					in[i] = nv
					changed = true
				}
			}
		}
		if !changed {
			return in, reached, true
		}
	}
	return in, reached, false
}

// walkIns collects the per-pc in-states the engine's replay yields.
func walkIns[S comparable](g *dataflow.Graph, sol *dataflow.Solution[S]) (in []S, reached []bool) {
	n := g.End() - g.Start()
	in = make([]S, n)
	reached = make([]bool, n)
	last := -1
	sol.Walk(func(pc int, s S) {
		if pc <= last {
			panic("Walk visited pcs out of address order")
		}
		last = pc
		in[pc-g.Start()] = s
		reached[pc-g.Start()] = true
	})
	return in, reached
}

// checkAgainstReference solves p with both engines and requires the
// same convergence flag, reachability and block-head in-states; when
// the fixpoint converged, every replayed in-state must match too.
func checkAgainstReference[S comparable](t *testing.T, g *dataflow.Graph, p dataflow.ForwardProblem[S]) *dataflow.Solution[S] {
	t.Helper()
	refIn, refReached, refConverged := refSolveForward(g, p, dataflow.DefaultMaxPasses)
	sol := dataflow.SolveForward(g, p, dataflow.DefaultMaxPasses)
	if sol.Converged != refConverged {
		t.Fatalf("converged = %v, reference %v", sol.Converged, refConverged)
	}
	in, reached := walkIns(g, sol)
	for pc := g.Start(); pc < g.End(); pc++ {
		i := pc - g.Start()
		if reached[i] != refReached[i] || sol.Reached(pc) != refReached[i] {
			t.Errorf("pc %d: reached walk=%v solution=%v, reference %v", pc, reached[i], sol.Reached(pc), refReached[i])
			continue
		}
		head := g.Blocks()[g.BlockOf(pc)].Start == pc
		if reached[i] && (head || sol.Converged) && in[i] != refIn[i] {
			t.Errorf("in[%d] = %v, reference %v", pc, in[i], refIn[i])
		}
	}
	return sol
}

func TestSolveForwardDiamond(t *testing.T) {
	// 0: branch to 3 | 1: def r1 | 2: jump 4 | 3: def r2 | 4: exit
	eff := []vm.Effects{branch(3), def(1), jump(4), def(2), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	sol := checkAgainstReference[regset.Set](t, g, maybeDefined{g})
	if !sol.Converged {
		t.Fatalf("diamond did not converge")
	}
	in, reached := walkIns(g, sol)
	for pc, r := range reached {
		if !r {
			t.Fatalf("pc %d unreached", pc)
		}
	}
	var none regset.Set
	wantIn := []regset.Set{none, none, none.Add(1), none, none.Add(1).Add(2)}
	for pc, want := range wantIn {
		if in[pc] != want {
			t.Errorf("in[%d] = %v, want %v", pc, in[pc], want)
		}
	}
}

func TestSolveForwardUnreachable(t *testing.T) {
	// 1 is dead: 0 jumps straight to 2.
	eff := []vm.Effects{jump(2), def(1), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	sol := checkAgainstReference[regset.Set](t, g, maybeDefined{g})
	if !sol.Converged {
		t.Fatalf("did not converge")
	}
	if sol.Reached(1) {
		t.Errorf("dead pc 1 marked reached")
	}
	if !sol.Reached(0) || !sol.Reached(2) {
		t.Errorf("live pcs unreached")
	}
}

func TestSolveForwardLoop(t *testing.T) {
	// 0: def r1 | 1: def r2 | 2: branch back to 1 | 3: def r3 | 4: branch
	// back to 0 | 5: exit. The outer back-edge carries r3 into both loop
	// heads, so the fixpoint needs more than one sweep.
	eff := []vm.Effects{def(1), def(2), branch(1), def(3), branch(0), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	sol := checkAgainstReference[regset.Set](t, g, maybeDefined{g})
	if !sol.Converged {
		t.Fatalf("loop did not converge")
	}
	in, _ := walkIns(g, sol)
	var none regset.Set
	if want := none.Add(1).Add(2).Add(3); in[1] != want {
		t.Errorf("in[1] = %v, want %v", in[1], want)
	}
}

// counter counts trips through pc 1: an infinite ascending chain, so a
// loop through pc 1 never converges.
type counter struct{}

func (counter) Entry() int              { return 0 }
func (counter) CopyInto(_, src int) int { return src }
func (counter) Join(dst, src int) (int, bool) {
	if src > dst {
		return src, true
	}
	return dst, false
}
func (counter) Transfer(pc int, s int) int {
	if pc == 1 {
		return s + 1
	}
	return s
}

func TestSolveForwardPassCap(t *testing.T) {
	// 0: fall | 1: count | 2: branch back to 1 | 3: exit
	eff := []vm.Effects{fall(), fall(), branch(1), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	if sol := checkAgainstReference[int](t, g, counter{}); sol.Converged {
		t.Fatalf("ascending chain reported converged")
	}
}

// liveRegs is backward may-liveness over registers, mirroring the shape
// internal/analysis uses.
type liveRegs struct{ g *dataflow.Graph }

func (lr liveRegs) New() regset.Set                      { return 0 }
func (lr liveRegs) Merge(dst, src regset.Set) regset.Set { return dst.Union(src) }
func (lr liveRegs) Transfer(pc int, out regset.Set) regset.Set {
	e := lr.g.Effects(pc)
	return e.Uses.Union(out.Minus(e.Defs))
}
func (lr liveRegs) Eq(a, b regset.Set) bool { return a == b }

func TestSolveBackwardLoop(t *testing.T) {
	// 0: def r1 | 1: use r1, branch back to 1 | 2: use r2, exit
	useLoop := use(1)
	useLoop.Jump = 1
	useExit := vm.Effects{Jump: -1, IsExit: true}
	useExit.Uses = useExit.Uses.Add(2)
	eff := []vm.Effects{def(1), useLoop, useExit}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	in, converged := dataflow.SolveBackward[regset.Set](g, liveRegs{g}, dataflow.DefaultMaxPasses)
	if !converged {
		t.Fatalf("loop did not converge")
	}
	var none regset.Set
	wantIn := []regset.Set{none.Add(2), none.Add(1).Add(2), none.Add(2)}
	for pc, want := range wantIn {
		if in[pc] != want {
			t.Errorf("in[%d] = %v, want %v", pc, in[pc], want)
		}
	}
	// The loop body has a back-edge, so its out-state includes its own
	// in-state; MergeOut must union both successors.
	out := dataflow.MergeOut[regset.Set](g, liveRegs{g}, in, 1)
	if want := none.Add(1).Add(2); out != want {
		t.Errorf("MergeOut(1) = %v, want %v", out, want)
	}
	if out := dataflow.MergeOut[regset.Set](g, liveRegs{g}, in, 2); out != 0 {
		t.Errorf("MergeOut(exit) = %v, want empty", out)
	}
}

func TestBlocksOnLoop(t *testing.T) {
	// 0 falls into a two-instruction loop header; the back-edge makes 1
	// a leader, and 3 is a leader as the branch fall-through.
	eff := []vm.Effects{fall(), fall(), branch(1), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	blocks := g.Blocks()
	starts := make([]int, len(blocks))
	for i, b := range blocks {
		starts[i] = b.Start
	}
	want := []int{0, 1, 3}
	if len(starts) != len(want) {
		t.Fatalf("block starts %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("block starts %v, want %v", starts, want)
		}
	}
	// The loop block's successors are itself and the exit block.
	b1 := blocks[1]
	if len(b1.Succs) != 2 {
		t.Fatalf("loop block succs %v", b1.Succs)
	}
}
