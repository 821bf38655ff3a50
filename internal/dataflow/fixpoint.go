package dataflow

// The generic fixpoint engines. Both iterate the extent in address
// order (forward: increasing pc, backward: decreasing pc) repeatedly
// until no state changes: procedure bodies are forward DAGs emitted in
// topological order, so a single pass normally converges, and the
// schedule exactly matches the loops internal/verify and
// internal/analysis used before the refactor — which is what keeps
// their findings reproducible bit-for-bit. The pass cap only trips on
// malformed code (e.g. an irreducible backward-jump tangle), which the
// caller then reports as unverifiable/unanalyzable.
//
// The forward engine is block-granular: it stores one state per basic
// block (the in-state at the block head) and threads a single scratch
// state, reused from block to block, through each block's
// instructions, joining only at heads. Every edge into a head leaves
// the last instruction of some block, so the joins happen in the same
// order a per-instruction sweep would perform them, while storage stays
// O(blocks × state) instead of O(instructions × state). Per-instruction
// in-states are recovered on demand by replaying a block from its head
// (Solution.Walk).

// DefaultMaxPasses bounds a fixpoint run. The emitter never needs more
// than one or two passes; the cap guards hand-built hostile inputs.
const DefaultMaxPasses = 64

// ForwardProblem is a forward dataflow problem: abstract states flow
// from the extent entry along control edges. S is the per-program-point
// state (a struct, a slice, or any value the three methods agree on).
type ForwardProblem[S any] interface {
	// Entry is the abstract state before the first instruction.
	Entry() S
	// Transfer applies the instruction at pc to s — which the engine
	// owns (a copy) — and returns the state after it. It may mutate s.
	// It runs again for every replay (Solution.Walk), so any side effect
	// it records must be idempotent per pc.
	Transfer(pc int, s S) S
	// CopyInto copies src into dst and returns the copy, which must
	// share no storage with src. dst is the zero S or an engine-owned
	// scratch state whose storage the copy may reuse.
	CopyInto(dst, src S) S
	// Join merges src into dst and reports whether dst changed. It must
	// not mutate src, and must be idempotent, commutative and monotone
	// so the fixpoint is schedule-independent.
	Join(dst, src S) (S, bool)
}

// Solution is a solved forward problem: the in-state at the head of
// every reachable basic block.
type Solution[S any] struct {
	g       *Graph
	p       ForwardProblem[S]
	head    []S    // per block (indexed like Graph.Blocks)
	reached []bool // per block
	// Converged reports whether the fixpoint settled within the pass cap.
	Converged bool
}

// SolveForward computes the forward fixpoint over g within maxPasses
// address-order sweeps of its blocks.
func SolveForward[S any](g *Graph, p ForwardProblem[S], maxPasses int) *Solution[S] {
	blocks := g.Blocks()
	sol := &Solution[S]{g: g, p: p, head: make([]S, len(blocks)), reached: make([]bool, len(blocks))}
	sol.head[0] = p.Entry()
	sol.reached[0] = true
	var zero, s S
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for bi, b := range blocks {
			if !sol.reached[bi] {
				continue
			}
			s = p.CopyInto(s, sol.head[bi])
			for pc := b.Start; pc < b.End; pc++ {
				s = p.Transfer(pc, s)
			}
			for _, sb := range b.Succs {
				if !sol.reached[sb] {
					sol.head[sb] = p.CopyInto(zero, s)
					sol.reached[sb] = true
					changed = true
				} else if nv, ch := p.Join(sol.head[sb], s); ch {
					sol.head[sb] = nv
					changed = true
				}
			}
		}
		if !changed {
			sol.Converged = true
			break
		}
	}
	return sol
}

// Reached reports whether pc is reachable from the extent entry.
func (sol *Solution[S]) Reached(pc int) bool { return sol.reached[sol.g.BlockOf(pc)] }

// Walk replays every reachable block in address order from its solved
// head state, calling visit with the in-state of each instruction
// before Transfer advances past it. visit sees the engine's scratch
// state: it may read it but must neither mutate it nor keep it past the
// call (copy what must outlive it).
func (sol *Solution[S]) Walk(visit func(pc int, in S)) {
	var s S
	for bi, b := range sol.g.Blocks() {
		if !sol.reached[bi] {
			continue
		}
		s = sol.p.CopyInto(s, sol.head[bi])
		for pc := b.Start; pc < b.End; pc++ {
			visit(pc, s)
			s = sol.p.Transfer(pc, s)
		}
	}
}

// BackwardProblem is a backward may-analysis: facts flow from every
// instruction to its predecessors. The in-state of pc is
// Transfer(pc, ⋃ in[succ]).
type BackwardProblem[S any] interface {
	// New returns the bottom (empty) state.
	New() S
	// Merge unions src into dst and returns dst. It may mutate dst but
	// must not mutate src.
	Merge(dst, src S) S
	// Transfer computes the in-state from the merged successor state
	// out, which the engine owns; it may mutate out.
	Transfer(pc int, out S) S
	// Eq reports whether two states are equal (the convergence test).
	Eq(a, b S) bool
}

// SolveBackward computes the backward fixpoint over g, returning the
// in-state of every instruction (indexed pc-Start) and whether the
// fixpoint converged within maxPasses sweeps. The out-state of a pc is
// not stored; recover it with MergeOut.
func SolveBackward[S any](g *Graph, p BackwardProblem[S], maxPasses int) (in []S, converged bool) {
	n := g.end - g.start
	in = make([]S, n)
	for i := range in {
		in[i] = p.New()
	}
	var buf [2]int
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for pc := g.end - 1; pc >= g.start; pc-- {
			out := p.New()
			for _, succ := range g.Succs(pc, buf[:]) {
				out = p.Merge(out, in[succ-g.start])
			}
			next := p.Transfer(pc, out)
			if !p.Eq(next, in[pc-g.start]) {
				changed = true
			}
			in[pc-g.start] = next
		}
		if !changed {
			return in, true
		}
	}
	return in, false
}

// MergeOut reconstructs the out-state of pc from a solved backward
// problem: the union of the in-states of pc's successors.
func MergeOut[S any](g *Graph, p BackwardProblem[S], in []S, pc int) S {
	out := p.New()
	var buf [2]int
	for _, succ := range g.Succs(pc, buf[:]) {
		out = p.Merge(out, in[succ-g.start])
	}
	return out
}
