// Package dataflow is the shared static-analysis substrate for compiled
// VM code: control-flow graph construction, basic blocks, a generic
// worklist fixpoint engine, whole-program call-graph construction with
// per-procedure summaries, and the two whole-program analyses built on
// top of them — the interprocedural save/restore waste analysis and the
// arena-lifetime escape analysis.
//
// Before this package existed, internal/verify (the translation
// validator) and internal/analysis (the optimality lint) each carried a
// private CFG walker and a private fixpoint loop over the same decoded
// instruction effects (vm.InstrEffects). Both now run on the engines
// here, so an instruction-set change touches one decoder and one
// traversal, and new analyses start from working plumbing instead of a
// third copy. The refactor is behaviour-preserving by construction and
// by test: the engines iterate in the same deterministic address-order
// schedule the originals used (procedure bodies are forward DAGs
// emitted in topological order, so one pass normally converges), and
// the differential golden test in internal/bench locks both passes'
// findings to the pre-refactor output byte-for-byte over the full
// benchmark corpus under every sweep configuration.
//
// The two layers:
//
//   - Intraprocedural: Graph (one procedure extent's CFG: per-pc
//     successors/predecessors, cached effects, basic blocks in reverse
//     postorder) and the fixpoint engines SolveForward / SolveBackward,
//     parameterized by a client-supplied transfer function and lattice
//     join (fixpoint.go). The forward engine stores one state per basic
//     block, at its head; clients recover the in-state of each
//     instruction by replaying its block from the head
//     (Solution.Walk). The backward engine stores one state per
//     instruction.
//   - Interprocedural: CallGraph (callgraph.go) resolves each call
//     site's callee by tracking closure values through registers and
//     once-bound globals, then Summaries (summary.go) computes each
//     procedure's transitive may-clobber register set bottom-up. The
//     analyses in interproc.go and arena.go consume both.
//
// See DESIGN.md §15 for the lattice interfaces, the summary format and
// the arena-lifetime rules.
package dataflow
