package codegen

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/prim"
	"repro/internal/regset"
)

// analyzer is pass 1 of §3.1. A bottom-up fact walk (scan) first fixes
// every argument list's evaluation order and records which arguments
// contain calls and which registers they read. A single walk per
// procedure then, following those orders, simultaneously performs
// greedy shuffling, computes variable liveness (as register sets),
// computes S_t[E]/S_f[E], computes the "possibly referenced before the
// next call" sets for pass 2's eager restores, and records the save
// placement for the selected strategy as annotations on the IR. Pass 2
// follows the recorded orders and facts; neither pass re-derives them.
type analyzer struct {
	cg *codegen
	// r is the register universe R.
	r regset.Set
}

// flow carries the backward-flowing analysis state.
type flow struct {
	// live is the set of registers whose variables may be referenced
	// later (variable-level liveness mapped onto home registers).
	live regset.Set
	// refs is the set of registers possibly referenced before the next
	// call (restore analysis, §2.2).
	refs regset.Set
}

// synth carries the bottom-up synthesized results.
type synth struct {
	// sets is (S_t[E], S_f[E]).
	sets core.SaveSets
	// simple is the one-set S[E] of the §2.1.1 simple algorithm (the
	// SaveSimple ablation).
	simple core.SimpleSets
	// ulive is the union of live-after sets over every non-tail call in
	// the subexpression — what the early strategy saves at definition
	// points.
	ulive regset.Set
}

func seqSynth(first, second synth) synth {
	return synth{
		sets:   core.SeqSets(first.sets, second.sets),
		simple: core.SimpleSeq(first.simple, second.simple),
		ulive:  first.ulive.Union(second.ulive),
	}
}

// seqFold accumulates the synthesized sets of an evaluation sequence
// walked from its last expression back to its first. seqSynth is
// associative and the leaf sets are its left identity, so prepending
// yields exactly the left-to-right fold from the leaf sets.
type seqFold struct {
	s   synth
	any bool
}

// prepend walks e, evaluated just before the expressions already
// folded, given the state after it, and returns the state before it.
func (f *seqFold) prepend(a *analyzer, e ir.Expr, after flow) flow {
	before, s := a.walk(e, after)
	if f.any {
		s = seqSynth(s, f.s)
	}
	f.s, f.any = s, true
	return before
}

// prependOrder prepends args[order[0]], args[order[1]], … — an
// evaluation order — walking them from the last back to the first.
func (f *seqFold) prependOrder(a *analyzer, args []ir.Expr, order []int, after flow) flow {
	for i := len(order) - 1; i >= 0; i-- {
		after = f.prepend(a, args[order[i]], after)
	}
	return after
}

func (f *seqFold) result() synth {
	if !f.any {
		return synth{sets: core.LeafSets()}
	}
	return f.s
}

// analyzeProc runs pass 1 over one procedure and returns its entry save
// set.
func (cg *codegen) analyzeProc(p *ir.Proc) regset.Set {
	a := &analyzer{cg: cg, r: regset.Universe(cg.opts.Config.NumRegs())}
	calls, _ := a.scan(p.Body)
	p.SyntacticLeaf = !calls
	// At procedure exit, ret is referenced (by the return instruction).
	exit := flow{live: regset.Single(retReg), refs: regset.Single(retReg)}
	_, s := a.walk(p.Body, exit)

	// §2.4: a call is inevitable iff ret must be saved on every path.
	p.CallInevitable = s.sets.Save().Has(retReg)

	switch cg.opts.Saves {
	case SaveLazy:
		return s.sets.Save()
	case SaveSimple:
		return s.simple.S
	case SaveEarly:
		// Save at entry everything entry-defined that is ever live
		// across a call.
		entryRegs := regset.Of(retReg, cpReg)
		for _, v := range p.Params {
			if v.Loc.Kind == ir.LocReg {
				entryRegs = entryRegs.Add(v.Loc.Index)
			}
		}
		return s.ulive.Intersect(entryRegs)
	default: // SaveLate: saves are attached to each call.
		return regset.Empty
	}
}

const (
	retReg = 0
	cpReg  = 1
)

// walk analyzes e given the backward state after it, returning the state
// before it and the synthesized sets.
func (a *analyzer) walk(e ir.Expr, after flow) (flow, synth) {
	switch t := e.(type) {
	case *ir.Const:
		switch t.Value {
		case prim.True:
			return after, synth{sets: core.TrueSets(a.r)}
		case prim.False:
			return after, synth{sets: core.FalseSets(a.r)}
		}
		return after, synth{sets: core.LeafSets()}

	case *ir.VarRef:
		if t.Var.Loc.Kind == ir.LocReg {
			r := t.Var.Loc.Index
			return flow{live: after.live.Add(r), refs: after.refs.Add(r)}, synth{sets: core.LeafSets()}
		}
		return after, synth{sets: core.LeafSets()}

	case *ir.FreeRef:
		return flow{live: after.live.Add(cpReg), refs: after.refs.Add(cpReg)}, synth{sets: core.LeafSets()}

	case *ir.GlobalRef:
		return after, synth{sets: core.LeafSets()}

	case *ir.GlobalSet:
		return a.walk(t.Rhs, after)

	case *ir.Seq:
		var f seqFold
		cur := after
		for i := len(t.Exprs) - 1; i >= 0; i-- {
			cur = f.prepend(a, t.Exprs[i], cur)
		}
		return cur, f.result()

	case *ir.If:
		t.LiveAfter = after.live
		thenFlow, thenS := a.walk(t.Then, after)
		elseFlow, elseS := a.walk(t.Else, after)

		// Save placement on the branches (lazy-family strategies; pass 2
		// eliminates saves already covered by an enclosing region).
		switch a.cg.opts.Saves {
		case SaveLazy:
			t.ThenSaves = thenS.sets.Save()
			t.ElseSaves = elseS.sets.Save()
		case SaveSimple:
			t.ThenSaves = thenS.simple.S
			t.ElseSaves = elseS.simple.S
		default:
			t.ThenSaves = regset.Empty
			t.ElseSaves = regset.Empty
		}

		testAfter := flow{
			live: thenFlow.live.Union(elseFlow.live),
			// A save instruction reads the register it saves, so
			// branch-entry saves count as references for the restore
			// analysis (a register destroyed by an earlier call must be
			// restored before it can be re-saved).
			refs: core.RefBranch(thenFlow.refs, elseFlow.refs).
				Union(t.ThenSaves).Union(t.ElseSaves),
		}
		testFlow, testS := a.walk(t.Test, testAfter)

		// §6 extension: predict the arm without an inevitable call.
		t.PredictThen = nil
		if a.cg.opts.PredictBranches {
			thenCalls := thenS.sets.Save().Has(retReg)
			elseCalls := elseS.sets.Save().Has(retReg)
			if thenCalls != elseCalls {
				predictThen := !thenCalls
				t.PredictThen = &predictThen
			}
		}

		return testFlow, synth{
			sets:   core.IfSets(testS.sets, thenS.sets, elseS.sets),
			simple: core.SimpleIf(testS.simple, thenS.simple, elseS.simple),
			ulive:  testS.ulive.Union(thenS.ulive).Union(elseS.ulive),
		}

	case *ir.Bind:
		bodyFlow, bodyS := a.walk(t.Body, after)
		if t.Var.Loc.Kind == ir.LocReg {
			r := t.Var.Loc.Index
			switch a.cg.opts.Saves {
			case SaveLazy:
				t.SaveVar = core.SaveAtBind(r, bodyS.sets)
			case SaveSimple:
				t.SaveVar = bodyS.simple.S.Has(r)
			case SaveEarly:
				t.SaveVar = bodyS.ulive.Has(r)
			default:
				t.SaveVar = false
			}
			bodyFlow = flow{live: bodyFlow.live.Remove(r), refs: core.RefDef(r, bodyFlow.refs)}
			rhsFlow, rhsS := a.walk(t.Rhs, bodyFlow)
			return rhsFlow, synth{
				sets:   core.BindSets(r, rhsS.sets, bodyS.sets),
				simple: core.SimpleSets{S: rhsS.simple.S.Union(bodyS.simple.S.Remove(r))},
				ulive:  rhsS.ulive.Union(bodyS.ulive),
			}
		}
		t.SaveVar = false
		rhsFlow, rhsS := a.walk(t.Rhs, bodyFlow)
		return rhsFlow, seqSynth(rhsS, bodyS)

	case *ir.PrimCall:
		var f seqFold
		before := f.prependOrder(a, t.Args, t.Order.Index, after)
		return before, f.result()

	case *ir.MakeClosure:
		cur := after
		s := synth{sets: core.LeafSets()}
		for i := len(t.Free) - 1; i >= 0; i-- {
			var fs synth
			cur, fs = a.walk(t.Free[i], cur)
			s = seqSynth(fs, s)
		}
		return cur, s

	case *ir.Fix:
		bodyFlow, bodyS := a.walk(t.Body, after)
		regs := regset.Empty
		for i, v := range t.Vars {
			if v.Loc.Kind != ir.LocReg {
				t.SaveVars[i] = false
				continue
			}
			r := v.Loc.Index
			regs = regs.Add(r)
			switch a.cg.opts.Saves {
			case SaveLazy:
				t.SaveVars[i] = core.SaveAtBind(r, bodyS.sets)
			case SaveSimple:
				t.SaveVars[i] = bodyS.simple.S.Has(r)
			case SaveEarly:
				t.SaveVars[i] = bodyS.ulive.Has(r)
			default:
				t.SaveVars[i] = false
			}
		}
		cur := flow{live: bodyFlow.live.Minus(regs), refs: bodyFlow.refs.Minus(regs)}
		s := synth{
			sets:   core.SaveSets{T: bodyS.sets.T.Minus(regs), F: bodyS.sets.F.Minus(regs)},
			simple: core.SimpleSets{S: bodyS.simple.S.Minus(regs)},
			ulive:  bodyS.ulive,
		}
		for i := len(t.Closures) - 1; i >= 0; i-- {
			var cs synth
			cur, cs = a.walk(t.Closures[i], cur)
			s = seqSynth(cs, s)
		}
		// Free-variable reads of the fix's own variables (self and
		// sibling recursion) are satisfied by closure patching inside
		// the fix; they must not leak as live registers above it.
		cur.live = cur.live.Minus(regs)
		cur.refs = cur.refs.Minus(regs)
		return cur, s

	case *ir.Call:
		return a.walkCall(t, after)

	default:
		panic(fmt.Sprintf("codegen: analyze: unknown expression %T", e))
	}
}

// scan is pass 1's fact walk. It reports whether e contains a non-tail
// call and which registers' current values e reads: home registers of
// referenced variables, cp for free-variable access, and ret for a tail
// call or call/cc. A tail call is a jump (paper footnote 1), but calls
// nested in its operator or arguments still count; a closure record
// counts as call-free. On the way up it records, for every primitive
// and call below e, the argument evaluation order and (for calls) the
// shuffle problem, so each node is visited once per procedure.
func (a *analyzer) scan(e ir.Expr) (calls bool, reads regset.Set) {
	switch t := e.(type) {
	case *ir.Const, *ir.GlobalRef:
		return false, regset.Empty
	case *ir.VarRef:
		if t.Var.Loc.Kind == ir.LocReg {
			return false, regset.Single(t.Var.Loc.Index)
		}
		return false, regset.Empty
	case *ir.FreeRef:
		return false, regset.Single(cpReg)
	case *ir.GlobalSet:
		return a.scan(t.Rhs)
	case *ir.If:
		c1, r1 := a.scan(t.Test)
		c2, r2 := a.scan(t.Then)
		c3, r3 := a.scan(t.Else)
		return c1 || c2 || c3, r1.Union(r2).Union(r3)
	case *ir.Seq:
		return a.scanList(t.Exprs)
	case *ir.Bind:
		c1, r1 := a.scan(t.Rhs)
		c2, r2 := a.scan(t.Body)
		s := r1.Union(r2)
		if t.Var.Loc.Kind == ir.LocReg {
			// The bound register is defined before any read of it within
			// the body, so it is not a read of the *current* value; but
			// its definition also means the body's reads of it are not
			// outer reads. Conservatively keep other reads.
			s = s.Remove(t.Var.Loc.Index).Union(r1)
		}
		return c1 || c2, s
	case *ir.PrimCall:
		return a.order(&t.Order, t.Args, 0)
	case *ir.Call:
		cfg := a.cg.opts.Config
		nreg := min(len(t.Args), cfg.ArgRegs)
		// The shuffle problem: register arguments plus the operator
		// (targeting cp).
		sargs := make([]core.ShuffleArg, 0, nreg+1)
		calls, reads = a.order(&t.StackOrder, t.Args, nreg)
		calls = calls || !t.Tail
		for i := 0; i <= nreg; i++ {
			target, x := cpReg, t.Fn
			if i < nreg {
				target, x = cfg.ArgReg(i), t.Args[i]
			}
			c, r := a.scan(x)
			sargs = append(sargs, core.ShuffleArg{Target: target, Reads: r, Complex: c})
			calls, reads = calls || c, reads.Union(r)
		}
		t.ShuffleArgs = sargs
		if t.CallCC || t.Tail {
			reads = reads.Add(retReg)
		}
		return calls, reads
	case *ir.MakeClosure:
		_, reads = a.scanList(t.Free)
		return false, reads
	case *ir.Fix:
		calls, reads = a.scan(t.Body)
		for _, c := range t.Closures {
			_, r := a.scan(c)
			reads = reads.Union(r)
		}
		return calls, reads
	case *ir.Save:
		return a.scan(t.Body)
	default:
		panic(fmt.Sprintf("codegen: scan: unknown expression %T", e))
	}
}

func (a *analyzer) scanList(es []ir.Expr) (calls bool, reads regset.Set) {
	for _, x := range es {
		c, r := a.scan(x)
		calls, reads = calls || c, reads.Union(r)
	}
	return calls, reads
}

// order scans args[from:] and records their evaluation order in o:
// call-containing arguments first, since their calls would destroy any
// argument value already held in a register, then the call-free ones,
// each group in source order.
func (a *analyzer) order(o *ir.ArgOrder, args []ir.Expr, from int) (calls bool, reads regset.Set) {
	n := len(args) - from
	if n <= 0 {
		*o = ir.ArgOrder{}
		return false, regset.Empty
	}
	// Call-containing positions fill idx from the front, call-free ones
	// from the back; reversing the back part restores source order.
	idx := make([]int, n)
	nc, ns := 0, n
	for i := from; i < len(args); i++ {
		c, r := a.scan(args[i])
		if c {
			idx[nc] = i
			nc++
		} else {
			ns--
			idx[ns] = i
		}
		calls, reads = calls || c, reads.Union(r)
	}
	slices.Reverse(idx[nc:])
	*o = ir.ArgOrder{Index: idx, NCalls: nc}
	return calls, reads
}

// walkCall handles pass 1 at a call site: shuffle planning, liveness,
// restore analysis, save-set synthesis, and strategy annotations.
func (a *analyzer) walkCall(t *ir.Call, after flow) (flow, synth) {
	cfg := a.cg.opts.Config
	effTail := t.Tail && !t.CallCC
	if t.Tail && t.CallCC {
		// A tail (call/cc f) is emitted as a non-tail capture followed
		// by a return, so ret is live and referenced after it.
		after = flow{live: after.live.Add(retReg), refs: after.refs.Add(retReg)}
	}
	if effTail {
		after = flow{} // nothing is live after a tail transfer
	}
	t.LiveAfter = after.live
	t.RefsAfter = after.refs

	// The shuffle problem (register arguments plus the operator) was
	// recorded by scan.
	sargs := t.ShuffleArgs
	nreg := len(sargs) - 1

	// Free argument registers usable as shuffle temporaries: not
	// targeted by this call and not read by any argument.
	freeTemps := regset.Empty
	for i := nreg; i < cfg.ArgRegs; i++ {
		freeTemps = freeTemps.Add(cfg.ArgReg(i))
	}
	for _, sa := range sargs {
		freeTemps = freeTemps.Minus(sa.Reads)
	}

	var plan core.Plan
	switch a.cg.opts.Shuffle {
	case ShuffleOptimal:
		plan = core.OptimalShuffle(sargs, freeTemps)
	case ShuffleNaive:
		plan = core.NaiveShuffle(sargs, freeTemps)
	default:
		plan = core.GreedyShuffle(sargs, freeTemps)
	}
	t.Plan = plan

	st := &a.cg.stats
	st.CallSites++
	if plan.HadCycle {
		st.CyclicCallSites++
	}
	st.ShuffleTemps += plan.SimpleTemps
	if a.cg.opts.ComputeShuffleStats {
		opt := core.OptimalSimpleTemps(sargs)
		st.OptimalTemps += opt
		if plan.SimpleTemps == opt {
			st.SitesOptimal++
		} else {
			st.SitesSuboptimal++
			if extra := plan.SimpleTemps - opt; extra > st.ExtraTempsWorst {
				st.ExtraTempsWorst = extra
			}
		}
	}

	// The emission order of the argument expressions: the stack
	// arguments in their recorded order (call-containing ones to temps,
	// then call-free ones stored or staged before the shuffle can
	// clobber the registers they read), then the shuffle plan's steps.
	seed := flow{live: t.LiveAfter}
	if effTail || t.CallCC {
		// The tail transfer passes ret through; the capture reads ret.
		seed.live = seed.live.Add(retReg)
		seed.refs = seed.refs.Add(retReg)
	}
	var f seqFold
	before := seed
	for i := len(plan.Steps) - 1; i >= 0; i-- {
		before = f.prepend(a, t.ShuffleExpr(plan.Steps[i].Arg), before)
	}
	before = f.prependOrder(a, t.Args, t.StackOrder.Index, before)
	argsS := f.result()

	s := argsS
	if !effTail {
		s = seqSynth(argsS, synth{
			sets:   core.CallSets(t.LiveAfter),
			simple: core.SimpleCall(t.LiveAfter),
			ulive:  t.LiveAfter,
		})
	}

	// Late-save strategy: save the live registers right before the call.
	// The saves read those registers, which counts as a reference for
	// the restore analysis. When every path through the argument
	// evaluation itself performs a non-tail call, that nested call's own
	// late saves cover a superset of this call's (liveness only grows
	// from the nested call back toward this one, and a register shares
	// its save slot everywhere in the procedure), so saving here would
	// emit stores that are overwritten before they can be read. The
	// coverage test uses the §2.1.1 one-set S[E], whose plain branch
	// intersection matches how pass 2 merges its saved-register state at
	// joins (S_t/S_f's vacuous-path refinement would overclaim here).
	if a.cg.opts.Saves == SaveLate && !effTail {
		t.LateSaves = t.LiveAfter
		if t.LiveAfter.SubsetOf(argsS.simple.S) {
			t.LateSaves = regset.Empty
		} else {
			before.refs = before.refs.Union(t.LateSaves)
			before.live = before.live.Union(t.LateSaves)
		}
	} else {
		t.LateSaves = regset.Empty
	}

	return before, s
}
