package verify

// Witness reconstruction: a reported violation carries one concrete
// static path from the procedure entry to the offending instruction
// along which the cell is in the bad state. The searches themselves are
// dataflow.Graph's (CellPath, WitnessPath); these helpers supply the
// single-cell transition each violation kind simulates.

import "repro/internal/vm"

// Cell states for the single-cell simulations below.
const (
	cellUndef uint8 = iota
	cellDef
	cellClob
	// numCellStates is the size of the simulated state space.
	numCellStates = 3
)

// witnessReg finds a path on which register r arrives at pc in the
// given abstract state (aUndef or aClob).
func (pv *procVerifier) witnessReg(pc, r int, want absKind) []int {
	init := cellUndef
	if r == vm.RegRet || r == vm.RegCP || pv.regDefinedAtEntry(r) {
		init = cellDef
	}
	goal := cellUndef
	if want == aClob {
		goal = cellClob
	}
	return pv.g.CellPath(pc, init, goal, numCellStates, func(at int, k uint8) uint8 {
		e := pv.eff[at-pv.start]
		if e.Defs.Has(r) {
			return cellDef
		}
		if e.Clobbers.Has(r) {
			return cellClob
		}
		return k
	})
}

// regDefinedAtEntry reports whether the calling convention defines r on
// procedure entry (parameters and callee-saves; ret/cp handled by the
// caller).
func (pv *procVerifier) regDefinedAtEntry(r int) bool {
	nArgRegs := pv.info.NArgs
	if nArgRegs > pv.cfg.ArgRegs {
		nArgRegs = pv.cfg.ArgRegs
	}
	for i := 0; i < nArgRegs; i++ {
		if pv.cfg.ArgReg(i) == r {
			return true
		}
	}
	for i := 0; i < pv.cfg.CalleeSaveRegs; i++ {
		if pv.cfg.CalleeSaveReg(i) == r {
			return true
		}
	}
	return false
}

// witnessSlot finds a path on which frame slot sl arrives at pc unwritten.
func (pv *procVerifier) witnessSlot(pc, sl int) []int {
	init := cellUndef
	if sl < pv.stackParams {
		init = cellDef
	}
	return pv.g.CellPath(pc, init, cellUndef, numCellStates, func(at int, k uint8) uint8 {
		for _, w := range pv.eff[at-pv.start].WriteSlots {
			if w == sl {
				return cellDef
			}
		}
		return k
	})
}

// witnessOut finds a path on which outgoing slot o arrives at pc
// unwritten since the last call.
func (pv *procVerifier) witnessOut(pc, o int) []int {
	return pv.g.CellPath(pc, cellUndef, cellUndef, numCellStates, func(at int, k uint8) uint8 {
		e := pv.eff[at-pv.start]
		if e.IsCall {
			return cellUndef
		}
		for _, w := range e.WriteOuts {
			if w == o {
				return cellDef
			}
		}
		return k
	})
}
