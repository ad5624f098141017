package finalizer

import (
	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// analyzeUniformity decides, for every HSAIL register slot, whether its value
// is wavefront-uniform AND profitably scalar-homed (the GCN3 scalar unit has
// no floating-point datapath, so uniform float values stay in the VRF — one
// of the paper's §V.D observations: "the scalar unit in GCN3 is not generally
// used for computation").
//
// The analysis is an optimistic fixpoint: slots start uniform and are demoted
// when any definition is divergent — an inherently per-lane source (work-item
// IDs, vector loads), a non-scalarizable operation, a divergent operand, or a
// definition under divergent control flow.
func (f *finalizer) analyzeUniformity() {
	if f.opts.DisableScalarization {
		f.uniform = make([]bool, f.k.NumRegSlots)
		f.cregUniform = make([]bool, f.k.NumCRegs)
		f.blockUniform = make([]bool, len(f.k.Blocks))
		for i := range f.blockUniform {
			f.blockUniform[i] = true
		}
		return
	}
	u := kernel.AnalyzeUniformityOpt(f.k, f.cfg, !f.opts.UseFlatKernarg)
	f.uniform = u.Slots
	f.cregUniform = u.CRegs
	f.blockUniform = u.Blocks
}

func lastInst(b *hsail.Block) *hsail.Inst {
	return &b.Insts[len(b.Insts)-1]
}

// allocate maps HSAIL register slots and control registers onto the GCN3
// register files, reserves structured-control-flow save registers, and
// reserves ABI/prologue registers.
func (f *finalizer) allocate() error {
	k := f.k
	f.slots = make([]slotInfo, k.NumRegSlots)
	f.cregs = make([]cregInfo, k.NumCRegs)
	f.loopSave = make(map[int]int)
	f.condSave = make(map[int]int)

	// Discover pair structure and usage from operand types, segment usage
	// and work-item ID dimensionality.
	f.spillOffset = k.PrivateSize
	f.idDims = 1
	cregOnlyCbr := make([]bool, k.NumCRegs)
	cregFusable := make([]bool, k.NumCRegs)
	cregSrcSlots := make([][]int, k.NumCRegs)
	for i := range cregOnlyCbr {
		cregOnlyCbr[i] = true
	}
	for _, b := range k.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			switch {
			case in.Op == hsail.OpWorkItemAbsId:
				f.useAbsID = true
			case in.Op == hsail.OpWorkItemId && int(in.Dim)+1 > f.idDims:
				f.idDims = int(in.Dim) + 1
			case in.Op.HasAddr() && in.Seg.IsWorkItemPrivate():
				f.usePrivate = true
			}
			in.Operands(func(o *hsail.Operand, t isa.DataType, def bool) {
				switch o.Kind {
				case hsail.OperReg:
					f.slots[o.Reg].used = true
					if t.Regs() == 2 {
						f.slots[o.Reg].pairStart = true
						f.slots[o.Reg+1].pairSecond = true
						f.slots[o.Reg+1].used = true
					}
				case hsail.OperCReg:
					if !def && in.Op != hsail.OpCBr {
						cregOnlyCbr[o.Reg] = false
					}
				}
			})
			// Fusable: cmp as the penultimate instruction of a block
			// whose terminator is a cbr consuming its creg.
			if in.Op == hsail.OpCmp && ii == len(b.Insts)-2 {
				term := &b.Insts[len(b.Insts)-1]
				if term.Op == hsail.OpCBr && term.Srcs[0].Reg == in.Dst.Reg {
					cregFusable[in.Dst.Reg] = true
					for _, s := range in.SrcSlice() {
						if s.Kind == hsail.OperReg {
							cregSrcSlots[in.Dst.Reg] = append(cregSrcSlots[in.Dst.Reg], int(s.Reg))
						}
					}
				}
			}
		}
	}

	if f.usePrivate {
		f.useAbsID = true
	}

	// Pre-pass: does the vector live set overflow the VGPR budget? If so,
	// the overflow spills to scratch, which needs the private-segment base
	// (and therefore the absolute-ID prologue) plus staging registers.
	vectorDemand := 0
	for i := range f.slots {
		s := &f.slots[i]
		if s.used && !s.pairSecond && !f.uniform[i] {
			if s.pairStart {
				vectorDemand += 2
			} else {
				vectorDemand++
			}
		}
	}
	abiRegs := f.idDims
	if f.useAbsID {
		abiRegs++
	}
	if f.usePrivate {
		abiRegs += 2
	}
	vBudget := f.opts.MaxVGPRs - vTempWindow
	if abiRegs+vectorDemand > vBudget {
		if !f.usePrivate {
			f.usePrivate = true
			abiRegs += 2
		}
		if !f.useAbsID {
			f.useAbsID = true
			abiRegs++
		}
		vBudget -= spillStageRegs
	}

	// Vector registers: the ABI's work-item ID block (v0..v2), then the
	// cached absolute-ID and scratch base, then mapped slots in slot order
	// (keeping pairs consecutive).
	nextV := f.idDims
	if f.useAbsID {
		f.vAbsID = nextV
		nextV++
	}
	if f.usePrivate {
		f.vPrivBase = nextV
		nextV += 2
	}
	// Scalar registers: after the ABI block.
	nextS := gcn3.FirstAllocSGPR
	alignS := func() {
		if nextS%2 != 0 {
			nextS++
		}
	}
	spillBase := f.k.PrivateSize + f.k.SpillSize
	for i := range f.slots {
		s := &f.slots[i]
		if !s.used || s.pairSecond {
			continue
		}
		width := 1
		if s.pairStart {
			width = 2
		}
		switch {
		case f.uniform[i]:
			s.home = homeScalar
			if width == 2 {
				alignS()
			}
			s.reg = nextS
			nextS += width
		case nextV+width > vBudget:
			// Register-pressure overflow: home the value in scratch.
			s.home = homeSpill
			s.spillOff = spillBase + f.spillBytes
			f.spillBytes += width * 4
		default:
			s.home = homeVector
			s.reg = nextV
			nextV += width
		}
		if s.pairStart {
			f.slots[i+1].home = s.home
			f.slots[i+1].reg = s.reg + 1
			f.slots[i+1].spillOff = s.spillOff + 4
			f.slots[i+1].pairSecond = true
		}
	}
	// Control registers: fused ones need no storage; others get SGPR pairs.
	// Fusion additionally requires every compare operand to have landed in
	// the scalar file (spilled operands would feed s_cmp from VGPRs).
	for i := range f.cregs {
		scalarSrcs := true
		for _, slot := range cregSrcSlots[i] {
			if f.slots[slot].home != homeScalar {
				scalarSrcs = false
			}
		}
		if cregFusable[i] && cregOnlyCbr[i] && f.cregUniform[i] && scalarSrcs {
			f.cregs[i].fused = true
			continue
		}
		alignS()
		f.cregs[i].sreg = nextS
		nextS += 2
	}
	// Structured-control-flow save registers, handed out in block order:
	// Shapes is a map, and ranging over it gave the same kernel different
	// register numbers from one finalization to the next.
	for bi := range f.k.Blocks {
		sh, ok := f.cfg.Shapes[bi]
		if !ok {
			continue
		}
		alignS()
		switch sh.Kind {
		case kernel.ShapeLoopLatch:
			f.loopSave[bi] = nextS
		default:
			f.condSave[bi] = nextS
		}
		nextS += 2
	}

	// Layout: [ABI + mapped][spill staging][rotating temps].
	f.vSpillBase = nextV
	if f.spillBytes > 0 {
		nextV += spillStageRegs
	}
	f.numVGPRs = nextV
	f.numSGPRs = nextS
	f.vTempBase = nextV
	f.sTempBase = nextS
	if f.sTempBase%2 != 0 {
		f.sTempBase++
		f.numSGPRs++
	}
	return nil
}
