package kernel

import (
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
)

// Uniformity is the scalar-homing analysis shared by the finalizer (which
// uses it to place values in the scalar register file) and the HSAIL
// register allocator (which must not pool scalar-homed and vector-homed
// values into one architectural register).
//
// A slot is "uniform" here when its value is wavefront-invariant AND every
// definition is executable on the scalar unit — the GCN3 scalar pipeline has
// no floating-point datapath, so uniform float values still live in the VRF
// (paper §V.D: "the scalar unit in GCN3 is not generally used for
// computation").
type Uniformity struct {
	Slots  []bool
	CRegs  []bool
	Blocks []bool
}

// ScalarizableOp reports whether the operation can execute on the scalar
// unit for the given data/source types.
func ScalarizableOp(op hsail.Op, t, st isa.DataType) bool {
	intType := func(t isa.DataType) bool {
		switch t {
		case isa.TypeB32, isa.TypeU32, isa.TypeS32, isa.TypeB64, isa.TypeU64, isa.TypeS64:
			return true
		}
		return false
	}
	switch op {
	case hsail.OpMov:
		return intType(t)
	case hsail.OpCvt:
		return intType(t) && intType(st)
	case hsail.OpAdd, hsail.OpSub:
		return intType(t)
	case hsail.OpMul:
		return t == isa.TypeU32 || t == isa.TypeS32 || t == isa.TypeB32
	case hsail.OpAnd, hsail.OpOr, hsail.OpXor, hsail.OpNot:
		return intType(t)
	case hsail.OpShl, hsail.OpShr:
		return t == isa.TypeB32 || t == isa.TypeU32 || t == isa.TypeS32
	case hsail.OpLd:
		return true // only kernarg loads reach this (checked by caller)
	case hsail.OpWorkGroupId, hsail.OpWorkGroupSize, hsail.OpGridSize:
		return true
	}
	return false
}

// AnalyzeUniformity runs the optimistic demotion fixpoint described in the
// finalizer package documentation.
func AnalyzeUniformity(k *hsail.Kernel, cfg *CFG) *Uniformity {
	return AnalyzeUniformityOpt(k, cfg, true)
}

// AnalyzeUniformityOpt additionally controls whether kernarg loads may
// scalarize (they may not when the finalizer lowers them through flat loads,
// the paper's Table 2 path).
func AnalyzeUniformityOpt(k *hsail.Kernel, cfg *CFG, scalarKernarg bool) *Uniformity {
	u := &Uniformity{
		Slots:  make([]bool, k.NumRegSlots),
		CRegs:  make([]bool, k.NumCRegs),
		Blocks: make([]bool, len(k.Blocks)),
	}
	for i := range u.Slots {
		u.Slots[i] = true
	}
	for i := range u.CRegs {
		u.CRegs[i] = true
	}
	for i := range u.Blocks {
		u.Blocks[i] = true
	}

	srcsUniform := func(in *hsail.Inst) bool {
		uniform := true
		in.Operands(func(o *hsail.Operand, _ isa.DataType, def bool) {
			switch {
			case def:
			case o.Kind == hsail.OperReg:
				uniform = uniform && u.Slots[o.Reg]
			case o.Kind == hsail.OperCReg:
				uniform = uniform && u.CRegs[o.Reg]
			}
		})
		return uniform
	}
	defUniform := func(in *hsail.Inst, block int) bool {
		if !u.Blocks[block] {
			return false
		}
		switch in.Op {
		case hsail.OpWorkItemAbsId, hsail.OpWorkItemId:
			return false
		case hsail.OpLd:
			if in.Seg != hsail.SegKernarg || !scalarKernarg {
				return false
			}
		case hsail.OpAtomicAdd, hsail.OpLda:
			return false
		}
		if !ScalarizableOp(in.Op, in.Type, in.SrcType) {
			return false
		}
		return srcsUniform(in)
	}

	for changed := true; changed; {
		changed = false
		for _, sh := range cfg.Shapes {
			term := &k.Blocks[sh.Branch].Insts[len(k.Blocks[sh.Branch].Insts)-1]
			cidx := int(term.Srcs[0].Reg)
			if u.CRegs[cidx] && u.Blocks[sh.Branch] {
				continue
			}
			demote := func(from, to int) {
				for b := from; b < to; b++ {
					if u.Blocks[b] {
						u.Blocks[b] = false
						changed = true
					}
				}
			}
			switch sh.Kind {
			case ShapeIfThen:
				demote(sh.ThenStart, sh.ThenEnd)
			case ShapeIfThenElse:
				demote(sh.ThenStart, sh.ThenEnd)
				demote(sh.ElseStart, sh.ElseEnd)
			case ShapeLoopLatch:
				demote(sh.Header, sh.Branch+1)
			}
		}
		for bi, b := range k.Blocks {
			for ii := range b.Insts {
				in := &b.Insts[ii]
				if in.Dst.Kind == hsail.OperReg {
					if !defUniform(in, bi) && u.Slots[in.Dst.Reg] {
						u.Slots[in.Dst.Reg] = false
						changed = true
					}
				}
				if in.Op == hsail.OpCmp {
					if !(u.Blocks[bi] && srcsUniform(in)) && u.CRegs[in.Dst.Reg] {
						u.CRegs[in.Dst.Reg] = false
						changed = true
					}
				}
			}
		}
	}
	return u
}
