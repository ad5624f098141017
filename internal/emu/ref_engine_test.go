package emu

import (
	"fmt"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/mem"
)

// The reference engines: the per-lane interpreter both engines used before
// instructions were lowered to micro-ops and whole-wave kernels. The method
// bodies below are that interpreter verbatim (receivers and the opcode-kind
// map names aside); they are kept only so the lockstep differential test can
// step old and new semantics side by side, state for state and hook for
// hook. A reference engine wraps a real engine for everything static —
// program, decode cache, PC arithmetic, NewWave, the reconvergence-stack
// helpers — and replaces Execute.

type refHSAILEngine struct {
	*HSAILEngine
	vs0, vs1, vs2, vdst [isa.WavefrontSize]uint64
}

type refGCN3Engine struct {
	*GCN3Engine
	vs0, vs1, vs2, vdst [isa.WavefrontSize]uint64
}

// newReferenceEngine returns the reference interpreter over eng's program,
// memory and collector.
func newReferenceEngine(eng Engine) Engine {
	switch e := eng.(type) {
	case *HSAILEngine:
		return &refHSAILEngine{HSAILEngine: e}
	case *GCN3Engine:
		return &refGCN3Engine{GCN3Engine: e}
	}
	panic(fmt.Sprintf("emu: no reference engine for %T", eng))
}

// readSrc gathers a source operand's per-lane raw values.
func (e *refHSAILEngine) readSrc(w *Wave, o hsail.Operand, t isa.DataType, vals *[isa.WavefrontSize]uint64) {
	switch o.Kind {
	case hsail.OperImm:
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = o.Imm
		}
	case hsail.OperReg:
		slot := int(o.Reg)
		lo := &w.VRegs[slot]
		e.Col.OnVRFValue(w, false, lo)
		e.Col.OnVRFSlot(w, slot)
		if t.Regs() == 2 {
			hi := &w.VRegs[slot+1]
			e.Col.OnVRFValue(w, false, hi)
			e.Col.OnVRFSlot(w, slot+1)
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane]) | uint64(hi[lane])<<32
			}
		} else {
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane])
			}
		}
	case hsail.OperCReg:
		m := w.CRegs[o.Reg]
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = m >> uint(lane) & 1
		}
	}
}

// writeDst stores per-lane results into a destination register under the
// current execution mask.
func (e *refHSAILEngine) writeDst(w *Wave, o hsail.Operand, t isa.DataType, vals *[isa.WavefrontSize]uint64) {
	slot := int(o.Reg)
	lo := &w.VRegs[slot]
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if w.Exec.Bit(lane) {
			lo[lane] = uint32(vals[lane])
		}
	}
	e.Col.OnVRFValue(w, true, lo)
	e.Col.OnVRFSlot(w, slot)
	if t.Regs() == 2 {
		hi := &w.VRegs[slot+1]
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				hi[lane] = uint32(vals[lane] >> 32)
			}
		}
		e.Col.OnVRFValue(w, true, hi)
		e.Col.OnVRFSlot(w, slot+1)
	}
}

// refHSAILBinKind and refHSAILUnKind map ALU opcodes to evaluator kinds (hoisted
// to package scope so Execute does not rebuild them per instruction).
var refHSAILBinKind = map[hsail.Op]binOpKind{
	hsail.OpAdd: binAdd, hsail.OpSub: binSub, hsail.OpMul: binMul,
	hsail.OpMulHi: binMulHi, hsail.OpDiv: binDiv, hsail.OpRem: binRem,
	hsail.OpMin: binMin, hsail.OpMax: binMax, hsail.OpAnd: binAnd,
	hsail.OpOr: binOr, hsail.OpXor: binXor, hsail.OpShl: binShl,
	hsail.OpShr: binShr,
}

var refHSAILUnKind = map[hsail.Op]unOpKind{
	hsail.OpAbs: unAbs, hsail.OpNeg: unNeg, hsail.OpNot: unNot,
	hsail.OpSqrt: unSqrt, hsail.OpRsqrt: unRsqrt,
}

// Execute commits the instruction at w.PC.
func (e *refHSAILEngine) Execute(w *Wave) (ExecResult, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return ExecResult{}, err
	}
	in := &e.flat[idx]
	info := &e.infos[idx]
	res := ExecResult{ActiveLanes: w.Exec.PopCount()}
	e.Col.TickReuse(w)
	seqPC := w.PC + hsail.InstBytes

	s0, s1, s2, dst := &e.vs0, &e.vs1, &e.vs2, &e.vdst
	srcT := in.Type
	if in.SrcType != isa.TypeNone {
		srcT = in.SrcType
	}
	readSrcs := func() {
		srcs := in.SrcSlice()
		if len(srcs) > 0 {
			t := srcT
			if in.Op == hsail.OpCmov {
				t = isa.TypeNone
			}
			e.readSrc(w, srcs[0], t, s0)
		}
		if len(srcs) > 1 {
			e.readSrc(w, srcs[1], srcT, s1)
		}
		if len(srcs) > 2 {
			e.readSrc(w, srcs[2], srcT, s2)
		}
	}

	perLane := func(f func(lane int)) {
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				f(lane)
			}
		}
	}

	switch in.Op {
	case hsail.OpNop:
		// nothing
	case hsail.OpMov:
		readSrcs()
		perLane(func(l int) { dst[l] = s0[l] })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpCvt:
		readSrcs()
		perLane(func(l int) { dst[l] = convert(in.Type, in.SrcType, s0[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpAdd, hsail.OpSub, hsail.OpMul, hsail.OpMulHi, hsail.OpDiv,
		hsail.OpRem, hsail.OpMin, hsail.OpMax, hsail.OpAnd, hsail.OpOr,
		hsail.OpXor, hsail.OpShl, hsail.OpShr:
		readSrcs()
		kind := refHSAILBinKind[in.Op]
		perLane(func(l int) { dst[l] = binOp(kind, in.Type, s0[l], s1[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpMad, hsail.OpFma:
		readSrcs()
		perLane(func(l int) { dst[l] = fma(in.Type, s0[l], s1[l], s2[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpAbs, hsail.OpNeg, hsail.OpNot, hsail.OpSqrt, hsail.OpRsqrt:
		readSrcs()
		kind := refHSAILUnKind[in.Op]
		perLane(func(l int) { dst[l] = unOp(kind, in.Type, s0[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpCmp:
		readSrcs()
		var m uint64
		perLane(func(l int) {
			if compare(in.Cmp, in.SrcType, s0[l], s1[l]) {
				m |= 1 << uint(l)
			}
		})
		// Merge under mask: inactive lanes keep their old bit.
		old := w.CRegs[in.Dst.Reg]
		w.CRegs[in.Dst.Reg] = old&^uint64(w.Exec) | m
	case hsail.OpCmov:
		readSrcs()
		perLane(func(l int) {
			if s0[l] != 0 {
				dst[l] = s1[l]
			} else {
				dst[l] = s2[l]
			}
		})
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpWorkItemAbsId, hsail.OpWorkItemId, hsail.OpWorkGroupId,
		hsail.OpWorkGroupSize, hsail.OpGridSize:
		e.geometry(w, in, dst)
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpLda:
		readSrcs()
		perLane(func(l int) {
			base := e.segmentBase(w, in.Seg, l)
			var regOff uint64
			if in.Addr.Base.Kind == hsail.OperReg {
				lo := w.VRegs[in.Addr.Base.Reg][l]
				hi := w.VRegs[in.Addr.Base.Reg+1][l]
				regOff = uint64(lo) | uint64(hi)<<32
			}
			dst[l] = base + regOff + uint64(int64(in.Addr.Offset))
		})
		if in.Addr.Base.Kind == hsail.OperReg {
			e.Col.OnVRFSlot(w, int(in.Addr.Base.Reg))
			e.Col.OnVRFSlot(w, int(in.Addr.Base.Reg)+1)
		}
		e.writeDst(w, in.Dst, isa.TypeU64, dst)
	case hsail.OpLd, hsail.OpSt, hsail.OpAtomicAdd:
		if err := e.memory(w, in, &res); err != nil {
			return res, err
		}
	case hsail.OpBarrier:
		res.IsBarrier = true
	case hsail.OpRet:
		w.Done = true
		res.IsEndPgm = true
		e.Col.OnCommit(info.Category, res.ActiveLanes)
		return res, nil
	case hsail.OpBr, hsail.OpCBr:
		e.branch(w, in, idx, seqPC, &res)
		e.Col.OnCommit(info.Category, res.ActiveLanes)
		return res, nil
	default:
		return res, fmt.Errorf("emu: unimplemented HSAIL op %s", in.Op)
	}

	w.PC = seqPC
	e.rsArrival(w, &res)
	e.Col.OnCommit(info.Category, res.ActiveLanes)
	return res, nil
}

// geometry services the dispatch-geometry query ops from simulator state —
// the "simulator-defined ABI" of IL execution (paper §III.A.1).
func (e *refHSAILEngine) geometry(w *Wave, in *hsail.Inst, dst *[isa.WavefrontSize]uint64) {
	d := w.WG.Dispatch
	p := d.Packet
	dim := int(in.Dim)
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if !w.Exec.Bit(lane) {
			continue
		}
		wiFlat := w.FirstWI + lane
		switch in.Op {
		case hsail.OpWorkItemAbsId:
			dst[lane] = uint64(d.AbsID(w.WG.Info, wiFlat)[dim])
		case hsail.OpWorkItemId:
			dst[lane] = uint64(d.LocalID(wiFlat)[dim])
		case hsail.OpWorkGroupId:
			dst[lane] = uint64(w.WG.Info.ID[dim])
		case hsail.OpWorkGroupSize:
			dst[lane] = uint64(p.WorkgroupSize[dim])
		case hsail.OpGridSize:
			dst[lane] = uint64(p.GridSize[dim])
		}
	}
}

// segmentBase resolves the implicit base address of a segment for a lane,
// state the IL never sees in registers.
func (e *refHSAILEngine) segmentBase(w *Wave, seg hsail.Segment, lane int) uint64 {
	d := w.WG.Dispatch
	switch seg {
	case hsail.SegKernarg:
		return d.Packet.KernargAddress
	case hsail.SegPrivate:
		return d.PrivateBase + w.laneAbsFlatID(lane)*uint64(d.PrivateStride)
	case hsail.SegSpill:
		return d.SpillBase + w.laneAbsFlatID(lane)*uint64(d.SpillStride)
	default:
		return 0
	}
}

// memory executes ld/st/atomic for every active lane and coalesces the
// generated addresses into line requests for the timing model.
func (e *refHSAILEngine) memory(w *Wave, in *hsail.Inst, res *ExecResult) error {
	t := in.Type
	size := t.Regs() * 4
	var addrs [isa.WavefrontSize]uint64
	var regOff [isa.WavefrontSize]uint64
	if in.Addr.Base.Kind == hsail.OperReg {
		e.readSrc(w, hsail.Operand{Kind: hsail.OperReg, Reg: in.Addr.Base.Reg}, isa.TypeU64, &regOff)
	}
	var argOff uint64
	if in.Addr.Base.Kind == hsail.OperArgSym {
		argOff = uint64(e.K.Args[in.Addr.Base.Reg].Offset)
	}
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if !w.Exec.Bit(lane) {
			continue
		}
		addrs[lane] = e.segmentBase(w, in.Seg, lane) + regOff[lane] + argOff + uint64(int64(in.Addr.Offset))
	}

	var data [isa.WavefrontSize]uint64
	mmem := e.Ctx.Mem
	isLDS := in.Seg == hsail.SegGroup
	switch in.Op {
	case hsail.OpLd:
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if isLDS {
				data[lane] = e.ldsRead(w, addrs[lane], size)
			} else if size == 8 {
				data[lane] = mmem.ReadU64(addrs[lane])
			} else {
				data[lane] = uint64(mmem.ReadU32(addrs[lane]))
			}
		}
		e.writeDst(w, in.Dst, t, &data)
	case hsail.OpSt:
		e.readSrc(w, in.Srcs[0], t, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if isLDS {
				e.ldsWrite(w, addrs[lane], size, data[lane])
			} else if size == 8 {
				mmem.WriteU64(addrs[lane], data[lane])
			} else {
				mmem.WriteU32(addrs[lane], uint32(data[lane]))
			}
		}
		res.MemWrite = true
	case hsail.OpAtomicAdd:
		e.readSrc(w, in.Srcs[0], t, &data)
		var ret [isa.WavefrontSize]uint64
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if isLDS {
				old := e.ldsRead(w, addrs[lane], size)
				e.ldsWrite(w, addrs[lane], size, old+data[lane])
				ret[lane] = old
			} else {
				ret[lane] = uint64(mmem.AtomicAddU32(addrs[lane], uint32(data[lane])))
			}
		}
		e.writeDst(w, in.Dst, t, &ret)
		res.MemWrite = true
	}
	switch in.Seg {
	case hsail.SegGroup:
		res.MemKind = MemLDS
		res.LDSBankConflicts = ldsBankConflicts(&addrs, w.Exec)
	case hsail.SegKernarg:
		// Kernarg loads are serviced from the emulated runtime's own
		// state: under HSAIL they never reach the memory system.
		res.MemKind = MemNone
	default:
		res.MemKind = MemGlobal
		w.linesBuf = mem.CoalesceInto(w.linesBuf[:0], &addrs, size, w.Exec)
		res.Lines = w.linesBuf
	}
	return nil
}

func (e *refHSAILEngine) ldsRead(w *Wave, addr uint64, size int) uint64 {
	lds := w.WG.LDS
	if int(addr)+size > len(lds) {
		return 0
	}
	v := uint64(0)
	for i := 0; i < size; i++ {
		v |= uint64(lds[int(addr)+i]) << uint(8*i)
	}
	return v
}

func (e *refHSAILEngine) ldsWrite(w *Wave, addr uint64, size int, v uint64) {
	lds := w.WG.LDS
	if int(addr)+size > len(lds) {
		return
	}
	for i := 0; i < size; i++ {
		lds[int(addr)+i] = byte(v >> uint(8*i))
	}
}

// branch implements the reconvergence-stack discipline of IL simulation
// (paper §III.C.1 and Figure 3b).
func (e *refHSAILEngine) branch(w *Wave, in *hsail.Inst, idx int, seqPC uint64, res *ExecResult) {
	curBlock := e.instBlock[idx]
	targetPC := e.pcOf(e.blockStart[in.Target])

	if in.Op == hsail.OpBr {
		w.PC = targetPC
		res.Redirected = targetPC != seqPC
		e.rsArrival(w, res)
		return
	}

	// Conditional branch: evaluate per-lane condition.
	cond := w.CRegs[in.Srcs[0].Reg]
	taken := isa.ExecMask(cond) & w.Exec
	fall := w.Exec &^ taken

	switch {
	case taken == w.Exec: // uniformly taken
		w.PC = targetPC
		res.Redirected = targetPC != seqPC
	case taken == 0: // uniformly not taken
		w.PC = seqPC
	default: // divergent
		rpcBlock := e.CFG.IPDom[curBlock]
		if rpcBlock < 0 {
			// No reconvergence point: treat as taken-first with exit.
			rpcBlock = len(e.CFG.Succs) - 1
		}
		rpc := e.pcOf(e.blockStart[rpcBlock])
		switch {
		case targetPC == rpc:
			// Forward skip to the reconvergence point (if-then guard):
			// taken lanes wait at the RPC; no jump, no IB flush — the
			// case Figure 3's step ② highlights.
			e.ensureRestore(w, rpc)
			w.Exec = fall
			w.PC = seqPC
		case seqPC == rpc:
			// Backward latch (do-while): exiting lanes wait at the
			// join; remaining lanes jump back to the loop header.
			e.ensureRestore(w, rpc)
			w.Exec = taken
			w.PC = targetPC
			res.Redirected = true
		default:
			// If-then-else: execute the taken path first; push the
			// fall-through path and the restore entry.
			w.RS = append(w.RS,
				RSEntry{RPC: rpc, PC: rpc, Mask: w.Exec},
				RSEntry{RPC: rpc, PC: seqPC, Mask: fall},
			)
			w.Exec = taken
			w.PC = targetPC
			res.Redirected = true
		}
	}
	e.rsArrival(w, res)
}

// readScalar reads a scalar operand of the given register width.
func (e *refGCN3Engine) readScalar(w *Wave, o gcn3.Operand, width int) uint64 {
	switch o.Kind {
	case gcn3.OperSGPR:
		v := uint64(w.SGPR[o.Index])
		if width == 2 {
			v |= uint64(w.SGPR[o.Index+1]) << 32
		}
		return v
	case gcn3.OperVCC:
		return w.VCC
	case gcn3.OperEXEC:
		return uint64(w.Exec)
	case gcn3.OperSCC:
		if w.SCC {
			return 1
		}
		return 0
	case gcn3.OperInline, gcn3.OperLit:
		return uint64(o.Val)
	}
	return 0
}

// writeScalar writes a scalar destination of the given register width.
func (e *refGCN3Engine) writeScalar(w *Wave, o gcn3.Operand, width int, v uint64) {
	switch o.Kind {
	case gcn3.OperSGPR:
		w.SGPR[o.Index] = uint32(v)
		if width == 2 {
			w.SGPR[o.Index+1] = uint32(v >> 32)
		}
	case gcn3.OperVCC:
		w.VCC = v
	case gcn3.OperEXEC:
		w.Exec = isa.ExecMask(v)
	}
}

// readVecSrc gathers a vector-instruction source: per-lane for VGPRs,
// broadcast for scalars and constants.
func (e *refGCN3Engine) readVecSrc(w *Wave, o gcn3.Operand, width int, t isa.DataType, vals *[isa.WavefrontSize]uint64) {
	switch o.Kind {
	case gcn3.OperVGPR:
		lo := &w.VGPR[o.Index]
		e.Col.OnVRFValue(w, false, lo)
		e.Col.OnVRFSlot(w, int(o.Index))
		if width == 2 {
			hi := &w.VGPR[o.Index+1]
			e.Col.OnVRFValue(w, false, hi)
			e.Col.OnVRFSlot(w, int(o.Index)+1)
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane]) | uint64(hi[lane])<<32
			}
		} else {
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane])
			}
		}
	case gcn3.OperInline, gcn3.OperLit:
		v := uint64(o.Val)
		if width == 2 {
			v = expandConst(t, o.Val)
		}
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = v
		}
	default:
		v := e.readScalar(w, o, width)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = v
		}
	}
}

// writeVecDst stores per-lane results into a VGPR destination under EXEC.
func (e *refGCN3Engine) writeVecDst(w *Wave, o gcn3.Operand, width int, vals *[isa.WavefrontSize]uint64) {
	if o.Kind != gcn3.OperVGPR {
		return
	}
	lo := &w.VGPR[o.Index]
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if w.Exec.Bit(lane) {
			lo[lane] = uint32(vals[lane])
		}
	}
	e.Col.OnVRFValue(w, true, lo)
	e.Col.OnVRFSlot(w, int(o.Index))
	if width == 2 {
		hi := &w.VGPR[o.Index+1]
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				hi[lane] = uint32(vals[lane] >> 32)
			}
		}
		e.Col.OnVRFValue(w, true, hi)
		e.Col.OnVRFSlot(w, int(o.Index)+1)
	}
}

// refGCN3UnKind and refGCN3BinKind map vector ALU opcodes to evaluator kinds
// (hoisted to package scope so execution does not rebuild them per
// instruction).
var refGCN3UnKind = map[gcn3.Op]unOpKind{
	gcn3.OpVRcp: unRcp, gcn3.OpVSqrt: unSqrt, gcn3.OpVRsq: unRsqrt,
}

var refGCN3BinKind = map[gcn3.Op]binOpKind{
	gcn3.OpVAdd: binAdd, gcn3.OpVSub: binSub, gcn3.OpVMul: binMul,
	gcn3.OpVMulLo: binMul, gcn3.OpVMulHi: binMulHi,
	gcn3.OpVMin: binMin, gcn3.OpVMax: binMax, gcn3.OpVAnd: binAnd,
	gcn3.OpVOr: binOr, gcn3.OpVXor: binXor,
}

// Execute commits the instruction at w.PC.
func (e *refGCN3Engine) Execute(w *Wave) (ExecResult, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return ExecResult{}, err
	}
	in := &e.prog.Insts[idx]
	info := &e.infos[idx]
	res := ExecResult{ActiveLanes: w.Exec.PopCount()}
	e.Col.TickReuse(w)
	seqPC := w.PC + uint64(info.SizeBytes)
	nextPC := seqPC

	switch in.Op {
	// ---- Scalar ALU ----
	case gcn3.OpSMov:
		wd := in.Type.Regs()
		e.writeScalar(w, in.Dst, wd, e.readScalar(w, in.Srcs[0], wd))
	case gcn3.OpSNot:
		wd := in.Type.Regs()
		v := ^e.readScalar(w, in.Srcs[0], wd)
		if wd == 1 {
			v = uint64(uint32(v))
		}
		e.writeScalar(w, in.Dst, wd, v)
		w.SCC = v != 0
	case gcn3.OpSAndSaveexec, gcn3.OpSOrSaveexec:
		old := uint64(w.Exec)
		src := e.readScalar(w, in.Srcs[0], 2)
		e.writeScalar(w, in.Dst, 2, old)
		if in.Op == gcn3.OpSAndSaveexec {
			w.Exec = isa.ExecMask(old & src)
		} else {
			w.Exec = isa.ExecMask(old | src)
		}
		w.SCC = w.Exec != 0
	case gcn3.OpSAdd, gcn3.OpSSub, gcn3.OpSMul, gcn3.OpSLshl, gcn3.OpSLshr,
		gcn3.OpSAshr, gcn3.OpSAnd, gcn3.OpSOr, gcn3.OpSXor, gcn3.OpSAndN2:
		wd := in.Type.Regs()
		if wd == 0 {
			wd = 1
		}
		a := e.readScalar(w, in.Srcs[0], wd)
		b := e.readScalar(w, in.Srcs[1], wd)
		var v uint64
		switch in.Op {
		case gcn3.OpSAdd:
			v = binOp(binAdd, in.Type, a, b)
			w.SCC = uint64(uint32(a))+uint64(uint32(b)) > 0xFFFFFFFF
		case gcn3.OpSSub:
			v = binOp(binSub, in.Type, a, b)
			w.SCC = uint32(b) > uint32(a)
		case gcn3.OpSMul:
			v = binOp(binMul, in.Type, a, b)
		case gcn3.OpSLshl:
			v = binOp(binShl, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSLshr:
			v = binOp(binShr, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSAshr:
			v = binOp(binShr, isa.TypeS32, a, b)
			w.SCC = v != 0
		case gcn3.OpSAnd:
			v = binOp(binAnd, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSOr:
			v = binOp(binOr, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSXor:
			v = binOp(binXor, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSAndN2:
			v = a &^ b
			w.SCC = v != 0
		}
		e.writeScalar(w, in.Dst, wd, v)
	case gcn3.OpSAddc:
		a := e.readScalar(w, in.Srcs[0], 1)
		b := e.readScalar(w, in.Srcs[1], 1)
		cin := uint64(0)
		if w.SCC {
			cin = 1
		}
		sum := uint64(uint32(a)) + uint64(uint32(b)) + cin
		e.writeScalar(w, in.Dst, 1, uint64(uint32(sum)))
		w.SCC = sum > 0xFFFFFFFF
	case gcn3.OpSBfe:
		a := e.readScalar(w, in.Srcs[0], 1)
		spec := e.readScalar(w, in.Srcs[1], 1)
		off := spec & 0x1F
		width := spec >> 16 & 0x7F
		v := uint64(0)
		if width > 0 {
			v = a >> off & (1<<width - 1)
		}
		e.writeScalar(w, in.Dst, 1, v)
		w.SCC = v != 0
	case gcn3.OpSCmp:
		a := e.readScalar(w, in.Srcs[0], 1)
		b := e.readScalar(w, in.Srcs[1], 1)
		w.SCC = compare(in.Cmp, in.Type, a, b)

	// ---- Scalar program control ----
	case gcn3.OpSEndpgm:
		w.Done = true
		res.IsEndPgm = true
		e.Col.OnCommit(info.Category, res.ActiveLanes)
		return res, nil
	case gcn3.OpSBarrier:
		res.IsBarrier = true
	case gcn3.OpSNop, gcn3.OpSWaitcnt:
		// Timing-only effects.
	case gcn3.OpSBranch, gcn3.OpSCbranchSCC0, gcn3.OpSCbranchSCC1,
		gcn3.OpSCbranchVCCZ, gcn3.OpSCbranchVCCNZ,
		gcn3.OpSCbranchExecZ, gcn3.OpSCbranchExecNZ:
		taken := false
		switch in.Op {
		case gcn3.OpSBranch:
			taken = true
		case gcn3.OpSCbranchSCC0:
			taken = !w.SCC
		case gcn3.OpSCbranchSCC1:
			taken = w.SCC
		case gcn3.OpSCbranchVCCZ:
			taken = w.VCC == 0
		case gcn3.OpSCbranchVCCNZ:
			taken = w.VCC != 0
		case gcn3.OpSCbranchExecZ:
			taken = w.Exec == 0
		case gcn3.OpSCbranchExecNZ:
			taken = w.Exec != 0
		}
		if taken {
			nextPC = e.Base + e.prog.PCs[in.Target]
			res.Redirected = nextPC != seqPC
		}

	// ---- Scalar memory ----
	case gcn3.OpSLoadDword, gcn3.OpSLoadDwordx2, gcn3.OpSLoadDwordx4:
		base := e.readScalar(w, in.Srcs[0], 2)
		addr := base + uint64(in.Offset)
		n := in.DstRegs()
		for i := 0; i < n; i++ {
			w.SGPR[int(in.Dst.Index)+i] = e.Ctx.Mem.ReadU32(addr + uint64(4*i))
		}
		res.MemKind = MemScalar
		first := addr &^ (mem.LineSize - 1)
		last := (addr + uint64(4*n) - 1) &^ (mem.LineSize - 1)
		w.linesBuf = w.linesBuf[:0]
		for l := first; l <= last; l += mem.LineSize {
			w.linesBuf = append(w.linesBuf, l)
		}
		res.Lines = w.linesBuf

	// ---- Vector ALU ----
	default:
		if err := e.vector(w, in, &res); err != nil {
			return res, err
		}
	}

	w.PC = nextPC
	e.Col.OnCommit(info.Category, res.ActiveLanes)
	return res, nil
}

// vector executes VALU, FLAT and DS operations.
func (e *refGCN3Engine) vector(w *Wave, in *gcn3.Inst, res *ExecResult) error {
	s0, s1, s2, dst := &e.vs0, &e.vs1, &e.vs2, &e.vdst
	t := in.Type
	read := func(i int, buf *[isa.WavefrontSize]uint64) {
		st := t
		if in.Op == gcn3.OpVCvt {
			st = in.SrcType
		}
		e.readVecSrc(w, in.Srcs[i], in.SrcRegs(i), st, buf)
	}
	perLane := func(f func(lane int)) {
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				f(lane)
			}
		}
	}

	switch in.Op {
	case gcn3.OpVMov:
		read(0, s0)
		perLane(func(l int) { dst[l] = s0[l] })
		e.writeVecDst(w, in.Dst, in.DstRegs(), dst)
	case gcn3.OpVNot:
		read(0, s0)
		perLane(func(l int) { dst[l] = uint64(^uint32(s0[l])) })
		e.writeVecDst(w, in.Dst, 1, dst)
	case gcn3.OpVCvt:
		read(0, s0)
		perLane(func(l int) { dst[l] = convert(in.Type, in.SrcType, s0[l]) })
		e.writeVecDst(w, in.Dst, in.Type.Regs(), dst)
	case gcn3.OpVRcp, gcn3.OpVSqrt, gcn3.OpVRsq:
		read(0, s0)
		kind := refGCN3UnKind[in.Op]
		perLane(func(l int) { dst[l] = unOp(kind, t, s0[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVAdd, gcn3.OpVSub, gcn3.OpVMul, gcn3.OpVMulLo, gcn3.OpVMulHi,
		gcn3.OpVMin, gcn3.OpVMax, gcn3.OpVAnd, gcn3.OpVOr, gcn3.OpVXor:
		read(0, s0)
		read(1, s1)
		kind := refGCN3BinKind[in.Op]
		bt := t
		if in.Op == gcn3.OpVMulLo || in.Op == gcn3.OpVMulHi {
			bt = isa.TypeU32
		}
		var carry uint64
		perLane(func(l int) {
			dst[l] = binOp(kind, bt, s0[l], s1[l])
			if in.Op == gcn3.OpVAdd && t == isa.TypeU32 {
				if s0[l]+s1[l] > 0xFFFFFFFF {
					carry |= 1 << uint(l)
				}
			}
			if in.Op == gcn3.OpVSub && t == isa.TypeU32 {
				if uint32(s1[l]) > uint32(s0[l]) {
					carry |= 1 << uint(l)
				}
			}
		})
		e.writeVecDst(w, in.Dst, bt.Regs(), dst)
		if in.SDst.Kind == gcn3.OperVCC {
			w.VCC = carry
		} else if in.SDst.Kind == gcn3.OperSGPR {
			e.writeScalar(w, in.SDst, 2, carry)
		}
	case gcn3.OpVAddc:
		read(0, s0)
		read(1, s1)
		oldVCC := w.VCC
		var carry uint64
		perLane(func(l int) {
			cin := oldVCC >> uint(l) & 1
			sum := uint64(uint32(s0[l])) + uint64(uint32(s1[l])) + cin
			dst[l] = uint64(uint32(sum))
			if sum > 0xFFFFFFFF {
				carry |= 1 << uint(l)
			}
		})
		e.writeVecDst(w, in.Dst, 1, dst)
		w.VCC = carry
	case gcn3.OpVLshl, gcn3.OpVLshr, gcn3.OpVAshr:
		// rev operand order: src0 is the shift amount.
		read(0, s0)
		read(1, s1)
		kind := binShl
		bt := t
		switch in.Op {
		case gcn3.OpVLshr:
			kind = binShr
		case gcn3.OpVAshr:
			kind = binShr
			bt = isa.TypeS32
		}
		perLane(func(l int) { dst[l] = binOp(kind, bt, s1[l], s0[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVMad, gcn3.OpVFma:
		read(0, s0)
		read(1, s1)
		read(2, s2)
		perLane(func(l int) { dst[l] = fma(t, s0[l], s1[l], s2[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVCmp:
		read(0, s0)
		read(1, s1)
		var m uint64
		perLane(func(l int) {
			if compare(in.Cmp, t, s0[l], s1[l]) {
				m |= 1 << uint(l)
			}
		})
		if in.Dst.Kind == gcn3.OperSGPR {
			e.writeScalar(w, in.Dst, 2, m)
		} else {
			w.VCC = m
		}
	case gcn3.OpVCndmask:
		read(0, s0)
		read(1, s1)
		sel := e.readScalar(w, in.Srcs[2], 2)
		perLane(func(l int) {
			if sel>>uint(l)&1 != 0 {
				dst[l] = s1[l]
			} else {
				dst[l] = s0[l]
			}
		})
		e.writeVecDst(w, in.Dst, 1, dst)
	case gcn3.OpVDivScale:
		// Simplified semantics: pass the scaled operand through and clear
		// VCC; the Newton-Raphson chain does the real work (Table 3).
		read(0, s0)
		perLane(func(l int) { dst[l] = s0[l] })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
		w.VCC = 0
	case gcn3.OpVDivFmas:
		read(0, s0)
		read(1, s1)
		read(2, s2)
		perLane(func(l int) { dst[l] = fma(t, s0[l], s1[l], s2[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVDivFixup:
		// src0 = quotient estimate, src1 = denominator, src2 = numerator.
		read(0, s0)
		read(1, s1)
		read(2, s2)
		perLane(func(l int) { dst[l] = divFixup(t, s0[l], s1[l], s2[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)

	// ---- Flat memory ----
	case gcn3.OpFlatLoadDword, gcn3.OpFlatLoadDwordx2,
		gcn3.OpFlatStoreDword, gcn3.OpFlatStoreDwordx2, gcn3.OpFlatAtomicAdd:
		return e.flat(w, in, res)

	// ---- LDS ----
	case gcn3.OpDSReadB32, gcn3.OpDSReadB64, gcn3.OpDSWriteB32,
		gcn3.OpDSWriteB64, gcn3.OpDSAddU32:
		return e.ds(w, in, res)

	default:
		return fmt.Errorf("emu: unimplemented GCN3 op %s", in.Op)
	}
	return nil
}

// flat executes FLAT memory operations.
func (e *refGCN3Engine) flat(w *Wave, in *gcn3.Inst, res *ExecResult) error {
	var addrs64 [isa.WavefrontSize]uint64
	e.readVecSrc(w, in.Srcs[0], 2, isa.TypeU64, &addrs64)
	size := 4
	if in.Op == gcn3.OpFlatLoadDwordx2 || in.Op == gcn3.OpFlatStoreDwordx2 {
		size = 8
	}
	m := e.Ctx.Mem
	switch in.Op {
	case gcn3.OpFlatLoadDword, gcn3.OpFlatLoadDwordx2:
		var data [isa.WavefrontSize]uint64
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if size == 8 {
				data[lane] = m.ReadU64(addrs64[lane])
			} else {
				data[lane] = uint64(m.ReadU32(addrs64[lane]))
			}
		}
		e.writeVecDst(w, in.Dst, size/4, &data)
	case gcn3.OpFlatStoreDword, gcn3.OpFlatStoreDwordx2:
		var data [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], size/4, isa.TypeB64, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if size == 8 {
				m.WriteU64(addrs64[lane], data[lane])
			} else {
				m.WriteU32(addrs64[lane], uint32(data[lane]))
			}
		}
		res.MemWrite = true
	case gcn3.OpFlatAtomicAdd:
		var data, ret [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], 1, isa.TypeU32, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			ret[lane] = uint64(m.AtomicAddU32(addrs64[lane], uint32(data[lane])))
		}
		e.writeVecDst(w, in.Dst, 1, &ret)
		res.MemWrite = true
	}
	res.MemKind = MemGlobal
	w.linesBuf = mem.CoalesceInto(w.linesBuf[:0], &addrs64, size, w.Exec)
	res.Lines = w.linesBuf
	return nil
}

// ds executes LDS operations.
func (e *refGCN3Engine) ds(w *Wave, in *gcn3.Inst, res *ExecResult) error {
	var addrs [isa.WavefrontSize]uint64
	e.readVecSrc(w, in.Srcs[0], 1, isa.TypeU32, &addrs)
	size := 4
	if in.Op == gcn3.OpDSReadB64 || in.Op == gcn3.OpDSWriteB64 {
		size = 8
	}
	lds := w.WG.LDS
	rd := func(a uint64) uint64 {
		off := int(a) + int(in.Offset)
		if off+size > len(lds) {
			return 0
		}
		v := uint64(0)
		for i := 0; i < size; i++ {
			v |= uint64(lds[off+i]) << uint(8*i)
		}
		return v
	}
	wr := func(a uint64, v uint64) {
		off := int(a) + int(in.Offset)
		if off+size > len(lds) {
			return
		}
		for i := 0; i < size; i++ {
			lds[off+i] = byte(v >> uint(8*i))
		}
	}
	res.LDSBankConflicts = ldsBankConflicts(&addrs, w.Exec)
	switch in.Op {
	case gcn3.OpDSReadB32, gcn3.OpDSReadB64:
		var data [isa.WavefrontSize]uint64
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				data[lane] = rd(addrs[lane])
			}
		}
		e.writeVecDst(w, in.Dst, size/4, &data)
	case gcn3.OpDSWriteB32, gcn3.OpDSWriteB64:
		var data [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], size/4, isa.TypeB64, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				wr(addrs[lane], data[lane])
			}
		}
		res.MemWrite = true
	case gcn3.OpDSAddU32:
		// Per-lane sequential read-modify-write: same-address lanes
		// serialize, as the hardware's LDS atomic unit guarantees.
		var data, ret [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], 1, isa.TypeU32, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				old := rd(addrs[lane])
				wr(addrs[lane], uint64(uint32(old)+uint32(data[lane])))
				ret[lane] = old
			}
		}
		e.writeVecDst(w, in.Dst, 1, &ret)
		res.MemWrite = true
	}
	res.MemKind = MemLDS
	return nil
}
