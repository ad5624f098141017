package emu

import (
	"fmt"
	"math/bits"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// GCN3Engine executes finalized machine code: whole-wavefront vector
// instructions against the architected EXEC mask, scalar instructions on
// SGPR state, real ABI register initialization, scalar memory loads that
// read the actual dispatch packet, and waitcnt-based dependency semantics.
// Like HSAILEngine, it is a loaded code object and serves every dispatch of
// it.
type GCN3Engine struct {
	Ctx *hsa.Context
	CO  *gcn3.CodeObject
	Col *Collector
	// Waves, when set, recycles finished waves' storage (see WavePool).
	Waves *WavePool

	// Base is the code object's load address; instruction PCs are
	// Base-relative per Program.PCs.
	Base uint64

	prog *gcn3.Program
	// infos is the per-PC decode cache: scheduling metadata is static per
	// instruction, so Peek is a table lookup on the hot path.
	infos []InstInfo

	// uops is the decode-once form of the program: one micro-op per
	// instruction, lowered at load and immutable afterwards, as are the
	// pre-broadcast constants it points to.
	uops []gcn3Uop

	// scratch is Execute's working state.
	scratch laneUnit
}

// NewGCN3Engine prepares a loaded code object for execution. Its program
// must be laid out, as the finalizer and DecodeProgram leave it; the engine
// only reads it.
func NewGCN3Engine(ctx *hsa.Context, co *gcn3.CodeObject, base uint64, col *Collector) *GCN3Engine {
	e := &GCN3Engine{Ctx: ctx, CO: co, Col: col, Base: base, prog: co.Program}
	e.infos = make([]InstInfo, len(e.prog.Insts))
	e.uops = make([]gcn3Uop, len(e.prog.Insts))
	consts := constPool{}
	for i := range e.infos {
		e.infos[i] = e.decodeInfo(i)
		e.uops[i] = e.lower(i, consts)
	}
	return e
}

// Abstraction identifies the engine.
func (e *GCN3Engine) Abstraction() string { return "GCN3" }

// LDSBytes returns the workgroup LDS demand.
func (e *GCN3Engine) LDSBytes() int { return e.CO.GroupSize }

// RegDemand returns (VGPRs, SGPRs) per wavefront.
func (e *GCN3Engine) RegDemand() (int, int) { return e.CO.NumVGPRs, e.CO.NumSGPRs }

func (e *GCN3Engine) idxOf(pc uint64) (int, error) {
	idx := e.prog.IndexAt(pc - e.Base)
	if idx < 0 {
		return 0, fmt.Errorf("emu: bad GCN3 PC %#x", pc)
	}
	return idx, nil
}

// InstString disassembles the instruction at pc.
func (e *GCN3Engine) InstString(pc uint64) string {
	idx, err := e.idxOf(pc)
	if err != nil {
		return err.Error()
	}
	return e.prog.Insts[idx].String()
}

// NewWave initializes wavefront state per the GCN3 ABI: the command
// processor has placed the dispatch-packet address, kernarg base, scratch
// base/stride and workgroup IDs in SGPRs and each lane's flat work-item ID
// in v0 (paper §III.A.1).
func (e *GCN3Engine) NewWave(wg *WGState, waveID int) *Wave {
	first := waveID * isa.WavefrontSize
	lanes := wg.Info.Size - first
	if lanes > isa.WavefrontSize {
		lanes = isa.WavefrontSize
	}
	nv := e.CO.NumVGPRs
	if nv < 1 {
		nv = 1
	}
	w, rows := e.Waves.get()
	w.WG, w.WaveID, w.FirstWI, w.NumLanes = wg, waveID, first, lanes
	w.PC = e.Base
	w.Exec = isa.FullMask(lanes)
	w.VGPR = zeroed(rows, nv)
	d := wg.Dispatch
	w.SGPR[gcn3.SGPRPrivateBase] = uint32(d.PrivateBase)
	w.SGPR[gcn3.SGPRPrivateBase+1] = uint32(d.PrivateBase >> 32)
	w.SGPR[gcn3.SGPRPrivateStride] = d.PrivateStride
	w.SGPR[gcn3.SGPRDispatchPtr] = uint32(d.PacketAddr)
	w.SGPR[gcn3.SGPRDispatchPtr+1] = uint32(d.PacketAddr >> 32)
	w.SGPR[gcn3.SGPRKernargPtr] = uint32(d.Packet.KernargAddress)
	w.SGPR[gcn3.SGPRKernargPtr+1] = uint32(d.Packet.KernargAddress >> 32)
	w.SGPR[gcn3.SGPRWorkGroupIDX] = wg.Info.ID[0]
	w.SGPR[gcn3.SGPRWorkGroupIDY] = wg.Info.ID[1]
	w.SGPR[gcn3.SGPRWorkGroupIDZ] = wg.Info.ID[2]
	dims := e.CO.WorkItemIDDims
	if dims < 1 {
		dims = 1
	}
	for lane := 0; lane < lanes; lane++ {
		lid := d.LocalID(first + lane)
		w.VGPR[gcn3.VGPRWorkItemID][lane] = lid[0]
		if dims >= 2 {
			w.VGPR[gcn3.VGPRWorkItemIDY][lane] = lid[1]
		}
		if dims >= 3 {
			w.VGPR[gcn3.VGPRWorkItemIDZ][lane] = lid[2]
		}
	}
	if e.Col != nil && e.Col.TrackReuse {
		w.Reuse = stats.NewReuseTracker(nv)
	}
	return w
}

// FreeWave hands a finished wave to the engine's pool.
func (e *GCN3Engine) FreeWave(w *Wave) { e.Waves.put(w) }

// Peek returns the decode-cache entry for the instruction at w.PC.
func (e *GCN3Engine) Peek(w *Wave) (*InstInfo, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return nil, err
	}
	if err := e.uops[idx].err; err != nil {
		return nil, err
	}
	return &e.infos[idx], nil
}

// decodeInfo builds the scheduling metadata of instruction idx.
func (e *GCN3Engine) decodeInfo(idx int) InstInfo {
	in := &e.prog.Insts[idx]
	info := InstInfo{
		SizeBytes: in.SizeBytes(),
		Category:  in.Category(),
		WaitVM:    -1,
		WaitLGKM:  -1,
		IsVMem:    in.Op.IsVMem(),
		IsLGKM:    in.Op.IsLGKM(),
	}
	in.Operands(func(o gcn3.Operand, width int, def bool) {
		switch {
		case o.Kind != gcn3.OperVGPR:
		case def:
			info.VRFWrites.Add(int(o.Index), width)
		default:
			info.VRFReads.Add(int(o.Index), width)
		}
	})

	switch {
	case in.Op == gcn3.OpSWaitcnt:
		info.LatClass = LatNop
		info.WaitVM, info.WaitLGKM = in.VMCnt, in.LGKMCnt
	case in.Op == gcn3.OpSBarrier, in.Op == gcn3.OpSEndpgm, in.Op == gcn3.OpSNop:
		info.LatClass = LatNop
	case in.Op.IsBranch():
		info.LatClass = LatBranch
	case in.Op.Category() == isa.CatSALU:
		info.LatClass = LatScalar
	case in.Op.Category() == isa.CatSMem, in.Op.Category() == isa.CatVMem:
		info.LatClass = LatMem
	case in.Op.Category() == isa.CatLDS:
		info.LatClass = LatLDS
	case in.Op == gcn3.OpVRcp || in.Op == gcn3.OpVSqrt || in.Op == gcn3.OpVRsq ||
		in.Op == gcn3.OpVDivScale || in.Op == gcn3.OpVDivFmas || in.Op == gcn3.OpVDivFixup:
		info.LatClass = LatTrans
	default:
		if in.Type.Regs() == 2 {
			info.LatClass = LatALU64
		} else {
			info.LatClass = LatALU
		}
	}
	return info
}

// readScalar reads a scalar operand of the given register width.
func readScalar(w *Wave, o gcn3.Operand, width int) uint64 {
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
func writeScalar(w *Wave, o gcn3.Operand, width int, v uint64) {
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

// expandConst widens a 32-bit constant for a 64-bit operation. Float
// constants expand f32→f64 (the GCN3 literal rule); integers zero-extend.
func expandConst(t isa.DataType, v uint32) uint64 {
	if t == isa.TypeF64 {
		return fromF64(float64(f32(uint64(v))))
	}
	if t.IsSigned() {
		return uint64(int64(int32(v)))
	}
	return uint64(v)
}

// sccRule says how a scalar ALU instruction sets SCC.
type sccRule uint8

const (
	sccKeep    sccRule = iota // SCC unchanged (s_mul)
	sccNonZero                // SCC = result != 0
	sccCarry                  // SCC = unsigned 32-bit carry out (s_add)
	sccBorrow                 // SCC = unsigned 32-bit borrow (s_sub)
)

// gcn3Uop is one GCN3 instruction lowered for execution.
type gcn3Uop struct {
	step func(e *GCN3Engine, w *Wave, u *gcn3Uop, res *ExecResult)
	// err, when set, is what Peek and Execute report at this PC: the
	// instruction has no defined execution.
	err   error
	pc    uint64
	seqPC uint64
	cat   isa.Category

	// in is the decoded instruction; scalar steps read their operands
	// from it (a scalar operand needs no further resolution).
	in *gcn3.Inst

	// vec is the kernel call of a vector ALU instruction. FLAT and DS
	// instructions reuse its operand slots: src[0] is the address, src[1]
	// the store or atomic data, dst the loaded value.
	vec vecOp

	// Scalar ALU: operation, type, operand width in registers, SCC rule.
	kind  binOpKind
	t     isa.DataType
	width int
	scc   sccRule

	// Branches: the taken PC.
	target uint64

	// Memory: access bytes, and the DS immediate offset sign-extended so
	// that address arithmetic wraps out of range instead of going negative.
	size uint8
	off  uint64
}

// gcn3LaneOps maps the vector opcodes whose lowering is "look the kernel up
// by (operation, Inst.Type)".
var gcn3LaneOps = [gcn3.NumOps]laneOp{
	gcn3.OpVRcp: opRcp, gcn3.OpVSqrt: opSqrt, gcn3.OpVRsq: opRsqrt,
	gcn3.OpVAdd: opAdd, gcn3.OpVSub: opSub, gcn3.OpVMul: opMul,
	gcn3.OpVMin: opMin, gcn3.OpVMax: opMax,
	gcn3.OpVAnd: opAnd, gcn3.OpVOr: opOr, gcn3.OpVXor: opXor,
	gcn3.OpVLshl: opShl, gcn3.OpVLshr: opShr,
	gcn3.OpVMad: opFma, gcn3.OpVFma: opFma, gcn3.OpVDivFmas: opFma,
	gcn3.OpVDivFixup: opDivFixup,
}

// gcn3ScalarOps describes the two-source scalar ALU instructions that are a
// binOp plus an SCC rule.
var gcn3ScalarOps = [gcn3.NumOps]struct {
	ok   bool
	kind binOpKind
	scc  sccRule
}{
	gcn3.OpSAdd: {true, binAdd, sccCarry}, gcn3.OpSSub: {true, binSub, sccBorrow},
	gcn3.OpSMul:  {true, binMul, sccKeep},
	gcn3.OpSLshl: {true, binShl, sccNonZero}, gcn3.OpSLshr: {true, binShr, sccNonZero},
	gcn3.OpSAshr: {true, binShr, sccNonZero},
	gcn3.OpSAnd:  {true, binAnd, sccNonZero}, gcn3.OpSOr: {true, binOr, sccNonZero},
	gcn3.OpSXor: {true, binXor, sccNonZero},
}

// lower builds the micro-op of instruction idx.
func (e *GCN3Engine) lower(idx int, consts constPool) gcn3Uop {
	in := &e.prog.Insts[idx]
	pc := e.Base + e.prog.PCs[idx]
	u := gcn3Uop{pc: pc, seqPC: pc + uint64(in.SizeBytes()), cat: in.Category(), in: in}
	u.width = in.Type.Regs()
	switch in.Op {
	case gcn3.OpSMov:
		u.step = (*GCN3Engine).stepSMov
	case gcn3.OpSNot:
		u.step = (*GCN3Engine).stepSNot
	case gcn3.OpSAndSaveexec, gcn3.OpSOrSaveexec:
		u.step = (*GCN3Engine).stepSaveexec
	case gcn3.OpSAndN2:
		u.step = (*GCN3Engine).stepSAndN2
	case gcn3.OpSAddc:
		u.step = (*GCN3Engine).stepSAddc
	case gcn3.OpSBfe:
		u.step = (*GCN3Engine).stepSBfe
	case gcn3.OpSCmp:
		u.step = (*GCN3Engine).stepSCmp
	case gcn3.OpSEndpgm:
		u.step = (*GCN3Engine).stepEndpgm
	case gcn3.OpSBarrier:
		u.step = (*GCN3Engine).stepBarrier
	case gcn3.OpSNop, gcn3.OpSWaitcnt:
		u.step = (*GCN3Engine).stepNop // timing-only effects
	case gcn3.OpSBranch, gcn3.OpSCbranchSCC0, gcn3.OpSCbranchSCC1,
		gcn3.OpSCbranchVCCZ, gcn3.OpSCbranchVCCNZ,
		gcn3.OpSCbranchExecZ, gcn3.OpSCbranchExecNZ:
		if int(in.Target) < 0 || int(in.Target) >= len(e.prog.PCs) {
			u.err = fmt.Errorf("emu: %s to undefined instruction %d", in.Op, in.Target)
			break
		}
		u.step = (*GCN3Engine).stepBranch
		u.target = e.Base + e.prog.PCs[in.Target]
	case gcn3.OpSLoadDword, gcn3.OpSLoadDwordx2, gcn3.OpSLoadDwordx4:
		u.step = (*GCN3Engine).stepSLoad
	case gcn3.OpFlatLoadDword, gcn3.OpFlatLoadDwordx2,
		gcn3.OpFlatStoreDword, gcn3.OpFlatStoreDwordx2, gcn3.OpFlatAtomicAdd,
		gcn3.OpDSReadB32, gcn3.OpDSReadB64, gcn3.OpDSWriteB32,
		gcn3.OpDSWriteB64, gcn3.OpDSAddU32:
		u.err = lowerGCN3Memory(&u, in, consts)
	default:
		if int(in.Op) < len(gcn3ScalarOps) && gcn3ScalarOps[in.Op].ok {
			so := gcn3ScalarOps[in.Op]
			u.step = (*GCN3Engine).stepSALU
			u.kind, u.scc, u.t = so.kind, so.scc, in.Type
			if in.Op == gcn3.OpSAshr {
				u.t = isa.TypeS32
			}
			if u.width == 0 {
				u.width = 1
			}
			break
		}
		u.step = (*GCN3Engine).stepVec
		u.err = lowerGCN3Vec(&u.vec, in, consts)
	}
	return u
}

// gcn3Src lowers a vector-instruction source of the given register width:
// per-lane for VGPRs, pre-broadcast for constants (expanded as type t when
// 64-bit), broadcast at run time for scalar state.
func gcn3Src(o gcn3.Operand, width int, t isa.DataType, consts constPool) vsrc {
	wide := width == 2
	switch o.Kind {
	case gcn3.OperVGPR:
		return vsrc{kind: srcReg, wide: wide, slot: o.Index}
	case gcn3.OperInline, gcn3.OperLit:
		v := uint64(o.Val)
		if wide {
			v = expandConst(t, o.Val)
		}
		return vsrc{kind: srcConst, wide: wide, k: consts.get(v)}
	case gcn3.OperNone:
		return vsrc{kind: srcConst, wide: wide, k: consts.get(0)}
	}
	return vsrc{kind: srcScalar, wide: wide, sop: o}
}

// scalarMask names a 64-bit scalar operand as a lane mask.
func scalarMask(o gcn3.Operand) maskRef { return maskRef{kind: maskScalar, sop: o} }

// lowerGCN3Vec lowers a vector ALU instruction to a kernel call.
func lowerGCN3Vec(v *vecOp, in *gcn3.Inst, consts constPool) error {
	t := in.Type
	kt := t // the kernel's data type
	nsrc := in.Op.NSrc()
	constT := t // how 64-bit constants expand
	if int(in.Op) >= len(gcn3LaneOps) {
		return fmt.Errorf("emu: unimplemented GCN3 op %s", in.Op)
	}
	op := gcn3LaneOps[in.Op]
	// carryOut: a scalar co-destination receives the kernel's lane mask.
	carryOut := in.SDst.Kind == gcn3.OperVCC || in.SDst.Kind == gcn3.OperSGPR
	switch in.Op {
	case gcn3.OpVMov:
		op, kt = opMov, isa.TypeB32
		if in.DstRegs() == 2 {
			kt = isa.TypeB64
		}
	case gcn3.OpVNot:
		op, kt = opNot, isa.TypeB32
	case gcn3.OpVCvt:
		constT = in.SrcType
		v.kern = cvtKernelFor(in.Type, in.SrcType)
	case gcn3.OpVAdd, gcn3.OpVSub:
		// The u32 forms produce a carry/borrow mask when something
		// receives it.
		if t == isa.TypeU32 && carryOut {
			op = opAddCO
			if in.Op == gcn3.OpVSub {
				op = opSubBO
			}
		}
	case gcn3.OpVMulLo:
		op, kt = opMul, isa.TypeU32
	case gcn3.OpVMulHi:
		op, kt = opMulHi, isa.TypeU32
	case gcn3.OpVAddc:
		op, kt = opAddC, isa.TypeU32
		v.maskIn, v.maskOut = scalarMask(gcn3.VCC()), scalarMask(gcn3.VCC())
	case gcn3.OpVLshl, gcn3.OpVLshr:
		v.swap = true // rev operand order: src0 is the shift amount
	case gcn3.OpVAshr:
		op, kt, v.swap = opShr, isa.TypeS32, true
	case gcn3.OpVCmp:
		v.kern = cmpKernelFor(in.Cmp, t)
		v.maskOut = scalarMask(gcn3.VCC())
		if in.Dst.Kind == gcn3.OperSGPR {
			v.maskOut = scalarMask(in.Dst)
		}
	case gcn3.OpVCndmask:
		// dst = sel ? src1 : src0: the select kernel with the mask
		// complemented.
		op, kt, nsrc = opSel, isa.TypeB32, 2
		v.maskIn = scalarMask(in.Srcs[2])
		v.maskIn.invert = true
	case gcn3.OpVDivScale:
		// Simplified semantics: pass the scaled operand through and clear
		// VCC; the Newton-Raphson chain does the real work (Table 3).
		op, nsrc = opMov, 1
		v.maskOut = scalarMask(gcn3.VCC())
	}
	switch in.Op {
	case gcn3.OpVAdd, gcn3.OpVSub, gcn3.OpVMul, gcn3.OpVMulLo, gcn3.OpVMulHi,
		gcn3.OpVMin, gcn3.OpVMax, gcn3.OpVAnd, gcn3.OpVOr, gcn3.OpVXor:
		if carryOut {
			v.maskOut = scalarMask(in.SDst) // all zeros unless the kernel is a carry form
		}
	}
	if v.kern == nil && op != opNone {
		v.kern = kernelFor(op, kt)
	}
	if v.kern == nil {
		if in.Op == gcn3.OpVCvt {
			return fmt.Errorf("emu: unimplemented %s %s from %s", in.Op, in.Type, in.SrcType)
		}
		return fmt.Errorf("emu: unimplemented %s %s", in.Op, t)
	}
	for i := 0; i < nsrc; i++ {
		v.src[i] = gcn3Src(in.Srcs[i], in.SrcRegs(i), constT, consts)
	}
	v.nsrc = uint8(nsrc)
	if in.Op == gcn3.OpVCmp {
		return nil
	}
	// The destination is as wide as the kernel's result; v_ashrrev on a
	// 64-bit type (a 32-bit shift into a register pair) has no kernel.
	if in.Dst.Kind != gcn3.OperVGPR || kt.Regs() == 0 || (in.Op == gcn3.OpVAshr && t.Regs() != 1) {
		return fmt.Errorf("emu: unimplemented %s %s destination", in.Op, t)
	}
	v.dst, v.dstW = in.Dst.Index, uint8(kt.Regs())
	return nil
}

// lowerGCN3Memory lowers FLAT and DS instructions.
func lowerGCN3Memory(u *gcn3Uop, in *gcn3.Inst, consts constPool) error {
	v := &u.vec
	u.size = 4
	lds := in.Category() == isa.CatLDS
	if lds {
		u.off = uint64(int64(in.Offset))
		v.src[0] = gcn3Src(in.Srcs[0], 1, isa.TypeU32, consts)
	} else {
		v.src[0] = gcn3Src(in.Srcs[0], 2, isa.TypeU64, consts)
	}
	needDst := true
	switch in.Op {
	case gcn3.OpFlatLoadDwordx2, gcn3.OpDSReadB64:
		u.size = 8
		fallthrough
	case gcn3.OpFlatLoadDword, gcn3.OpDSReadB32:
		u.step = (*GCN3Engine).stepFlatLoad
		if lds {
			u.step = (*GCN3Engine).stepDSRead
		}
	case gcn3.OpFlatStoreDwordx2, gcn3.OpDSWriteB64:
		u.size = 8
		fallthrough
	case gcn3.OpFlatStoreDword, gcn3.OpDSWriteB32:
		needDst = false
		v.src[1] = gcn3Src(in.Srcs[1], int(u.size)/4, isa.TypeB64, consts)
		u.step = (*GCN3Engine).stepFlatStore
		if lds {
			u.step = (*GCN3Engine).stepDSWrite
		}
	case gcn3.OpFlatAtomicAdd, gcn3.OpDSAddU32:
		v.src[1] = gcn3Src(in.Srcs[1], 1, isa.TypeU32, consts)
		u.step = (*GCN3Engine).stepFlatAtomicAdd
		if lds {
			u.step = (*GCN3Engine).stepDSAdd
		}
	}
	if needDst {
		if in.Dst.Kind != gcn3.OperVGPR {
			return fmt.Errorf("emu: unimplemented %s destination", in.Op)
		}
		v.dst, v.dstW = in.Dst.Index, u.size/4
	}
	return nil
}

// Execute commits the instruction at w.PC: index, micro-op, step.
func (e *GCN3Engine) Execute(w *Wave) (ExecResult, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return ExecResult{}, err
	}
	u := &e.uops[idx]
	if u.err != nil {
		return ExecResult{}, u.err
	}
	// The result is built in the engine's scratch: a local handed to an
	// indirect call would escape to the heap on every instruction.
	res := &e.scratch.res
	*res = ExecResult{ActiveLanes: w.Exec.PopCount()}
	e.Col.TickReuse(w)
	w.PC = u.seqPC
	u.step(e, w, u, res)
	e.Col.OnCommit(u.cat, res.ActiveLanes)
	return *res, nil
}

func (e *GCN3Engine) stepNop(w *Wave, u *gcn3Uop, res *ExecResult) {}

func (e *GCN3Engine) stepBarrier(w *Wave, u *gcn3Uop, res *ExecResult) { res.IsBarrier = true }

func (e *GCN3Engine) stepEndpgm(w *Wave, u *gcn3Uop, res *ExecResult) {
	w.PC = u.pc
	w.Done = true
	res.IsEndPgm = true
}

func (e *GCN3Engine) stepVec(w *Wave, u *gcn3Uop, res *ExecResult) {
	e.scratch.run(&u.vec, w, w.VGPR, e.Col)
}

func (e *GCN3Engine) stepSMov(w *Wave, u *gcn3Uop, res *ExecResult) {
	writeScalar(w, u.in.Dst, u.width, readScalar(w, u.in.Srcs[0], u.width))
}

func (e *GCN3Engine) stepSNot(w *Wave, u *gcn3Uop, res *ExecResult) {
	v := ^readScalar(w, u.in.Srcs[0], u.width)
	if u.width == 1 {
		v = uint64(uint32(v))
	}
	writeScalar(w, u.in.Dst, u.width, v)
	w.SCC = v != 0
}

func (e *GCN3Engine) stepSaveexec(w *Wave, u *gcn3Uop, res *ExecResult) {
	old := uint64(w.Exec)
	src := readScalar(w, u.in.Srcs[0], 2)
	writeScalar(w, u.in.Dst, 2, old)
	if u.in.Op == gcn3.OpSAndSaveexec {
		w.Exec = isa.ExecMask(old & src)
	} else {
		w.Exec = isa.ExecMask(old | src)
	}
	w.SCC = w.Exec != 0
}

// stepSALU executes the two-source scalar ALU instructions through the
// scalar semantics of alu.go.
func (e *GCN3Engine) stepSALU(w *Wave, u *gcn3Uop, res *ExecResult) {
	a := readScalar(w, u.in.Srcs[0], u.width)
	b := readScalar(w, u.in.Srcs[1], u.width)
	v := binOp(u.kind, u.t, a, b)
	switch u.scc {
	case sccNonZero:
		w.SCC = v != 0
	case sccCarry:
		w.SCC = uint64(uint32(a))+uint64(uint32(b)) > 0xFFFFFFFF
	case sccBorrow:
		w.SCC = uint32(b) > uint32(a)
	}
	writeScalar(w, u.in.Dst, u.width, v)
}

func (e *GCN3Engine) stepSAndN2(w *Wave, u *gcn3Uop, res *ExecResult) {
	width := u.width
	if width == 0 {
		width = 1
	}
	v := readScalar(w, u.in.Srcs[0], width) &^ readScalar(w, u.in.Srcs[1], width)
	w.SCC = v != 0
	writeScalar(w, u.in.Dst, width, v)
}

func (e *GCN3Engine) stepSAddc(w *Wave, u *gcn3Uop, res *ExecResult) {
	a := readScalar(w, u.in.Srcs[0], 1)
	b := readScalar(w, u.in.Srcs[1], 1)
	cin := uint64(0)
	if w.SCC {
		cin = 1
	}
	sum := uint64(uint32(a)) + uint64(uint32(b)) + cin
	writeScalar(w, u.in.Dst, 1, uint64(uint32(sum)))
	w.SCC = sum > 0xFFFFFFFF
}

func (e *GCN3Engine) stepSBfe(w *Wave, u *gcn3Uop, res *ExecResult) {
	a := readScalar(w, u.in.Srcs[0], 1)
	spec := readScalar(w, u.in.Srcs[1], 1)
	off := spec & 0x1F
	width := spec >> 16 & 0x7F
	v := uint64(0)
	if width > 0 {
		v = a >> off & (1<<width - 1)
	}
	writeScalar(w, u.in.Dst, 1, v)
	w.SCC = v != 0
}

func (e *GCN3Engine) stepSCmp(w *Wave, u *gcn3Uop, res *ExecResult) {
	a := readScalar(w, u.in.Srcs[0], 1)
	b := readScalar(w, u.in.Srcs[1], 1)
	w.SCC = compare(u.in.Cmp, u.in.Type, a, b)
}

func (e *GCN3Engine) stepBranch(w *Wave, u *gcn3Uop, res *ExecResult) {
	taken := false
	switch u.in.Op {
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
		w.PC = u.target
		res.Redirected = u.target != u.seqPC
	}
}

func (e *GCN3Engine) stepSLoad(w *Wave, u *gcn3Uop, res *ExecResult) {
	in := u.in
	addr := readScalar(w, in.Srcs[0], 2) + uint64(in.Offset)
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
}

// addresses reads the address operand (a 64-bit flat address or a 32-bit
// LDS byte address) into the lane scratch for the active lanes. It begins
// the instruction's walk.
func (e *GCN3Engine) addresses(w *Wave, u *gcn3Uop) *vrfWalk {
	walk := e.scratch.walk(e.Col, w)
	a := e.scratch.operand(0, &u.vec.src[0], w, w.VGPR, walk)
	addrs := &e.scratch.addrs
	for m := uint64(w.Exec); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m) & 63
		addrs[lane] = uint64(a.lo[lane]) | uint64(a.hi[lane])<<32
	}
	return walk
}

// flatResult reports a FLAT access's coalesced line requests.
func (e *GCN3Engine) flatResult(w *Wave, u *gcn3Uop, res *ExecResult) {
	res.MemKind = MemGlobal
	w.linesBuf = mem.CoalesceInto(w.linesBuf[:0], &e.scratch.addrs, int(u.size), w.Exec)
	res.Lines = w.linesBuf
}

func (e *GCN3Engine) stepFlatLoad(w *Wave, u *gcn3Uop, res *ExecResult) {
	walk := e.addresses(w, u)
	dst := dstPair(w.VGPR, u.vec.dst, u.vec.dstW)
	e.Ctx.Mem.LoadLanes(&e.scratch.addrs, w.Exec, int(u.size), dst.lo, dst.hi)
	walk.finish(dst, u.vec.dst, u.vec.dstW)
	e.flatResult(w, u, res)
}

func (e *GCN3Engine) stepFlatStore(w *Wave, u *gcn3Uop, res *ExecResult) {
	walk := e.addresses(w, u)
	data := e.scratch.operand(1, &u.vec.src[1], w, w.VGPR, walk)
	e.Ctx.Mem.StoreLanes(&e.scratch.addrs, w.Exec, int(u.size), data.lo, data.hi)
	walk.finish(lanePair{}, 0, 0)
	res.MemWrite = true
	e.flatResult(w, u, res)
}

func (e *GCN3Engine) stepFlatAtomicAdd(w *Wave, u *gcn3Uop, res *ExecResult) {
	walk := e.addresses(w, u)
	data := e.scratch.operand(1, &u.vec.src[1], w, w.VGPR, walk)
	dst := dstPair(w.VGPR, u.vec.dst, 1)
	e.Ctx.Mem.AtomicAddLanes(&e.scratch.addrs, w.Exec, data.lo, dst.lo)
	walk.finish(dst, u.vec.dst, 1)
	res.MemWrite = true
	e.flatResult(w, u, res)
}

// dsAddresses is addresses for DS instructions, which also report bank
// conflicts (on the register address, before the immediate offset).
func (e *GCN3Engine) dsAddresses(w *Wave, u *gcn3Uop, res *ExecResult) *vrfWalk {
	walk := e.addresses(w, u)
	res.LDSBankConflicts = ldsBankConflicts(&e.scratch.addrs, w.Exec)
	res.MemKind = MemLDS
	return walk
}

func (e *GCN3Engine) stepDSRead(w *Wave, u *gcn3Uop, res *ExecResult) {
	walk := e.dsAddresses(w, u, res)
	dst := dstPair(w.VGPR, u.vec.dst, u.vec.dstW)
	ldsLoadLanes(w.WG.LDS, &e.scratch.addrs, u.off, w.Exec, int(u.size), dst)
	walk.finish(dst, u.vec.dst, u.vec.dstW)
}

func (e *GCN3Engine) stepDSWrite(w *Wave, u *gcn3Uop, res *ExecResult) {
	walk := e.dsAddresses(w, u, res)
	data := e.scratch.operand(1, &u.vec.src[1], w, w.VGPR, walk)
	ldsStoreLanes(w.WG.LDS, &e.scratch.addrs, u.off, w.Exec, int(u.size), data)
	walk.finish(lanePair{}, 0, 0)
	res.MemWrite = true
}

func (e *GCN3Engine) stepDSAdd(w *Wave, u *gcn3Uop, res *ExecResult) {
	walk := e.dsAddresses(w, u, res)
	data := e.scratch.operand(1, &u.vec.src[1], w, w.VGPR, walk)
	dst := dstPair(w.VGPR, u.vec.dst, 1)
	ldsAddLanes(w.WG.LDS, &e.scratch.addrs, u.off, w.Exec, data.lo, dst.lo)
	walk.finish(dst, u.vec.dst, 1)
	res.MemWrite = true
}
