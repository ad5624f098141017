package emu

import (
	"fmt"
	"math/bits"

	"ilsim/internal/hsa"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// HSAILEngine executes HSAIL kernels the way IL-level simulators do:
// one SIMT instruction at a time per wavefront, with control-flow divergence
// managed by a simulator reconvergence stack using immediate post-dominator
// reconvergence points, a simulator-defined ABI (geometry and kernarg state
// serviced from dispatch structures rather than registers/memory), and every
// operand residing in the virtual vector register file.
//
// An engine is a kernel loaded at a base address, not a dispatch: a dispatch
// reaches the engine through its waves (Wave.WG), so one engine serves every
// launch of its kernel.
type HSAILEngine struct {
	Ctx *hsa.Context
	K   *hsail.Kernel
	CFG *kernel.CFG
	Col *Collector
	// Waves, when set, recycles finished waves' storage (see WavePool).
	Waves *WavePool

	// Base is the simulated-memory address where the decoded kernel's
	// fixed 8-byte instruction handles live.
	Base uint64

	flat       []hsail.Inst
	blockStart []int
	instBlock  []int
	// infos is the per-PC decode cache: scheduling metadata is static per
	// instruction, so Peek is a table lookup on the hot path.
	infos []InstInfo

	// uops is the decode-once form of flat: one micro-op per instruction,
	// lowered at load and immutable afterwards, as are the pre-broadcast
	// constants it points to.
	uops []hsailUop

	// scratch is Execute's working state.
	scratch laneUnit
}

// NewHSAILEngine loads a kernel. base is the code address the loader
// assigned (each instruction occupies hsail.InstBytes there).
func NewHSAILEngine(ctx *hsa.Context, k *hsail.Kernel, cfg *kernel.CFG, base uint64, col *Collector) *HSAILEngine {
	e := &HSAILEngine{Ctx: ctx, K: k, CFG: cfg, Col: col, Base: base}
	for _, b := range k.Blocks {
		e.blockStart = append(e.blockStart, len(e.flat))
		for _, in := range b.Insts {
			e.flat = append(e.flat, in)
			e.instBlock = append(e.instBlock, b.ID)
		}
	}
	e.infos = make([]InstInfo, len(e.flat))
	e.uops = make([]hsailUop, len(e.flat))
	consts := constPool{}
	for i := range e.infos {
		e.infos[i] = e.decodeInfo(i)
		e.uops[i] = e.lower(i, consts)
	}
	return e
}

// Abstraction identifies the engine.
func (e *HSAILEngine) Abstraction() string { return "HSAIL" }

// LDSBytes returns the workgroup LDS demand.
func (e *HSAILEngine) LDSBytes() int { return e.K.GroupSize }

// RegDemand returns the register demand: all registers are vector slots.
func (e *HSAILEngine) RegDemand() (int, int) { return e.K.NumRegSlots, 0 }

func (e *HSAILEngine) pcOf(idx int) uint64 { return e.Base + uint64(idx)*hsail.InstBytes }

func (e *HSAILEngine) idxOf(pc uint64) (int, error) {
	if pc < e.Base || (pc-e.Base)%hsail.InstBytes != 0 {
		return 0, fmt.Errorf("emu: bad HSAIL PC %#x", pc)
	}
	idx := int((pc - e.Base) / hsail.InstBytes)
	if idx >= len(e.flat) {
		return 0, fmt.Errorf("emu: HSAIL PC %#x past end of kernel", pc)
	}
	return idx, nil
}

// InstString disassembles the instruction at pc.
func (e *HSAILEngine) InstString(pc uint64) string {
	idx, err := e.idxOf(pc)
	if err != nil {
		return err.Error()
	}
	return e.flat[idx].String()
}

// NewWave initializes wavefront state: the simulator-defined ABI needs no
// register initialization at all — dispatch state is serviced directly.
func (e *HSAILEngine) NewWave(wg *WGState, waveID int) *Wave {
	first := waveID * isa.WavefrontSize
	lanes := wg.Info.Size - first
	if lanes > isa.WavefrontSize {
		lanes = isa.WavefrontSize
	}
	w, rows := e.Waves.get()
	w.WG, w.WaveID, w.FirstWI, w.NumLanes = wg, waveID, first, lanes
	w.PC = e.Base
	w.Exec = isa.FullMask(lanes)
	w.VRegs = zeroed(rows, e.K.NumRegSlots)
	w.CRegs = zeroed(w.CRegs, e.K.NumCRegs)
	if e.Col != nil && e.Col.TrackReuse {
		w.Reuse = stats.NewReuseTracker(e.K.NumRegSlots)
	}
	return w
}

// FreeWave hands a finished wave to the engine's pool.
func (e *HSAILEngine) FreeWave(w *Wave) { e.Waves.put(w) }

// Peek returns the decode-cache entry for the instruction at w.PC.
func (e *HSAILEngine) Peek(w *Wave) (*InstInfo, error) {
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
func (e *HSAILEngine) decodeInfo(idx int) InstInfo {
	in := &e.flat[idx]
	info := InstInfo{
		SizeBytes: hsail.InstBytes,
		Category:  in.Category(),
	}
	in.Operands(func(o *hsail.Operand, t isa.DataType, def bool) {
		switch {
		case o.Kind != hsail.OperReg:
		case def:
			info.VRFWrites.Add(int(o.Reg), t.Regs())
		default:
			info.VRFReads.Add(int(o.Reg), t.Regs())
		}
	})
	switch in.Op {
	case hsail.OpDiv, hsail.OpRem, hsail.OpSqrt, hsail.OpRsqrt:
		info.LatClass = LatTrans
	case hsail.OpLd, hsail.OpSt, hsail.OpAtomicAdd:
		switch in.Seg {
		case hsail.SegGroup:
			info.LatClass = LatLDS
			info.IsLGKM = true
		case hsail.SegKernarg:
			// Serviced from simulator dispatch state (no memory access).
			info.LatClass = LatALU
		default:
			info.LatClass = LatMem
			info.IsVMem = true
		}
	case hsail.OpBr, hsail.OpCBr:
		info.LatClass = LatBranch
	case hsail.OpBarrier:
		info.LatClass = LatNop
	case hsail.OpRet:
		info.LatClass = LatNop
	case hsail.OpNop:
		info.LatClass = LatNop
	default:
		if in.Type.Regs() == 2 {
			info.LatClass = LatALU64
		} else {
			info.LatClass = LatALU
		}
	}
	info.WaitVM, info.WaitLGKM = -1, -1
	return info
}

// hsailUop is one HSAIL instruction lowered for execution: the step that
// runs it and every operand, constant and address it needs, resolved once.
type hsailUop struct {
	step func(e *HSAILEngine, w *Wave, u *hsailUop, res *ExecResult)
	// err, when set, is what Peek and Execute report at this PC: the
	// instruction has no defined execution.
	err   error
	pc    uint64
	seqPC uint64
	cat   isa.Category

	// vec is the kernel call of an ALU instruction. Memory instructions
	// reuse its operand slots: src[0] is the address base register (when
	// hasBase), src[1] the store or atomic data, dst the loaded value.
	vec vecOp

	// Memory instructions and lda.
	seg     hsail.Segment
	size    uint8 // access bytes
	hasBase bool
	disp    uint64 // constant address part: kernarg symbol offset + immediate

	// Geometry queries.
	geom hsail.Op
	dim  uint8

	// Branches: taken PC, the branch's own block, the condition register.
	target uint64
	block  int
	creg   uint16
}

// constPool dedupes the constants pre-broadcast while lowering one kernel.
type constPool map[uint64]*constLanes

func (p constPool) get(v uint64) *constLanes {
	c := p[v]
	if c == nil {
		c = newConstLanes(v)
		p[v] = c
	}
	return c
}

// hsailLaneOps maps the ALU opcodes whose lowering is "look the kernel up by
// (operation, Inst.Type)". cvt, cmp and cmov have their own tables or
// operand shapes and are lowered by name.
var hsailLaneOps = [hsail.NumOps]laneOp{
	hsail.OpMov: opMov,
	hsail.OpAdd: opAdd, hsail.OpSub: opSub, hsail.OpMul: opMul, hsail.OpMulHi: opMulHi,
	hsail.OpMad: opFma, hsail.OpFma: opFma, hsail.OpDiv: opDiv, hsail.OpRem: opRem,
	hsail.OpMin: opMin, hsail.OpMax: opMax, hsail.OpAbs: opAbs, hsail.OpNeg: opNeg,
	hsail.OpSqrt: opSqrt, hsail.OpRsqrt: opRsqrt,
	hsail.OpAnd: opAnd, hsail.OpOr: opOr, hsail.OpXor: opXor, hsail.OpNot: opNot,
	hsail.OpShl: opShl, hsail.OpShr: opShr,
}

// lower builds the micro-op of instruction idx.
func (e *HSAILEngine) lower(idx int, consts constPool) hsailUop {
	in := &e.flat[idx]
	u := hsailUop{pc: e.pcOf(idx), seqPC: e.pcOf(idx + 1), cat: in.Category()}
	switch in.Op {
	case hsail.OpNop:
		u.step = (*HSAILEngine).stepNop
	case hsail.OpBarrier:
		u.step = (*HSAILEngine).stepBarrier
	case hsail.OpRet:
		u.step = (*HSAILEngine).stepRet
	case hsail.OpBr, hsail.OpCBr:
		if int(in.Target) < 0 || int(in.Target) >= len(e.blockStart) {
			u.err = fmt.Errorf("emu: %s to undefined block %d", in.Op, in.Target)
			break
		}
		u.step = (*HSAILEngine).stepBr
		u.target = e.pcOf(e.blockStart[in.Target])
		if in.Op == hsail.OpCBr {
			u.step = (*HSAILEngine).stepCBr
			u.block = e.instBlock[idx]
			u.creg = in.Srcs[0].Reg
		}
	case hsail.OpWorkItemAbsId, hsail.OpWorkItemId, hsail.OpWorkGroupId,
		hsail.OpWorkGroupSize, hsail.OpGridSize:
		u.step = (*HSAILEngine).stepGeometry
		u.geom, u.dim = in.Op, uint8(in.Dim)
		u.err = u.vec.setDst(in, in.Type, 1)
	case hsail.OpLd, hsail.OpSt, hsail.OpAtomicAdd, hsail.OpLda:
		u.err = e.lowerMemory(&u, in, consts)
	default:
		u.step = (*HSAILEngine).stepVec
		u.err = lowerHSAILVec(&u.vec, in, consts)
	}
	return u
}

// hsailSrc lowers a source operand read as type t.
func hsailSrc(o hsail.Operand, t isa.DataType, consts constPool) (vsrc, error) {
	wide := t.Regs() == 2
	switch o.Kind {
	case hsail.OperReg:
		return vsrc{kind: srcReg, wide: wide, slot: o.Reg}, nil
	case hsail.OperImm:
		return vsrc{kind: srcConst, wide: wide, k: consts.get(o.Imm)}, nil
	}
	return vsrc{}, fmt.Errorf("emu: unimplemented source operand kind %d", o.Kind)
}

// setDst names in.Dst as the destination of a result of type t, which must
// be width slots wide (0: whatever t says).
func (v *vecOp) setDst(in *hsail.Inst, t isa.DataType, width int) error {
	if in.Dst.Kind != hsail.OperReg || t.Regs() == 0 || (width != 0 && t.Regs() != width) {
		return fmt.Errorf("emu: unimplemented %s %s destination", in.Op, t)
	}
	v.dst, v.dstW = in.Dst.Reg, uint8(t.Regs())
	return nil
}

// lowerHSAILVec lowers an ALU instruction to a kernel call.
func lowerHSAILVec(v *vecOp, in *hsail.Inst, consts constPool) error {
	srcT := in.ReadType()
	srcs := in.SrcSlice()
	switch in.Op {
	case hsail.OpCvt:
		v.kern = cvtKernelFor(in.Type, in.SrcType)
	case hsail.OpCmp:
		// cmp writes a control register, merged under the mask.
		v.kern = cmpKernelFor(in.Cmp, in.SrcType)
		if in.Dst.Kind != hsail.OperCReg {
			v.kern = nil
		}
		v.maskOut = maskRef{kind: maskCReg, creg: in.Dst.Reg}
	case hsail.OpCmov:
		// cmov selects on a control register: dst = c ? src1 : src2.
		v.kern = kernelFor(opSel, in.Type)
		if len(srcs) != 3 || srcs[0].Kind != hsail.OperCReg {
			return fmt.Errorf("emu: unimplemented %s condition operand", in.Op)
		}
		v.maskIn = maskRef{kind: maskCReg, creg: srcs[0].Reg}
		srcs = srcs[1:]
	default:
		if int(in.Op) < len(hsailLaneOps) && hsailLaneOps[in.Op] != opNone {
			v.kern = kernelFor(hsailLaneOps[in.Op], in.Type)
		}
	}
	if v.kern == nil {
		if in.Op == hsail.OpCvt || in.Op == hsail.OpCmp {
			return fmt.Errorf("emu: unimplemented %s %s from %s", in.Op, in.Type, in.SrcType)
		}
		return fmt.Errorf("emu: unimplemented %s %s", in.Op, in.Type)
	}
	for i, s := range srcs {
		var err error
		if v.src[i], err = hsailSrc(s, srcT, consts); err != nil {
			return err
		}
	}
	v.nsrc = uint8(len(srcs))
	if in.Op == hsail.OpCmp {
		return nil
	}
	return v.setDst(in, in.Type, 0)
}

// lowerMemory lowers ld, st, atomic_add and lda: the address expression
// (segment base, optional 64-bit base register, constant displacement) and
// the data operand.
func (e *HSAILEngine) lowerMemory(u *hsailUop, in *hsail.Inst, consts constPool) error {
	t := in.Type
	u.seg = in.Seg
	u.disp = uint64(int64(in.Addr.Offset))
	switch in.Addr.Base.Kind {
	case hsail.OperReg:
		u.hasBase = true
		u.vec.src[0] = vsrc{kind: srcReg, wide: true, slot: in.Addr.Base.Reg}
	case hsail.OperArgSym:
		if int(in.Addr.Base.Reg) >= len(e.K.Args) {
			return fmt.Errorf("emu: %s of undeclared argument %%arg%d", in.Op, in.Addr.Base.Reg)
		}
		u.disp += uint64(e.K.Args[in.Addr.Base.Reg].Offset)
	}
	if in.Op == hsail.OpLda {
		u.step = (*HSAILEngine).stepLda
		return u.vec.setDst(in, isa.TypeU64, 2)
	}
	u.size = uint8(t.Regs() * 4)
	if u.size == 0 || (in.Op == hsail.OpAtomicAdd && u.size != 4) {
		return fmt.Errorf("emu: unimplemented %s %s", in.Op, t)
	}
	if in.Op != hsail.OpLd {
		var err error
		if u.vec.src[1], err = hsailSrc(in.Srcs[0], t, consts); err != nil {
			return err
		}
	}
	switch in.Op {
	case hsail.OpLd:
		u.step = (*HSAILEngine).stepLoad
	case hsail.OpSt:
		u.step = (*HSAILEngine).stepStore
		return nil
	case hsail.OpAtomicAdd:
		u.step = (*HSAILEngine).stepAtomicAdd
	}
	return u.vec.setDst(in, t, 0)
}

// laneAbsFlatID returns the absolute flat work-item ID for a lane.
func (w *Wave) laneAbsFlatID(lane int) uint64 {
	return w.WG.Info.FirstAbsFlatID + uint64(w.FirstWI+lane)
}

// Execute commits the instruction at w.PC: index, micro-op, step, then the
// reconvergence stack.
func (e *HSAILEngine) Execute(w *Wave) (ExecResult, error) {
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
	if len(w.RS) != 0 && !w.Done {
		e.rsArrival(w, res)
	}
	e.Col.OnCommit(u.cat, res.ActiveLanes)
	return *res, nil
}

func (e *HSAILEngine) stepNop(w *Wave, u *hsailUop, res *ExecResult) {}

func (e *HSAILEngine) stepBarrier(w *Wave, u *hsailUop, res *ExecResult) { res.IsBarrier = true }

func (e *HSAILEngine) stepRet(w *Wave, u *hsailUop, res *ExecResult) {
	w.PC = u.pc
	w.Done = true
	res.IsEndPgm = true
}

func (e *HSAILEngine) stepVec(w *Wave, u *hsailUop, res *ExecResult) {
	e.scratch.run(&u.vec, w, w.VRegs, e.Col)
}

// stepGeometry services the dispatch-geometry query ops from simulator state
// — the "simulator-defined ABI" of IL execution (paper §III.A.1).
func (e *HSAILEngine) stepGeometry(w *Wave, u *hsailUop, res *ExecResult) {
	d := w.WG.Dispatch
	p := d.Packet
	dim := int(u.dim)
	dst := dstPair(w.VRegs, u.vec.dst, 1)
	for m := uint64(w.Exec); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m) & 63
		wiFlat := w.FirstWI + lane
		switch u.geom {
		case hsail.OpWorkItemAbsId:
			dst.lo[lane] = d.AbsID(w.WG.Info, wiFlat)[dim]
		case hsail.OpWorkItemId:
			dst.lo[lane] = d.LocalID(wiFlat)[dim]
		case hsail.OpWorkGroupId:
			dst.lo[lane] = w.WG.Info.ID[dim]
		case hsail.OpWorkGroupSize:
			dst.lo[lane] = uint32(p.WorkgroupSize[dim])
		case hsail.OpGridSize:
			dst.lo[lane] = p.GridSize[dim]
		}
	}
	walk := e.scratch.walk(e.Col, w)
	walk.finish(dst, u.vec.dst, 1)
}

// addresses computes the active lanes' addresses of a memory instruction
// into the lane scratch: the segment's implicit base — state the IL never
// sees in registers — plus the base register, plus the displacement.
func (e *HSAILEngine) addresses(w *Wave, u *hsailUop, base lanePair) {
	d := w.WG.Dispatch
	c := u.disp
	var stride uint64 // per-work-item segments: bytes between consecutive lanes
	switch u.seg {
	case hsail.SegKernarg:
		c += d.Packet.KernargAddress
	case hsail.SegPrivate:
		stride = uint64(d.PrivateStride)
		c += d.PrivateBase + w.laneAbsFlatID(0)*stride
	case hsail.SegSpill:
		stride = uint64(d.SpillStride)
		c += d.SpillBase + w.laneAbsFlatID(0)*stride
	}
	addrs := &e.scratch.addrs
	for m := uint64(w.Exec); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m) & 63
		a := c + uint64(lane)*stride
		if base.lo != nil {
			a += uint64(base.lo[lane]) | uint64(base.hi[lane])<<32
		}
		addrs[lane] = a
	}
}

// memAddresses is addresses for ld/st/atomic, whose base register read is a
// VRF access: it begins the instruction's walk.
func (e *HSAILEngine) memAddresses(w *Wave, u *hsailUop) *vrfWalk {
	walk := e.scratch.walk(e.Col, w)
	var base lanePair
	if u.hasBase {
		base = e.scratch.operand(0, &u.vec.src[0], w, w.VRegs, walk)
	}
	e.addresses(w, u, base)
	return walk
}

// stepLda materializes a segment address into a register pair.
func (e *HSAILEngine) stepLda(w *Wave, u *hsailUop, res *ExecResult) {
	walk := e.scratch.walk(e.Col, w)
	var base lanePair
	if u.hasBase {
		base = srcPair(w.VRegs, u.vec.src[0].slot, true)
	}
	e.addresses(w, u, base)
	if u.hasBase {
		// The base register counts towards reuse distance but is not a
		// value-sampled read.
		e.Col.OnVRFSlot(w, int(u.vec.src[0].slot))
		e.Col.OnVRFSlot(w, int(u.vec.src[0].slot)+1)
	}
	dst := dstPair(w.VRegs, u.vec.dst, 2)
	addrs := &e.scratch.addrs
	for m := uint64(w.Exec); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m) & 63
		dst.lo[lane], dst.hi[lane] = uint32(addrs[lane]), uint32(addrs[lane]>>32)
	}
	walk.finish(dst, u.vec.dst, 2)
}

func (e *HSAILEngine) stepLoad(w *Wave, u *hsailUop, res *ExecResult) {
	walk := e.memAddresses(w, u)
	dst := dstPair(w.VRegs, u.vec.dst, u.vec.dstW)
	if u.seg == hsail.SegGroup {
		ldsLoadLanes(w.WG.LDS, &e.scratch.addrs, 0, w.Exec, int(u.size), dst)
	} else {
		e.Ctx.Mem.LoadLanes(&e.scratch.addrs, w.Exec, int(u.size), dst.lo, dst.hi)
	}
	walk.finish(dst, u.vec.dst, u.vec.dstW)
	e.memResult(w, u, res)
}

func (e *HSAILEngine) stepStore(w *Wave, u *hsailUop, res *ExecResult) {
	walk := e.memAddresses(w, u)
	data := e.scratch.operand(1, &u.vec.src[1], w, w.VRegs, walk)
	if u.seg == hsail.SegGroup {
		ldsStoreLanes(w.WG.LDS, &e.scratch.addrs, 0, w.Exec, int(u.size), data)
	} else {
		e.Ctx.Mem.StoreLanes(&e.scratch.addrs, w.Exec, int(u.size), data.lo, data.hi)
	}
	walk.finish(lanePair{}, 0, 0)
	res.MemWrite = true
	e.memResult(w, u, res)
}

func (e *HSAILEngine) stepAtomicAdd(w *Wave, u *hsailUop, res *ExecResult) {
	walk := e.memAddresses(w, u)
	data := e.scratch.operand(1, &u.vec.src[1], w, w.VRegs, walk)
	dst := dstPair(w.VRegs, u.vec.dst, 1)
	if u.seg == hsail.SegGroup {
		ldsAddLanes(w.WG.LDS, &e.scratch.addrs, 0, w.Exec, data.lo, dst.lo)
	} else {
		e.Ctx.Mem.AtomicAddLanes(&e.scratch.addrs, w.Exec, data.lo, dst.lo)
	}
	walk.finish(dst, u.vec.dst, 1)
	res.MemWrite = true
	e.memResult(w, u, res)
}

// memResult reports the access to the timing model: LDS bank conflicts, or
// the coalesced line requests of a global access.
func (e *HSAILEngine) memResult(w *Wave, u *hsailUop, res *ExecResult) {
	switch u.seg {
	case hsail.SegGroup:
		res.MemKind = MemLDS
		res.LDSBankConflicts = ldsBankConflicts(&e.scratch.addrs, w.Exec)
	case hsail.SegKernarg:
		// Kernarg loads are serviced from the emulated runtime's own
		// state: under HSAIL they never reach the memory system.
		res.MemKind = MemNone
	default:
		res.MemKind = MemGlobal
		w.linesBuf = mem.CoalesceInto(w.linesBuf[:0], &e.scratch.addrs, int(u.size), w.Exec)
		res.Lines = w.linesBuf
	}
}

func (e *HSAILEngine) stepBr(w *Wave, u *hsailUop, res *ExecResult) {
	w.PC = u.target
	res.Redirected = u.target != u.seqPC
}

// stepCBr implements the reconvergence-stack discipline of IL simulation
// (paper §III.C.1 and Figure 3b).
func (e *HSAILEngine) stepCBr(w *Wave, u *hsailUop, res *ExecResult) {
	seqPC, targetPC := u.seqPC, u.target
	taken := isa.ExecMask(w.CRegs[u.creg]) & w.Exec
	fall := w.Exec &^ taken

	switch {
	case taken == w.Exec: // uniformly taken
		w.PC = targetPC
		res.Redirected = targetPC != seqPC
	case taken == 0: // uniformly not taken
	default: // divergent
		rpcBlock := e.CFG.IPDom[u.block]
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
}

// ensureRestore pushes a restore entry for rpc unless one already exists
// anywhere on the stack: lanes branching to an rpc that an enclosing
// construct will restore simply wait there (the paper's Figure 3 step 2 —
// "the RS detects that the branch in BB2 goes to the RPC").
func (e *HSAILEngine) ensureRestore(w *Wave, rpc uint64) {
	for i := len(w.RS) - 1; i >= 0; i-- {
		if w.RS[i].RPC == rpc && w.RS[i].PC == rpc {
			return
		}
	}
	w.RS = append(w.RS, RSEntry{RPC: rpc, PC: rpc, Mask: w.Exec})
}

// rsArrival pops reconvergence-stack entries whose RPC the wavefront has
// reached. Every pop redirects the front end — the simulator-initiated jumps
// that flush the instruction buffer (paper §III.C.1).
func (e *HSAILEngine) rsArrival(w *Wave, res *ExecResult) {
	for n := len(w.RS); n > 0 && w.PC == w.RS[n-1].RPC; n = len(w.RS) {
		entry := w.RS[n-1]
		w.RS = w.RS[:n-1]
		w.Exec = entry.Mask
		w.PC = entry.PC
		res.Redirected = true
	}
}
