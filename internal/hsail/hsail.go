// Package hsail defines the HSAIL-like intermediate language under study.
//
// The IL mirrors the properties of the HSA foundation's HSAIL virtual ISA
// that the paper identifies as consequential for simulation fidelity:
//
//   - It is a SIMT ISA: every instruction defines the semantics of a single
//     work-item, and the execution mask is NOT architecturally visible.
//   - It is register-allocated against a flat virtual vector register file of
//     up to 2,048 32-bit registers per wavefront, with no scalar registers.
//   - It has no ABI: kernel arguments are referenced through abstract symbols
//     (%arg0, %arg1, ...) and special memory segments (kernarg, private,
//     spill, group) imply base addresses that a simulator must materialize
//     from functional state invisible to the IL.
//   - Complex operations (work-item ID queries, floating-point division) are
//     single instructions; the finalizer (package finalizer) expands them.
//   - Kernels are shipped in a verbose BRIG-like container (brig.go) designed
//     for compiler consumption, not hardware fetch; when loaded for timing
//     simulation each instruction is approximated as a fixed 8-byte handle in
//     simulated memory, exactly as gem5's HSAIL model does (paper §III.C.3).
package hsail

import (
	"fmt"

	"ilsim/internal/isa"
)

// InstBytes is the fixed per-instruction footprint used when HSAIL code is
// loaded into simulated memory. BRIG records are far larger (see brig.go) but
// are never fetched by hardware; gem5 approximates each loaded instruction as
// a 64-bit handle, and the paper's Figure 8 uses the same approximation.
const InstBytes = 8

// Segment is an HSA memory segment (paper §III.A.2).
type Segment uint8

// HSA memory segments.
const (
	SegFlat Segment = iota
	SegGlobal
	SegReadonly
	SegKernarg
	SegGroup
	SegArg
	SegPrivate
	SegSpill

	// NumSegments is the number of distinct segments.
	NumSegments = int(SegSpill) + 1
)

// String returns the HSAIL segment name.
func (s Segment) String() string {
	switch s {
	case SegFlat:
		return "flat"
	case SegGlobal:
		return "global"
	case SegReadonly:
		return "readonly"
	case SegKernarg:
		return "kernarg"
	case SegGroup:
		return "group"
	case SegArg:
		return "arg"
	case SegPrivate:
		return "private"
	case SegSpill:
		return "spill"
	}
	return fmt.Sprintf("Segment(%d)", uint8(s))
}

// IsWorkItemPrivate reports whether addresses in the segment are private to
// each work-item (private and spill segments).
func (s Segment) IsWorkItemPrivate() bool { return s == SegPrivate || s == SegSpill }

// Op is an HSAIL opcode.
type Op uint8

// HSAIL opcodes. ALU operations are typed by Inst.Type.
const (
	OpNop Op = iota

	// Data movement.
	OpMov // dst = src0
	OpCvt // dst = convert(src0) from SrcType to Type

	// Integer and floating-point arithmetic.
	OpAdd   // dst = src0 + src1
	OpSub   // dst = src0 - src1
	OpMul   // dst = src0 * src1
	OpMulHi // dst = high half of src0 * src1
	OpMad   // dst = src0 * src1 + src2
	OpDiv   // dst = src0 / src1 (single IL instruction; expands in GCN3)
	OpRem   // dst = src0 % src1
	OpMin   // dst = min(src0, src1)
	OpMax   // dst = max(src0, src1)
	OpAbs   // dst = |src0|
	OpNeg   // dst = -src0
	OpFma   // dst = fma(src0, src1, src2)
	OpSqrt  // dst = sqrt(src0)
	OpRsqrt // dst = 1/sqrt(src0)

	// Bitwise operations.
	OpAnd // dst = src0 & src1
	OpOr  // dst = src0 | src1
	OpXor // dst = src0 ^ src1
	OpNot // dst = ^src0
	OpShl // dst = src0 << src1
	OpShr // dst = src0 >> src1 (arithmetic if Type is signed)

	// Comparison and selection.
	OpCmp  // $c dst = src0 <Cmp> src1
	OpCmov // dst = $c src0 ? src1 : src2 (conditional move; no branch)

	// Memory. Address is Inst.Addr; Seg selects the segment.
	OpLd        // dst = mem[addr]
	OpSt        // mem[addr] = src0
	OpLda       // dst = address of segment location (materializes an address)
	OpAtomicAdd // dst = atomic fetch-add mem[addr] += src0

	// Control flow. Targets are basic-block IDs resolved by the kernel CFG.
	OpBr      // unconditional branch
	OpCBr     // branch if control register src0 is true
	OpRet     // end of kernel
	OpBarrier // workgroup barrier

	// Dispatch geometry queries. Single IL instructions; the GCN3 ABI
	// requires multi-instruction sequences (paper Table 1).
	OpWorkItemAbsId // dst = global work-item ID in Dim
	OpWorkItemId    // dst = work-item ID within workgroup in Dim
	OpWorkGroupId   // dst = workgroup ID in Dim
	OpWorkGroupSize // dst = workgroup size in Dim
	OpGridSize      // dst = grid size in Dim

	// NumOps is the number of defined opcodes.
	NumOps = int(OpGridSize) + 1
)

var opNames = [NumOps]string{
	OpNop: "nop", OpMov: "mov", OpCvt: "cvt",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpMulHi: "mulhi", OpMad: "mad",
	OpDiv: "div", OpRem: "rem", OpMin: "min", OpMax: "max", OpAbs: "abs",
	OpNeg: "neg", OpFma: "fma", OpSqrt: "sqrt", OpRsqrt: "rsqrt",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not", OpShl: "shl", OpShr: "shr",
	OpCmp: "cmp", OpCmov: "cmov",
	OpLd: "ld", OpSt: "st", OpLda: "lda", OpAtomicAdd: "atomic_add",
	OpBr: "br", OpCBr: "cbr", OpRet: "ret", OpBarrier: "barrier",
	OpWorkItemAbsId: "workitemabsid", OpWorkItemId: "workitemid",
	OpWorkGroupId: "workgroupid", OpWorkGroupSize: "workgroupsize",
	OpGridSize: "gridsize",
}

// String returns the HSAIL mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Category returns the execution-resource category of the opcode. All HSAIL
// ALU instructions are vector instructions (paper Figure 5 caption): HSAIL
// never produces CatSALU, CatSMem or CatWaitcnt.
func (op Op) Category() isa.Category {
	switch op {
	case OpLd, OpSt, OpAtomicAdd:
		return isa.CatVMem
	case OpBr, OpCBr:
		return isa.CatBranch
	case OpNop, OpBarrier, OpRet:
		return isa.CatMisc
	default:
		return isa.CatVALU
	}
}

// HasAddr reports whether the opcode carries an address operand (Inst.Addr):
// the memory accesses ld, st and atomic_add, and lda.
func (op Op) HasAddr() bool {
	return op == OpLd || op == OpSt || op == OpAtomicAdd || op == OpLda
}

// OperandKind distinguishes the ways an HSAIL operand can be expressed.
type OperandKind uint8

// Operand kinds.
const (
	// OperNone marks an absent operand.
	OperNone OperandKind = iota
	// OperReg is a virtual vector register (a 32-bit slot index; 64-bit
	// values occupy two consecutive slots).
	OperReg
	// OperImm is an inline constant.
	OperImm
	// OperCReg is a 1-bit control register produced by cmp and consumed by
	// cbr/cmov. Control registers do not occupy VRF slots.
	OperCReg
	// OperArgSym is an abstract kernel-argument symbol (%argN). It is the
	// HSAIL-specific addressing mode the paper highlights: no register
	// holds the address, the simulator resolves it from dispatch state.
	OperArgSym
)

// Operand is a single HSAIL operand.
type Operand struct {
	Kind OperandKind
	// Reg is the virtual register slot (OperReg), control register index
	// (OperCReg), or kernel-argument index (OperArgSym).
	Reg uint16
	// Imm is the immediate bit pattern (OperImm), interpreted per the
	// instruction's data type.
	Imm uint64
}

// Reg returns a virtual-register operand for slot r.
func Reg(r int) Operand { return Operand{Kind: OperReg, Reg: uint16(r)} }

// CReg returns a control-register operand.
func CReg(c int) Operand { return Operand{Kind: OperCReg, Reg: uint16(c)} }

// Imm returns an immediate operand with the given bit pattern.
func Imm(bits uint64) Operand { return Operand{Kind: OperImm, Imm: bits} }

// ArgSym returns an abstract kernel-argument symbol operand (%argN).
func ArgSym(n int) Operand { return Operand{Kind: OperArgSym, Reg: uint16(n)} }

// MemAddr is the address expression of a memory instruction: an optional
// register or argument-symbol base plus a byte offset. Segment-relative
// addressing (kernarg, private, spill, group) leaves the segment base
// implicit — under HSAIL the simulator supplies it, under GCN3 the finalizer
// must materialize it into registers (paper §III.A.2).
type MemAddr struct {
	Base   Operand
	Offset int32
}

// Inst is a single HSAIL instruction.
type Inst struct {
	Op      Op
	Type    isa.DataType // operand type
	SrcType isa.DataType // source type for cvt; source compare type for cmp
	Cmp     isa.CmpOp    // comparison operator for cmp
	Seg     Segment      // memory segment for ld/st/lda/atomic
	Dim     isa.Dim      // dimension for geometry queries
	Dst     Operand
	Srcs    [3]Operand
	NSrc    uint8
	Addr    MemAddr // for memory instructions
	Target  int32   // branch target basic-block ID for br/cbr
}

// SrcSlice returns the populated source operands.
func (in *Inst) SrcSlice() []Operand { return in.Srcs[:in.NSrc] }

// ReadType is the type the sources are read at: SrcType when it is set (cvt,
// cmp), the operation type otherwise.
func (in *Inst) ReadType() isa.DataType {
	if in.SrcType != isa.TypeNone {
		return in.SrcType
	}
	return in.Type
}

// Operands visits every operand of the instruction with the type it is
// accessed at and whether the instruction defines it: the destination
// first, then the sources, then the address base of an instruction that
// HasAddr. It is the one statement of which registers an instruction reads
// and writes, and of their widths; the visit includes absent, immediate,
// control-register and argument-symbol operands, which callers filter by
// Kind. lda writes a u64, cmov's first source is a control register, and
// an address base is a u64 register pair.
func (in *Inst) Operands(visit func(o *Operand, t isa.DataType, def bool)) {
	dt := in.Type
	if in.Op == OpLda {
		dt = isa.TypeU64
	}
	visit(&in.Dst, dt, true)
	st := in.ReadType()
	for i := range in.Srcs[:in.NSrc] {
		if in.Op == OpCmov && i == 0 {
			visit(&in.Srcs[i], isa.TypeNone, false)
			continue
		}
		visit(&in.Srcs[i], st, false)
	}
	if in.Op.HasAddr() {
		visit(&in.Addr.Base, isa.TypeU64, false)
	}
}

// Category returns the execution-resource category of the instruction.
func (in *Inst) Category() isa.Category { return in.Op.Category() }

// regString formats a register operand at the instruction's granularity.
func regString(o Operand, t isa.DataType) string {
	switch o.Kind {
	case OperReg:
		if t.Regs() == 2 {
			return fmt.Sprintf("$d[%d:%d]", o.Reg, o.Reg+1)
		}
		return fmt.Sprintf("$s%d", o.Reg)
	case OperCReg:
		return fmt.Sprintf("$c%d", o.Reg)
	case OperImm:
		if t.IsFloat() {
			return fmt.Sprintf("0f%x", o.Imm)
		}
		return fmt.Sprintf("%d", int64(o.Imm))
	case OperArgSym:
		return fmt.Sprintf("%%arg%d", o.Reg)
	}
	return "?"
}

// String renders the instruction in HSAIL-flavored assembly.
func (in *Inst) String() string {
	switch in.Op {
	case OpNop, OpRet, OpBarrier:
		return in.Op.String()
	case OpBr:
		return fmt.Sprintf("br @BB%d", in.Target)
	case OpCBr:
		return fmt.Sprintf("cbr %s, @BB%d", regString(in.Srcs[0], isa.TypeNone), in.Target)
	case OpLd, OpSt, OpAtomicAdd, OpLda:
		addr := ""
		switch in.Addr.Base.Kind {
		case OperArgSym:
			addr = fmt.Sprintf("[%%arg%d]", in.Addr.Base.Reg)
		case OperReg:
			if in.Addr.Offset != 0 {
				addr = fmt.Sprintf("[%s+%d]", regString(in.Addr.Base, isa.TypeU64), in.Addr.Offset)
			} else {
				addr = fmt.Sprintf("[%s]", regString(in.Addr.Base, isa.TypeU64))
			}
		default:
			addr = fmt.Sprintf("[%d]", in.Addr.Offset)
		}
		if in.Op == OpSt {
			return fmt.Sprintf("st_%s_%s %s, %s", in.Seg, in.Type, regString(in.Srcs[0], in.Type), addr)
		}
		if in.Op == OpAtomicAdd {
			return fmt.Sprintf("atomic_add_%s_%s %s, %s, %s", in.Seg, in.Type,
				regString(in.Dst, in.Type), addr, regString(in.Srcs[0], in.Type))
		}
		if in.Op == OpLda {
			return fmt.Sprintf("lda_%s_u64 %s, %s", in.Seg, regString(in.Dst, isa.TypeU64), addr)
		}
		return fmt.Sprintf("ld_%s_%s %s, %s", in.Seg, in.Type, regString(in.Dst, in.Type), addr)
	case OpWorkItemAbsId, OpWorkItemId, OpWorkGroupId, OpWorkGroupSize, OpGridSize:
		return fmt.Sprintf("%s_u32 %s, %d", in.Op, regString(in.Dst, in.Type), in.Dim)
	}
	s := fmt.Sprintf("%s_%s", in.Op, in.Type)
	switch in.Op {
	case OpCmp:
		s = fmt.Sprintf("cmp_%s_%s", in.Cmp, in.SrcType)
	case OpCvt:
		s = fmt.Sprintf("cvt_%s_%s", in.Type, in.SrcType)
	}
	sep := " "
	in.Operands(func(o *Operand, t isa.DataType, _ bool) {
		s += sep + regString(*o, t)
		sep = ", "
	})
	return s
}

// Block is a basic block: a label and a straight-line instruction sequence
// ending (implicitly or explicitly) in a control transfer.
type Block struct {
	// ID is the block's index in Kernel.Blocks; branch targets refer to it.
	ID int
	// Insts is the block body.
	Insts []Inst
}

// ArgInfo describes one kernel argument for the kernarg segment layout.
type ArgInfo struct {
	Name   string
	Size   int // bytes: 4 or 8
	Offset int // byte offset within the kernarg segment
}

// Kernel is a finalizable HSAIL kernel: a CFG of basic blocks plus the
// metadata a dispatch needs (register demand, argument layout, segment sizes).
type Kernel struct {
	Name string
	// Blocks in layout order; Blocks[0] is the entry.
	Blocks []*Block
	// NumRegSlots is the number of 32-bit virtual register slots used.
	NumRegSlots int
	// NumCRegs is the number of control registers used.
	NumCRegs int
	// Args is the kernarg segment layout.
	Args []ArgInfo
	// KernargSize is the kernarg segment size in bytes.
	KernargSize int
	// GroupSize is the static group (LDS) segment demand in bytes.
	GroupSize int
	// PrivateSize is the per-work-item private segment demand in bytes.
	PrivateSize int
	// SpillSize is the per-work-item spill segment demand in bytes.
	SpillSize int
}

// NumInsts returns the static instruction count.
func (k *Kernel) NumInsts() int {
	n := 0
	for _, b := range k.Blocks {
		n += len(b.Insts)
	}
	return n
}

// CodeBytes returns the kernel's simulated-memory footprint: the fixed
// 8-byte-per-instruction approximation used when BRIG code is loaded.
func (k *Kernel) CodeBytes() int { return k.NumInsts() * InstBytes }

// Validate checks structural invariants: branch targets exist, operand
// register slots are within the declared register demand, a destination is
// a register (a control register only for cmp), and every block ends the
// kernel or transfers control.
func (k *Kernel) Validate() error {
	if len(k.Blocks) == 0 {
		return fmt.Errorf("hsail: kernel %q has no blocks", k.Name)
	}
	for bi, b := range k.Blocks {
		if b.ID != bi {
			return fmt.Errorf("hsail: kernel %q block %d has ID %d", k.Name, bi, b.ID)
		}
		for ii := range b.Insts {
			in := &b.Insts[ii]
			if err := k.validateInst(in); err != nil {
				return fmt.Errorf("hsail: kernel %q BB%d inst %d (%s): %w", k.Name, bi, ii, in, err)
			}
		}
	}
	return nil
}

func (k *Kernel) validateInst(in *Inst) error {
	if in.Op == OpBr || in.Op == OpCBr {
		if int(in.Target) < 0 || int(in.Target) >= len(k.Blocks) {
			return fmt.Errorf("branch target BB%d out of range", in.Target)
		}
	}
	var err error
	in.Operands(func(o *Operand, t isa.DataType, def bool) {
		if err != nil {
			return
		}
		switch {
		case def && (o.Kind == OperImm || o.Kind == OperArgSym):
			err = fmt.Errorf("destination is not a register")
			return
		case def && o.Kind == OperCReg && in.Op != OpCmp:
			err = fmt.Errorf("only cmp writes a control register")
			return
		}
		switch o.Kind {
		case OperReg:
			switch {
			case t.Regs() == 0:
				err = fmt.Errorf("register operand $s%d of type %s spans no slot", o.Reg, t)
			case int(o.Reg)+t.Regs() > k.NumRegSlots:
				err = fmt.Errorf("register slot %d exceeds declared demand %d", o.Reg, k.NumRegSlots)
			case k.NumRegSlots > isa.MaxHSAILRegs:
				err = fmt.Errorf("register demand %d exceeds HSAIL limit %d", k.NumRegSlots, isa.MaxHSAILRegs)
			}
		case OperCReg:
			if int(o.Reg) >= k.NumCRegs {
				err = fmt.Errorf("control register %d exceeds declared demand %d", o.Reg, k.NumCRegs)
			}
		case OperArgSym:
			if int(o.Reg) >= len(k.Args) {
				err = fmt.Errorf("argument symbol %%arg%d out of range", o.Reg)
			}
		}
	})
	return err
}

// Disassemble renders the whole kernel as HSAIL-flavored text.
func (k *Kernel) Disassemble() string {
	s := fmt.Sprintf("kernel &%s (", k.Name)
	for i, a := range k.Args {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%%arg%d:%s", i, a.Name)
	}
	s += ")\n"
	for _, b := range k.Blocks {
		s += fmt.Sprintf("@BB%d:\n", b.ID)
		for i := range b.Insts {
			s += "  " + b.Insts[i].String() + "\n"
		}
	}
	return s
}
