package gcn3

import (
	"fmt"
	"strings"

	"ilsim/internal/isa"
)

// OperKind distinguishes GCN3 operand kinds.
type OperKind uint8

// Operand kinds.
const (
	// OperNone marks an absent operand.
	OperNone OperKind = iota
	// OperVGPR is a vector register (per-lane 32-bit; wide values use
	// consecutive registers starting at Index).
	OperVGPR
	// OperSGPR is a scalar register (64-bit values use an aligned pair).
	OperSGPR
	// OperVCC is the vector condition code, a 64-bit per-lane mask.
	OperVCC
	// OperEXEC is the 64-bit execution mask.
	OperEXEC
	// OperSCC is the scalar condition code bit.
	OperSCC
	// OperInline is an inline constant representable in the 9-bit source
	// encoding: integers -16..64 or the eight special float constants.
	OperInline
	// OperLit is a 32-bit literal constant appended to the encoding.
	OperLit
)

// Operand is a GCN3 operand.
type Operand struct {
	Kind  OperKind
	Index uint16 // register index for VGPR/SGPR
	Val   uint32 // constant bits for OperInline/OperLit
}

// VReg returns a VGPR operand.
func VReg(i int) Operand { return Operand{Kind: OperVGPR, Index: uint16(i)} }

// SReg returns an SGPR operand.
func SReg(i int) Operand { return Operand{Kind: OperSGPR, Index: uint16(i)} }

// VCC returns the VCC operand.
func VCC() Operand { return Operand{Kind: OperVCC} }

// EXEC returns the EXEC operand.
func EXEC() Operand { return Operand{Kind: OperEXEC} }

// Lit returns a literal-constant operand.
func Lit(v uint32) Operand { return Operand{Kind: OperLit, Val: v} }

// Inline returns an inline-constant operand. The encoder verifies the value
// is actually representable inline for the instruction's type.
func Inline(v uint32) Operand { return Operand{Kind: OperInline, Val: v} }

// IsReg reports whether the operand names architectural register state.
func (o Operand) IsReg() bool {
	return o.Kind == OperVGPR || o.Kind == OperSGPR || o.Kind == OperVCC || o.Kind == OperEXEC || o.Kind == OperSCC
}

// Inst is one GCN3 machine instruction.
type Inst struct {
	Op      Op
	Type    isa.DataType // operation type (selects the _u32/_f64/... variant)
	SrcType isa.DataType // source type for v_cvt
	Cmp     isa.CmpOp    // comparison for v_cmp / s_cmp
	Dst     Operand      // primary destination
	SDst    Operand      // scalar co-destination (VCC for v_add_u32 carry, v_div_scale)
	Srcs    [3]Operand
	Target  int32  // branch target: program instruction index
	Offset  int32  // SMEM/DS immediate byte offset
	SImm    uint16 // SOPP immediate payload (s_nop count)
	VMCnt   int8   // s_waitcnt vector-memory count; -1 = unconstrained
	LGKMCnt int8   // s_waitcnt LDS/GDS/konstant/message count; -1 = unconstrained
}

// Format returns the encoding format, accounting for VOP3 promotions: v_cmp
// writing an SGPR pair and v_cndmask with an explicit SGPR selector use the
// 8-byte VOP3 encoding, as on real hardware.
func (in *Inst) Format() Format {
	f := in.Op.baseFormat()
	switch in.Op {
	case OpVCmp:
		if in.Dst.Kind == OperSGPR {
			return FmtVOP3
		}
	case OpVCndmask:
		if in.Srcs[2].Kind == OperSGPR {
			return FmtVOP3
		}
	case OpVAdd, OpVSub, OpVMul, OpVMin, OpVMax, OpVLshl, OpVLshr, OpVAshr:
		// 64-bit VALU forms are VOP3-encoded.
		if in.Type.Regs() == 2 {
			return FmtVOP3
		}
	case OpSMov, OpSNot, OpSAnd, OpSOr, OpSXor:
		// Scalar ops keep their 4-byte formats regardless of width.
	}
	return f
}

// NumLiterals counts literal operands (the encoder permits at most one, and
// only in 4-byte formats, per the GCN3 rule).
func (in *Inst) NumLiterals() int {
	n := 0
	for _, s := range in.Srcs[:in.Op.NSrc()] {
		if s.Kind == OperLit {
			n++
		}
	}
	return n
}

// SizeBytes returns the encoded size: the format's base size plus 4 for a
// literal constant.
func (in *Inst) SizeBytes() int {
	return in.Format().BaseBytes() + 4*in.NumLiterals()
}

// Category returns the execution-resource category.
func (in *Inst) Category() isa.Category { return in.Op.Category() }

// DstRegs returns the number of 32-bit registers written by Dst.
func (in *Inst) DstRegs() int {
	switch in.Op {
	case OpSLoadDwordx2, OpFlatLoadDwordx2, OpDSReadB64:
		return 2
	case OpSLoadDwordx4:
		return 4
	case OpSAndSaveexec, OpSOrSaveexec:
		return 2
	case OpVCmp:
		if in.Dst.Kind == OperSGPR {
			return 2
		}
		return 2 // VCC is a 64-bit mask
	case OpSMov, OpSNot, OpSAnd, OpSOr, OpSXor, OpSAndN2:
		return in.Type.Regs()
	case OpVCvt:
		return in.Type.Regs()
	case OpFlatStoreDword, OpFlatStoreDwordx2, OpDSWriteB32, OpDSWriteB64,
		OpSEndpgm, OpSBranch, OpSBarrier, OpSNop, OpSWaitcnt, OpSCmp,
		OpSCbranchSCC0, OpSCbranchSCC1, OpSCbranchVCCZ, OpSCbranchVCCNZ,
		OpSCbranchExecZ, OpSCbranchExecNZ:
		return 0
	default:
		if r := in.Type.Regs(); r > 0 {
			return r
		}
		return 1
	}
}

// SrcRegs returns the number of 32-bit registers read by source i when it is
// a register operand.
func (in *Inst) SrcRegs(i int) int {
	switch in.Op {
	case OpSLoadDword, OpSLoadDwordx2, OpSLoadDwordx4:
		return 2 // sbase is an SGPR pair holding a 64-bit address
	case OpFlatLoadDword, OpFlatLoadDwordx2:
		return 2 // 64-bit flat address VGPR pair
	case OpFlatStoreDword, OpFlatStoreDwordx2, OpFlatAtomicAdd:
		if i == 0 {
			return 2 // address pair
		}
		if in.Op == OpFlatStoreDwordx2 {
			return 2
		}
		return 1
	case OpDSReadB32, OpDSReadB64, OpDSWriteB32, OpDSWriteB64, OpDSAddU32:
		if i == 0 {
			return 1 // 32-bit LDS byte address
		}
		if in.Op == OpDSWriteB64 {
			return 2
		}
		return 1
	case OpSAndSaveexec, OpSOrSaveexec:
		return 2
	case OpVCndmask:
		if i == 2 {
			return 2 // mask selector
		}
		return in.Type.Regs()
	case OpVCvt:
		if in.SrcType != isa.TypeNone {
			return in.SrcType.Regs()
		}
		return 1
	case OpVLshl, OpVLshr, OpVAshr:
		if i == 0 {
			return 1 // shift amount is 32-bit (rev operand order)
		}
		return in.Type.Regs()
	case OpVDivFmas, OpVDivFixup, OpVDivScale:
		return in.Type.Regs()
	case OpSCmp, OpVCmp:
		t := in.Type
		if in.SrcType != isa.TypeNone {
			t = in.SrcType
		}
		if r := t.Regs(); r > 0 {
			return r
		}
		return 1
	default:
		if r := in.Type.Regs(); r > 0 {
			return r
		}
		return 1
	}
}

// Operands visits each explicit operand with the number of 32-bit registers
// it spans and whether the instruction writes it: Dst at DstRegs, SDst as a
// pair, then the sources at SrcRegs. It is the one statement of which
// registers an instruction names; the visit includes absent and constant
// operands, which callers filter by Kind. State an instruction touches
// without naming it (EXEC under a vector op, the VCC of v_addc, SCC, memory)
// is not an operand.
func (in *Inst) Operands(visit func(o Operand, regs int, def bool)) {
	visit(in.Dst, in.DstRegs(), true)
	visit(in.SDst, 2, true)
	for i := 0; i < in.Op.NSrc(); i++ {
		visit(in.Srcs[i], in.SrcRegs(i), false)
	}
}

// Mnemonic renders the full mnemonic including type suffixes.
func (in *Inst) Mnemonic() string {
	base := in.Op.String()
	switch in.Op {
	case OpSEndpgm, OpSBranch, OpSBarrier, OpSNop, OpSWaitcnt,
		OpSCbranchSCC0, OpSCbranchSCC1, OpSCbranchVCCZ, OpSCbranchVCCNZ,
		OpSCbranchExecZ, OpSCbranchExecNZ,
		OpSLoadDword, OpSLoadDwordx2, OpSLoadDwordx4,
		OpFlatLoadDword, OpFlatLoadDwordx2, OpFlatStoreDword,
		OpFlatStoreDwordx2, OpDSReadB32, OpDSWriteB32, OpDSReadB64, OpDSWriteB64:
		return base
	case OpFlatAtomicAdd:
		return base + "_u32"
	case OpVCmp, OpSCmp:
		t := in.Type
		if in.SrcType != isa.TypeNone {
			t = in.SrcType
		}
		return fmt.Sprintf("%s_%s_%s", base, in.Cmp, t)
	case OpVCvt:
		return fmt.Sprintf("%s_%s_%s", base, in.Type, in.SrcType)
	case OpSAndSaveexec, OpSOrSaveexec, OpSAndN2:
		return base + "_b64"
	case OpVCndmask:
		return base + "_b32"
	}
	if in.Type == isa.TypeNone {
		return base
	}
	return fmt.Sprintf("%s_%s", base, in.Type)
}

// operandString renders an operand spanning n registers.
func operandString(o Operand, n int) string {
	switch o.Kind {
	case OperVGPR:
		if n > 1 {
			return fmt.Sprintf("v[%d:%d]", o.Index, int(o.Index)+n-1)
		}
		return fmt.Sprintf("v%d", o.Index)
	case OperSGPR:
		if n > 1 {
			return fmt.Sprintf("s[%d:%d]", o.Index, int(o.Index)+n-1)
		}
		return fmt.Sprintf("s%d", o.Index)
	case OperVCC:
		return "vcc"
	case OperEXEC:
		return "exec"
	case OperSCC:
		return "scc"
	case OperInline:
		return fmt.Sprintf("%d", int32(o.Val))
	case OperLit:
		return fmt.Sprintf("0x%x", o.Val)
	}
	return "?"
}

// String disassembles the instruction.
func (in *Inst) String() string {
	switch in.Op {
	case OpSEndpgm, OpSBarrier:
		return in.Mnemonic()
	case OpSNop:
		return fmt.Sprintf("s_nop %d", in.SImm)
	case OpSWaitcnt:
		var parts []string
		if in.VMCnt >= 0 {
			parts = append(parts, fmt.Sprintf("vmcnt(%d)", in.VMCnt))
		}
		if in.LGKMCnt >= 0 {
			parts = append(parts, fmt.Sprintf("lgkmcnt(%d)", in.LGKMCnt))
		}
		if len(parts) == 0 {
			parts = append(parts, "0")
		}
		return "s_waitcnt " + strings.Join(parts, " ")
	case OpSBranch, OpSCbranchSCC0, OpSCbranchSCC1, OpSCbranchVCCZ,
		OpSCbranchVCCNZ, OpSCbranchExecZ, OpSCbranchExecNZ:
		return fmt.Sprintf("%s label_%d", in.Mnemonic(), in.Target)
	case OpSLoadDword, OpSLoadDwordx2, OpSLoadDwordx4:
		return fmt.Sprintf("%s %s, %s, 0x%x", in.Mnemonic(),
			operandString(in.Dst, in.DstRegs()), operandString(in.Srcs[0], 2), in.Offset)
	case OpSCmp:
		return fmt.Sprintf("%s %s, %s", in.Mnemonic(),
			operandString(in.Srcs[0], in.SrcRegs(0)), operandString(in.Srcs[1], in.SrcRegs(1)))
	case OpDSReadB32, OpDSReadB64:
		return fmt.Sprintf("%s %s, %s offset:%d", in.Mnemonic(),
			operandString(in.Dst, in.DstRegs()), operandString(in.Srcs[0], 1), in.Offset)
	case OpDSWriteB32, OpDSWriteB64:
		return fmt.Sprintf("%s %s, %s offset:%d", in.Mnemonic(),
			operandString(in.Srcs[0], 1), operandString(in.Srcs[1], in.SrcRegs(1)), in.Offset)
	case OpDSAddU32:
		return fmt.Sprintf("%s %s, %s, %s offset:%d", in.Mnemonic(),
			operandString(in.Dst, 1), operandString(in.Srcs[0], 1),
			operandString(in.Srcs[1], 1), in.Offset)
	case OpFlatLoadDword, OpFlatLoadDwordx2:
		return fmt.Sprintf("%s %s, %s", in.Mnemonic(),
			operandString(in.Dst, in.DstRegs()), operandString(in.Srcs[0], 2))
	case OpFlatStoreDword, OpFlatStoreDwordx2:
		return fmt.Sprintf("%s %s, %s", in.Mnemonic(),
			operandString(in.Srcs[0], 2), operandString(in.Srcs[1], in.SrcRegs(1)))
	case OpFlatAtomicAdd:
		return fmt.Sprintf("%s %s, %s, %s glc", in.Mnemonic(),
			operandString(in.Dst, 1), operandString(in.Srcs[0], 2), operandString(in.Srcs[1], 1))
	}
	s := in.Mnemonic() + " " + operandString(in.Dst, in.DstRegs())
	if in.SDst.Kind != OperNone {
		s += ", " + operandString(in.SDst, 2)
	}
	for i := 0; i < in.Op.NSrc(); i++ {
		s += ", " + operandString(in.Srcs[i], in.SrcRegs(i))
	}
	return s
}

// Program is a laid-out GCN3 instruction sequence.
type Program struct {
	Insts []Inst
	// PCs[i] is the byte address of instruction i relative to the kernel
	// entry (computed by Layout).
	PCs []uint64
	// byPC[pc/4] is the index of the instruction starting at byte offset
	// pc, or -1 for mid-instruction words (computed by Layout; encodings
	// are 4-byte words, so the table is dense and IndexAt is O(1)).
	byPC []int32
	// Size is the total encoded size in bytes.
	Size int
}

// Layout assigns byte addresses using each instruction's encoded size.
func (p *Program) Layout() {
	p.PCs = make([]uint64, len(p.Insts))
	off := uint64(0)
	for i := range p.Insts {
		p.PCs[i] = off
		off += uint64(p.Insts[i].SizeBytes())
	}
	p.Size = int(off)
	p.byPC = make([]int32, off/4)
	for i := range p.byPC {
		p.byPC[i] = -1
	}
	for i, pc := range p.PCs {
		p.byPC[pc/4] = int32(i)
	}
}

// ByPCStale reports whether the layout tables need recomputing.
func (p *Program) ByPCStale() bool {
	return len(p.PCs) != len(p.Insts) || p.byPC == nil
}

// IndexAt returns the instruction index at byte offset pc, or -1.
func (p *Program) IndexAt(pc uint64) int {
	if p.byPC != nil {
		if pc%4 == 0 && pc/4 < uint64(len(p.byPC)) {
			return int(p.byPC[pc/4])
		}
		return -1
	}
	lo, hi := 0, len(p.PCs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		if p.PCs[mid] == pc {
			return mid
		}
		if p.PCs[mid] < pc {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return -1
}

// Disassemble renders the program with byte offsets.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	for i := range p.Insts {
		pc := uint64(0)
		if i < len(p.PCs) {
			pc = p.PCs[i]
		}
		fmt.Fprintf(&sb, "  0x%04x: %s\n", pc, p.Insts[i].String())
	}
	return sb.String()
}
