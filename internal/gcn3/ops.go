// Package gcn3 defines the GCN3-like machine ISA under study.
//
// The ISA mirrors the structural properties of AMD's Graphics Core Next 3
// instruction set that the paper identifies as consequential:
//
//   - It is a vector ISA: the 64-bit execution mask (EXEC) is architecturally
//     visible and manipulable, so the compiler lays out reducible control
//     flow serially and predicates it instead of relying on a simulator
//     reconvergence stack (paper §III.C.1).
//   - It has a scalar pipeline: scalar ALU and scalar memory instructions are
//     interleaved with vector instructions by the finalizer for control flow
//     and address generation (paper §III.B.1).
//   - Dependency management is software's job: s_waitcnt and s_nop
//     instructions inserted by the finalizer replace hardware scoreboards
//     (paper §III.B.2).
//   - Instructions use variable-length hardware encodings: 32-bit or 64-bit,
//     optionally followed by a 32-bit literal constant (paper §III.C.3).
//   - Per-wavefront register files are architecturally bounded: 256 VGPRs and
//     102 SGPRs (paper §V.B).
//
// The opcode inventory and bit-level field packing are this project's own
// (the real encodings are only partially relevant to the study), but every
// instruction's *size class* follows the GCN3 rules exactly, since code
// footprint is one of the reproduced results (Figure 8).
package gcn3

import (
	"fmt"

	"ilsim/internal/isa"
)

// Op is a GCN3 opcode. Operation width/type is carried in Inst.Type (and
// Inst.SrcType for conversions), mirroring how real GCN3 enumerates one
// opcode per type; the encoder folds (Op, Type, SrcType, Cmp) into the
// format's opcode field through a deterministic registry.
type Op uint8

// Scalar ALU (SOP1/SOP2/SOPC).
const (
	OpSMov         Op = iota // s_mov_b32/b64
	OpSNot                   // s_not_b64
	OpSAndSaveexec           // s_and_saveexec_b64: sdst = EXEC; EXEC &= src0
	OpSOrSaveexec            // s_or_saveexec_b64: sdst = EXEC; EXEC |= src0
	OpSAdd                   // s_add_u32
	OpSSub                   // s_sub_u32
	OpSMul                   // s_mul_i32
	OpSLshl                  // s_lshl_b32
	OpSLshr                  // s_lshr_b32
	OpSAshr                  // s_ashr_i32
	OpSAnd                   // s_and_b32/b64
	OpSOr                    // s_or_b32/b64
	OpSXor                   // s_xor_b32/b64
	OpSAndN2                 // s_andn2_b64: dst = src0 & ~src1
	OpSBfe                   // s_bfe_u32: bit-field extract, src1 = {offset[4:0], width[22:16]}
	OpSAddc                  // s_addc_u32: dst = src0 + src1 + SCC
	OpSCmp                   // s_cmp_<cmp>_<type>: sets SCC

	// Scalar program control (SOPP).
	OpSEndpgm
	OpSBranch
	OpSCbranchSCC0
	OpSCbranchSCC1
	OpSCbranchVCCZ
	OpSCbranchVCCNZ
	OpSCbranchExecZ
	OpSCbranchExecNZ
	OpSBarrier
	OpSNop
	OpSWaitcnt

	// Scalar memory (SMEM).
	OpSLoadDword
	OpSLoadDwordx2
	OpSLoadDwordx4

	// Vector ALU.
	OpVMov     // v_mov_b32
	OpVNot     // v_not_b32
	OpVCvt     // v_cvt_<type>_<srctype>
	OpVRcp     // v_rcp_f32/f64
	OpVSqrt    // v_sqrt_f32/f64
	OpVRsq     // v_rsq_f32/f64
	OpVAdd     // v_add_<type> (u32 writes VCC carry)
	OpVAddc    // v_addc_u32: dst = src0 + src1 + VCC, writes VCC carry
	OpVSub     // v_sub_<type> (u32 writes VCC borrow)
	OpVMul     // v_mul_<type> (float; integer multiplies are VMulLo/VMulHi)
	OpVMulLo   // v_mul_lo_u32 (VOP3)
	OpVMulHi   // v_mul_hi_u32 (VOP3)
	OpVMad     // v_mad_u32 (VOP3, 3 sources)
	OpVFma     // v_fma_f32/f64 (VOP3, 3 sources)
	OpVMin     // v_min_<type>
	OpVMax     // v_max_<type>
	OpVAnd     // v_and_b32
	OpVOr      // v_or_b32
	OpVXor     // v_xor_b32
	OpVLshl    // v_lshlrev_b32/b64
	OpVLshr    // v_lshrrev_b32
	OpVAshr    // v_ashrrev_i32
	OpVCmp     // v_cmp_<cmp>_<type>: per-lane compare to VCC (VOPC) or SGPR pair (VOP3)
	OpVCndmask // v_cndmask_b32: dst = sel ? src1 : src0 (sel = VCC in VOP2, SGPR pair in VOP3)

	// Newton-Raphson division support (paper Table 3).
	OpVDivScale // v_div_scale_f32/f64 (VOP3, also writes VCC)
	OpVDivFmas  // v_div_fmas_f32/f64 (VOP3, reads VCC)
	OpVDivFixup // v_div_fixup_f32/f64 (VOP3)

	// Flat memory (FLAT). GCN3 flat instructions carry NO immediate offset
	// (that arrived in later generations), so address arithmetic is always
	// explicit — one of the sources of code expansion.
	OpFlatLoadDword
	OpFlatLoadDwordx2
	OpFlatStoreDword
	OpFlatStoreDwordx2
	OpFlatAtomicAdd // u32 fetch-add, returns prior value when GLC

	// Local data share (DS).
	OpDSReadB32
	OpDSWriteB32
	OpDSReadB64
	OpDSWriteB64
	OpDSAddU32 // LDS atomic fetch-add (returns the prior value)

	// NumOps is the number of defined opcodes.
	NumOps = int(OpDSAddU32) + 1
)

// opInfo is static opcode metadata.
type opInfo struct {
	name   string
	format Format
	nSrc   int
}

var opTable = [NumOps]opInfo{
	OpSMov:             {"s_mov", FmtSOP1, 1},
	OpSNot:             {"s_not", FmtSOP1, 1},
	OpSAndSaveexec:     {"s_and_saveexec", FmtSOP1, 1},
	OpSOrSaveexec:      {"s_or_saveexec", FmtSOP1, 1},
	OpSAdd:             {"s_add", FmtSOP2, 2},
	OpSSub:             {"s_sub", FmtSOP2, 2},
	OpSMul:             {"s_mul", FmtSOP2, 2},
	OpSLshl:            {"s_lshl", FmtSOP2, 2},
	OpSLshr:            {"s_lshr", FmtSOP2, 2},
	OpSAshr:            {"s_ashr", FmtSOP2, 2},
	OpSAnd:             {"s_and", FmtSOP2, 2},
	OpSOr:              {"s_or", FmtSOP2, 2},
	OpSXor:             {"s_xor", FmtSOP2, 2},
	OpSAndN2:           {"s_andn2", FmtSOP2, 2},
	OpSBfe:             {"s_bfe", FmtSOP2, 2},
	OpSAddc:            {"s_addc", FmtSOP2, 2},
	OpSCmp:             {"s_cmp", FmtSOPC, 2},
	OpSEndpgm:          {"s_endpgm", FmtSOPP, 0},
	OpSBranch:          {"s_branch", FmtSOPP, 0},
	OpSCbranchSCC0:     {"s_cbranch_scc0", FmtSOPP, 0},
	OpSCbranchSCC1:     {"s_cbranch_scc1", FmtSOPP, 0},
	OpSCbranchVCCZ:     {"s_cbranch_vccz", FmtSOPP, 0},
	OpSCbranchVCCNZ:    {"s_cbranch_vccnz", FmtSOPP, 0},
	OpSCbranchExecZ:    {"s_cbranch_execz", FmtSOPP, 0},
	OpSCbranchExecNZ:   {"s_cbranch_execnz", FmtSOPP, 0},
	OpSBarrier:         {"s_barrier", FmtSOPP, 0},
	OpSNop:             {"s_nop", FmtSOPP, 0},
	OpSWaitcnt:         {"s_waitcnt", FmtSOPP, 0},
	OpSLoadDword:       {"s_load_dword", FmtSMEM, 1},
	OpSLoadDwordx2:     {"s_load_dwordx2", FmtSMEM, 1},
	OpSLoadDwordx4:     {"s_load_dwordx4", FmtSMEM, 1},
	OpVMov:             {"v_mov", FmtVOP1, 1},
	OpVNot:             {"v_not", FmtVOP1, 1},
	OpVCvt:             {"v_cvt", FmtVOP1, 1},
	OpVRcp:             {"v_rcp", FmtVOP1, 1},
	OpVSqrt:            {"v_sqrt", FmtVOP1, 1},
	OpVRsq:             {"v_rsq", FmtVOP1, 1},
	OpVAdd:             {"v_add", FmtVOP2, 2},
	OpVAddc:            {"v_addc", FmtVOP2, 2},
	OpVSub:             {"v_sub", FmtVOP2, 2},
	OpVMul:             {"v_mul", FmtVOP2, 2},
	OpVMulLo:           {"v_mul_lo", FmtVOP3, 2},
	OpVMulHi:           {"v_mul_hi", FmtVOP3, 2},
	OpVMad:             {"v_mad", FmtVOP3, 3},
	OpVFma:             {"v_fma", FmtVOP3, 3},
	OpVMin:             {"v_min", FmtVOP2, 2},
	OpVMax:             {"v_max", FmtVOP2, 2},
	OpVAnd:             {"v_and", FmtVOP2, 2},
	OpVOr:              {"v_or", FmtVOP2, 2},
	OpVXor:             {"v_xor", FmtVOP2, 2},
	OpVLshl:            {"v_lshlrev", FmtVOP2, 2},
	OpVLshr:            {"v_lshrrev", FmtVOP2, 2},
	OpVAshr:            {"v_ashrrev", FmtVOP2, 2},
	OpVCmp:             {"v_cmp", FmtVOPC, 2},
	OpVCndmask:         {"v_cndmask", FmtVOP2, 3},
	OpVDivScale:        {"v_div_scale", FmtVOP3, 3},
	OpVDivFmas:         {"v_div_fmas", FmtVOP3, 3},
	OpVDivFixup:        {"v_div_fixup", FmtVOP3, 3},
	OpFlatLoadDword:    {"flat_load_dword", FmtFLAT, 1},
	OpFlatLoadDwordx2:  {"flat_load_dwordx2", FmtFLAT, 1},
	OpFlatStoreDword:   {"flat_store_dword", FmtFLAT, 2},
	OpFlatStoreDwordx2: {"flat_store_dwordx2", FmtFLAT, 2},
	OpFlatAtomicAdd:    {"flat_atomic_add", FmtFLAT, 2},
	OpDSReadB32:        {"ds_read_b32", FmtDS, 1},
	OpDSWriteB32:       {"ds_write_b32", FmtDS, 2},
	OpDSReadB64:        {"ds_read_b64", FmtDS, 1},
	OpDSWriteB64:       {"ds_write_b64", FmtDS, 2},
	OpDSAddU32:         {"ds_add_rtn_u32", FmtDS, 2},
}

// String returns the base mnemonic without type suffixes.
func (op Op) String() string {
	if int(op) < len(opTable) && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// NSrc returns the number of source operands.
func (op Op) NSrc() int { return opTable[op].nSrc }

// baseFormat returns the opcode's default format; Inst.Format refines it
// (v_cmp to an SGPR destination and v_cndmask with an explicit SGPR selector
// promote to VOP3, as on real hardware).
func (op Op) baseFormat() Format { return opTable[op].format }

// Category returns the execution-resource category (Figure 5 breakdown).
func (op Op) Category() isa.Category {
	switch {
	case op == OpSWaitcnt:
		return isa.CatWaitcnt
	case op == OpSBranch || (op >= OpSCbranchSCC0 && op <= OpSCbranchExecNZ):
		return isa.CatBranch
	case op == OpSEndpgm || op == OpSBarrier || op == OpSNop:
		return isa.CatMisc
	case op >= OpSLoadDword && op <= OpSLoadDwordx4:
		return isa.CatSMem
	case op <= OpSCmp:
		return isa.CatSALU
	case op >= OpFlatLoadDword && op <= OpFlatAtomicAdd:
		return isa.CatVMem
	case op >= OpDSReadB32:
		return isa.CatLDS
	default:
		return isa.CatVALU
	}
}

// IsVMem reports whether the op is counted by vmcnt.
func (op Op) IsVMem() bool { return op.Category() == isa.CatVMem }

// IsLGKM reports whether the op is counted by lgkmcnt (scalar memory + LDS).
func (op Op) IsLGKM() bool {
	c := op.Category()
	return c == isa.CatSMem || c == isa.CatLDS
}

// IsBranch reports whether the op redirects the PC when taken.
func (op Op) IsBranch() bool { return op.Category() == isa.CatBranch }

// IsStore reports whether the op writes memory without a register result.
func (op Op) IsStore() bool {
	return op == OpFlatStoreDword || op == OpFlatStoreDwordx2 ||
		op == OpDSWriteB32 || op == OpDSWriteB64
}
