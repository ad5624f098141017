// Package isa defines the vocabulary shared by the HSAIL-like intermediate
// language and the GCN3-like machine ISA: instruction categories, data types,
// comparison operators, register classes, and the constants of the modeled
// microarchitecture that both abstractions must agree on (wavefront width,
// register-file limits).
//
// Everything in this package is deliberately ISA-neutral. The two instruction
// sets live in package hsail and package gcn3 respectively and both are
// described in terms of these types, which is what lets a single timing model
// (package timing) and a single statistics layer (package stats) observe both
// abstractions through one lens, exactly as the paper's methodology requires.
package isa

import (
	"fmt"
	"math/bits"
)

// WavefrontSize is the number of work-items that execute in lock step on the
// SIMD units of a compute unit. The paper models AMD GCN3 hardware, which uses
// 64-wide wavefronts issued over four cycles on 16-lane SIMD engines.
const WavefrontSize = 64

// SIMDWidth is the number of lanes in one SIMD engine. A full wavefront
// occupies WavefrontSize/SIMDWidth = 4 issue cycles.
const SIMDWidth = 16

// Architectural register-file limits (paper §V.B): HSAIL is register-allocated
// with up to 2,048 32-bit vector registers per wavefront and has no scalar
// file; GCN3 allows 256 VGPRs and 102 SGPRs per wavefront.
const (
	MaxHSAILRegs = 2048
	MaxVGPRs     = 256
	MaxSGPRs     = 102
)

// Category classifies an instruction by the execution resource it occupies.
// These are the categories of the paper's Figure 5 breakdown.
type Category uint8

const (
	// CatVALU is a vector ALU operation executed on a SIMD engine.
	CatVALU Category = iota
	// CatSALU is a scalar ALU operation executed on the scalar unit.
	// HSAIL has no scalar instructions, so HSAIL streams never produce it.
	CatSALU
	// CatVMem is a vector (per-lane) memory operation.
	CatVMem
	// CatSMem is a scalar memory operation (GCN3 s_load_*).
	CatSMem
	// CatBranch is a control-flow operation.
	CatBranch
	// CatWaitcnt is a GCN3 s_waitcnt dependency-management instruction.
	CatWaitcnt
	// CatLDS is a local-data-share (group segment) access.
	CatLDS
	// CatMisc covers NOPs, barriers and end-of-program instructions.
	CatMisc

	// NumCategories is the number of distinct instruction categories.
	NumCategories = int(CatMisc) + 1
)

// String returns the short label used in reports, matching Figure 5's legend.
func (c Category) String() string {
	switch c {
	case CatVALU:
		return "VALU"
	case CatSALU:
		return "SALU"
	case CatVMem:
		return "VMem"
	case CatSMem:
		return "SMem"
	case CatBranch:
		return "Branch"
	case CatWaitcnt:
		return "Waitcnt"
	case CatLDS:
		return "LDS"
	case CatMisc:
		return "Misc"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// DataType is the operand interpretation of a typed instruction.
type DataType uint8

const (
	// TypeNone marks untyped instructions (branches, barriers, waitcnts).
	TypeNone DataType = iota
	// TypeB32 is a raw 32-bit bit pattern.
	TypeB32
	// TypeB64 is a raw 64-bit bit pattern.
	TypeB64
	// TypeU32 is an unsigned 32-bit integer.
	TypeU32
	// TypeS32 is a signed 32-bit integer.
	TypeS32
	// TypeU64 is an unsigned 64-bit integer.
	TypeU64
	// TypeS64 is a signed 64-bit integer.
	TypeS64
	// TypeF32 is an IEEE-754 binary32 value.
	TypeF32
	// TypeF64 is an IEEE-754 binary64 value.
	TypeF64
)

// String returns the conventional suffix for the type (u32, f64, ...).
func (t DataType) String() string {
	switch t {
	case TypeNone:
		return "none"
	case TypeB32:
		return "b32"
	case TypeB64:
		return "b64"
	case TypeU32:
		return "u32"
	case TypeS32:
		return "s32"
	case TypeU64:
		return "u64"
	case TypeS64:
		return "s64"
	case TypeF32:
		return "f32"
	case TypeF64:
		return "f64"
	}
	return fmt.Sprintf("DataType(%d)", uint8(t))
}

// Bits returns the operand width in bits, or 0 for TypeNone.
func (t DataType) Bits() int {
	switch t {
	case TypeB32, TypeU32, TypeS32, TypeF32:
		return 32
	case TypeB64, TypeU64, TypeS64, TypeF64:
		return 64
	}
	return 0
}

// Regs returns how many 32-bit register slots a value of this type occupies.
func (t DataType) Regs() int {
	if t.Bits() == 64 {
		return 2
	}
	if t.Bits() == 32 {
		return 1
	}
	return 0
}

// IsFloat reports whether the type is a floating-point interpretation.
func (t DataType) IsFloat() bool { return t == TypeF32 || t == TypeF64 }

// IsSigned reports whether the type is a signed integer interpretation.
func (t DataType) IsSigned() bool { return t == TypeS32 || t == TypeS64 }

// CmpOp is a comparison operator for compare instructions.
type CmpOp uint8

// Comparison operators shared by both ISAs.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the conventional mnemonic fragment (eq, ne, lt, ...).
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "eq"
	case CmpNe:
		return "ne"
	case CmpLt:
		return "lt"
	case CmpLe:
		return "le"
	case CmpGt:
		return "gt"
	case CmpGe:
		return "ge"
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(op))
}

// Evaluate applies the comparison to a pair of already-ordered comparison
// results: cmp < 0, == 0, or > 0.
func (op CmpOp) Evaluate(cmp int) bool {
	switch op {
	case CmpEq:
		return cmp == 0
	case CmpNe:
		return cmp != 0
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	case CmpGe:
		return cmp >= 0
	}
	return false
}

// Dim identifies a grid dimension for work-item geometry queries.
type Dim uint8

// Grid dimensions.
const (
	DimX Dim = iota
	DimY
	DimZ
)

// String returns "x", "y" or "z".
func (d Dim) String() string {
	switch d {
	case DimX:
		return "x"
	case DimY:
		return "y"
	case DimZ:
		return "z"
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// ExecMask is a 64-bit per-lane execution mask. Bit i corresponds to lane i.
// In GCN3 the mask is architecturally visible (EXEC); under HSAIL it exists
// only inside the simulator's reconvergence stack.
type ExecMask uint64

// FullMask returns a mask with the low n bits set.
func FullMask(n int) ExecMask {
	if n >= 64 {
		return ^ExecMask(0)
	}
	return ExecMask(1)<<uint(n) - 1
}

// Bit reports whether lane is active.
func (m ExecMask) Bit(lane int) bool { return m>>uint(lane)&1 != 0 }

// SetBit returns the mask with lane set to active.
func (m ExecMask) SetBit(lane int) ExecMask { return m | 1<<uint(lane) }

// ClearBit returns the mask with lane cleared.
func (m ExecMask) ClearBit(lane int) ExecMask { return m &^ (1 << uint(lane)) }

// PopCount returns the number of active lanes.
func (m ExecMask) PopCount() int { return bits.OnesCount64(uint64(m)) }

// Any reports whether any lane is active.
func (m ExecMask) Any() bool { return m != 0 }
