//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// Whole-wave AVX2 kernels for the full-EXEC path of the kernels
// kernels_amd64.go replaces. Each takes the argument block of a laneKernel
// and computes all 64 lanes. The 64-bit kernels step four lanes at a time:
// VPMOVZXDQ widens the low and high dwords of every source, the operation
// runs on four 64-bit values, and VPERMD splits the result back into its
// low and high dwords. The 32-bit kernels and the moves step eight lanes at
// a time. Within a step every source is loaded before any destination is
// stored, and a step touches only its own lanes of every register, so a
// destination may alias a source, or half-overlap one, exactly as the
// generated kernels allow (kernels.go).

// splitPerm gathers the low dwords of four 64-bit values into the low
// 128 bits of a vector and their high dwords into the high 128 bits.
DATA splitPerm<>+0(SB)/4, $0
DATA splitPerm<>+4(SB)/4, $2
DATA splitPerm<>+8(SB)/4, $4
DATA splitPerm<>+12(SB)/4, $6
DATA splitPerm<>+16(SB)/4, $1
DATA splitPerm<>+20(SB)/4, $3
DATA splitPerm<>+24(SB)/4, $5
DATA splitPerm<>+28(SB)/4, $7
GLOBL splitPerm<>(SB), RODATA|NOPTR, $32

// laneShift is each dword's lane within an eight-lane step: the shift that
// brings its carry-in bit down to bit 0.
DATA laneShift<>+0(SB)/4, $0
DATA laneShift<>+4(SB)/4, $1
DATA laneShift<>+8(SB)/4, $2
DATA laneShift<>+12(SB)/4, $3
DATA laneShift<>+16(SB)/4, $4
DATA laneShift<>+20(SB)/4, $5
DATA laneShift<>+24(SB)/4, $6
DATA laneShift<>+28(SB)/4, $7
GLOBL laneShift<>(SB), RODATA|NOPTR, $32

DATA oneF64<>+0(SB)/8, $0x3ff0000000000000
GLOBL oneF64<>(SB), RODATA|NOPTR, $8

DATA shiftMask<>+0(SB)/8, $63
GLOBL shiftMask<>(SB), RODATA|NOPTR, $8

DATA oneU32<>+0(SB)/4, $1
GLOBL oneU32<>(SB), RODATA|NOPTR, $4

// The register arrays of the argument block in DI: destination in R8/R9,
// sources 0, 1 and 2 in R10/R11, R12/R13 and SI/DX (lo/hi).
#define DST  MOVQ (laneArgs_dst+lanePair_lo)(DI), R8; MOVQ (laneArgs_dst+lanePair_hi)(DI), R9
#define SRC0 MOVQ (laneArgs_src+lanePair_lo)(DI), R10; MOVQ (laneArgs_src+lanePair_hi)(DI), R11
#define SRC1 MOVQ (laneArgs_src+lanePair__size+lanePair_lo)(DI), R12; MOVQ (laneArgs_src+lanePair__size+lanePair_hi)(DI), R13
#define SRC2 MOVQ (laneArgs_src+2*lanePair__size+lanePair_lo)(DI), SI; MOVQ (laneArgs_src+2*lanePair__size+lanePair_hi)(DI), DX

// WIDE4 loads the four lanes at byte offset AX of the register pair lo/hi
// into y as 64-bit values; t is scratch.
#define WIDE4(lo, hi, y, t) \
	VPMOVZXDQ (lo)(AX*1), y; \
	VPMOVZXDQ (hi)(AX*1), t; \
	VPSLLQ    $32, t, t;     \
	VPOR      t, y, y

// STORE4 stores the four 64-bit values of y (x is its low half) to the
// destination pair at byte offset AX. Y14 holds splitPerm.
#define STORE4(y, x) \
	VPERMD       y, Y14, y;        \
	VMOVDQU      x, (R8)(AX*1);    \
	VEXTRACTI128 $1, y, (R9)(AX*1)

// NEXT4 and NEXT8 advance AX by one four- or eight-lane step and loop
// until all 64 lanes (256 bytes of a row) are done.
#define NEXT4(label) ADDQ $16, AX; CMPQ AX, $256; JB label
#define NEXT8(label) ADDQ $32, AX; CMPQ AX, $256; JB label

// CARRY8 sets BX to the carry-out bits of the eight 32-bit sums r = a + b
// (+ carry-in): bit 31 of (a & b) | ((a | b) & ~r). t and u are scratch.
#define CARRY8(a, b, r, t, u) \
	VPAND     a, b, t; \
	VPOR      a, b, u; \
	VPANDN    u, r, u; \
	VPOR      t, u, t; \
	VMOVMSKPS t, BX

// func fmaF64AVX2(x *laneArgs)
TEXT ·fmaF64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1; SRC2
	VMOVDQU splitPerm<>(SB), Y14
	XORQ    AX, AX

loop:
	WIDE4(R10, R11, Y0, Y3)
	WIDE4(R12, R13, Y1, Y4)
	WIDE4(SI, DX, Y2, Y5)
	VFMADD231PD Y1, Y0, Y2
	STORE4(Y2, X2)
	NEXT4(loop)
	VZEROUPPER
	RET

// func subF64AVX2(x *laneArgs)
TEXT ·subF64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1
	VMOVDQU splitPerm<>(SB), Y14
	XORQ    AX, AX

loop:
	WIDE4(R10, R11, Y0, Y2)
	WIDE4(R12, R13, Y1, Y3)
	VSUBPD Y1, Y0, Y0
	STORE4(Y0, X0)
	NEXT4(loop)
	VZEROUPPER
	RET

// func mulF64AVX2(x *laneArgs)
TEXT ·mulF64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1
	VMOVDQU splitPerm<>(SB), Y14
	XORQ    AX, AX

loop:
	WIDE4(R10, R11, Y0, Y2)
	WIDE4(R12, R13, Y1, Y3)
	VMULPD Y1, Y0, Y0
	STORE4(Y0, X0)
	NEXT4(loop)
	VZEROUPPER
	RET

// func divF64AVX2(x *laneArgs)
TEXT ·divF64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1
	VMOVDQU splitPerm<>(SB), Y14
	XORQ    AX, AX

loop:
	WIDE4(R10, R11, Y0, Y2)
	WIDE4(R12, R13, Y1, Y3)
	VDIVPD Y1, Y0, Y0
	STORE4(Y0, X0)
	NEXT4(loop)
	VZEROUPPER
	RET

// func rsqrtF64AVX2(x *laneArgs)
TEXT ·rsqrtF64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0
	VMOVDQU      splitPerm<>(SB), Y14
	VBROADCASTSD oneF64<>(SB), Y13
	XORQ         AX, AX

loop:
	WIDE4(R10, R11, Y0, Y2)
	VSQRTPD Y0, Y0
	VDIVPD  Y0, Y13, Y0
	STORE4(Y0, X0)
	NEXT4(loop)
	VZEROUPPER
	RET

// func addU64AVX2(x *laneArgs)
TEXT ·addU64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1
	VMOVDQU splitPerm<>(SB), Y14
	XORQ    AX, AX

loop:
	WIDE4(R10, R11, Y0, Y2)
	WIDE4(R12, R13, Y1, Y3)
	VPADDQ Y1, Y0, Y0
	STORE4(Y0, X0)
	NEXT4(loop)
	VZEROUPPER
	RET

// func shlU64AVX2(x *laneArgs)
// The shift amount is source 1's low dword, masked to 63.
TEXT ·shlU64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1
	VMOVDQU      splitPerm<>(SB), Y14
	VPBROADCASTQ shiftMask<>(SB), Y13
	XORQ         AX, AX

loop:
	WIDE4(R10, R11, Y0, Y2)
	VPMOVZXDQ (R12)(AX*1), Y1
	VPAND     Y13, Y1, Y1
	VPSLLVQ   Y1, Y0, Y0
	STORE4(Y0, X0)
	NEXT4(loop)
	VZEROUPPER
	RET

// func mov64AVX2(x *laneArgs)
TEXT ·mov64AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0
	XORQ AX, AX

loop:
	VMOVDQU (R10)(AX*1), Y0
	VMOVDQU (R11)(AX*1), Y1
	VMOVDQU Y0, (R8)(AX*1)
	VMOVDQU Y1, (R9)(AX*1)
	NEXT8(loop)
	VZEROUPPER
	RET

// func mov32AVX2(x *laneArgs)
TEXT ·mov32AVX2(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	DST; SRC0
	XORQ AX, AX

loop:
	VMOVDQU (R10)(AX*1), Y0
	VMOVDQU Y0, (R8)(AX*1)
	NEXT8(loop)
	VZEROUPPER
	RET

// func addCOAVX2(x *laneArgs) uint64
// Returns the carry-out lanes. CX is the first lane of the step.
TEXT ·addCOAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1
	XORQ AX, AX
	XORQ CX, CX
	XORQ DX, DX

loop:
	VMOVDQU (R10)(AX*1), Y0
	VMOVDQU (R12)(AX*1), Y1
	VPADDD  Y1, Y0, Y2
	CARRY8(Y0, Y1, Y2, Y3, Y4)
	VMOVDQU Y2, (R8)(AX*1)
	SHLQ    CX, BX
	ORQ     BX, DX
	ADDQ    $8, CX
	NEXT8(loop)
	MOVQ    DX, ret+8(FP)
	VZEROUPPER
	RET

// func addCAVX2(x *laneArgs) uint64
// Adds the carry-in lanes of x.mask and returns the carry-out lanes. CX is
// the first lane of the step; SI holds the carry-in bits still to use.
TEXT ·addCAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	DST; SRC0; SRC1
	MOVQ         laneArgs_mask(DI), SI
	VMOVDQU      laneShift<>(SB), Y14
	VPBROADCASTD oneU32<>(SB), Y13
	XORQ         AX, AX
	XORQ         CX, CX
	XORQ         DX, DX

loop:
	VMOVQ        SI, X5
	VPBROADCASTD X5, Y5
	VPSRLVD      Y14, Y5, Y5
	VPAND        Y13, Y5, Y5
	VMOVDQU      (R10)(AX*1), Y0
	VMOVDQU      (R12)(AX*1), Y1
	VPADDD       Y1, Y0, Y2
	VPADDD       Y5, Y2, Y2
	CARRY8(Y0, Y1, Y2, Y3, Y4)
	VMOVDQU      Y2, (R8)(AX*1)
	SHLQ         CX, BX
	ORQ          BX, DX
	SHRQ         $8, SI
	ADDQ         $8, CX
	NEXT8(loop)
	MOVQ         DX, ret+8(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
