//go:build amd64 && !purego

#include "textflag.h"

// The AVX-512 kernel behind UniqueCount (unique_amd64.go). It loads the 64
// lanes into Z0-Z3, sets every inactive lane to the first active lane's
// value (a value already present leaves the count unchanged), settles a
// uniform or a strictly monotonic wave with a few comparisons, and otherwise
// sorts the 64 values with a bitonic network and counts the adjacent pairs
// that differ.
//
// The network is the flip form of the bitonic sort, which sorts every block
// ascending: stage k (k = 2, 4, ..., 64) compares element i with i^(k-1),
// then runs half-cleaners that compare i with i^j for j = k/4, ..., 1; the
// lower index of each pair keeps the minimum. Element i lives in lane i/4
// of register i%4 (the values start in any order, so the loads need no
// shuffle). A comparison whose partners differ only in the register (j = 1
// and 2, and the flips of stages 2 and 4) is a plain lanewise min and max of
// two registers (XC). A half-cleaner with j >= 4 pairs lane l with lane
// l^(j/4) of the same register: it permutes a copy, takes the minimum, and
// merges the maximum into the lanes with that bit set (K1-K4). The flips of
// stages 8-64 pair register 0 with 3 and 1 with 2 across lanes (FLIP). Each
// layer reads one bank of registers (Z0-Z3 or Z4-Z7) and writes the other.

// rev16 reverses the 16 lanes of a register (partner l^15); rev8 reverses
// each half (partner l^7).
DATA rev16<>+0(SB)/4, $15
DATA rev16<>+4(SB)/4, $14
DATA rev16<>+8(SB)/4, $13
DATA rev16<>+12(SB)/4, $12
DATA rev16<>+16(SB)/4, $11
DATA rev16<>+20(SB)/4, $10
DATA rev16<>+24(SB)/4, $9
DATA rev16<>+28(SB)/4, $8
DATA rev16<>+32(SB)/4, $7
DATA rev16<>+36(SB)/4, $6
DATA rev16<>+40(SB)/4, $5
DATA rev16<>+44(SB)/4, $4
DATA rev16<>+48(SB)/4, $3
DATA rev16<>+52(SB)/4, $2
DATA rev16<>+56(SB)/4, $1
DATA rev16<>+60(SB)/4, $0
GLOBL rev16<>(SB), RODATA|NOPTR, $64

DATA rev8<>+0(SB)/4, $7
DATA rev8<>+4(SB)/4, $6
DATA rev8<>+8(SB)/4, $5
DATA rev8<>+12(SB)/4, $4
DATA rev8<>+16(SB)/4, $3
DATA rev8<>+20(SB)/4, $2
DATA rev8<>+24(SB)/4, $1
DATA rev8<>+28(SB)/4, $0
DATA rev8<>+32(SB)/4, $15
DATA rev8<>+36(SB)/4, $14
DATA rev8<>+40(SB)/4, $13
DATA rev8<>+44(SB)/4, $12
DATA rev8<>+48(SB)/4, $11
DATA rev8<>+52(SB)/4, $10
DATA rev8<>+56(SB)/4, $9
DATA rev8<>+60(SB)/4, $8
GLOBL rev8<>(SB), RODATA|NOPTR, $64

// XC compares two registers lanewise: oa gets the minima, ob the maxima.
#define XC(a, b, oa, ob) VPMINUD b, a, oa; VPMAXUD b, a, ob

// CXS and CXL are a half-cleaner on one register, permuting by VPSHUFD or
// VSHUFI32X4 imm: t = in with lane l replaced by its partner's, then the
// minimum, then the maximum merged into the lanes in k.
#define CXS(imm, k, in, t, out) VPSHUFD imm, in, t; VPMINUD t, in, out; VPMAXUD t, in, k, out
#define CXL(imm, k, in, t, out) VSHUFI32X4 imm, in, in, t; VPMINUD t, in, out; VPMAXUD t, in, k, out

// ABS, BAS and ABL are a half-cleaner over all four registers, from bank A
// to bank B or back.
#define ABS(p, k) CXS(p, k, Z0, Z8, Z4); CXS(p, k, Z1, Z9, Z5); CXS(p, k, Z2, Z10, Z6); CXS(p, k, Z3, Z11, Z7)
#define BAS(p, k) CXS(p, k, Z4, Z8, Z0); CXS(p, k, Z5, Z9, Z1); CXS(p, k, Z6, Z10, Z2); CXS(p, k, Z7, Z11, Z3)
#define ABL(p, k) CXL(p, k, Z0, Z8, Z4); CXL(p, k, Z1, Z9, Z5); CXL(p, k, Z2, Z10, Z6); CXL(p, k, Z3, Z11, Z7)

// FLIPS and FLIPP pair lane l of a with lane l^m of b, the permutation
// being VPSHUFD imm or VPERMD by the index register idx: a's lanes in k
// (those above their partner) take the maxima, the rest the minima, and b
// gets the other value of each pair, permuted back.
#define FLIPBODY(k, a, oa) \
	VPMINUD Z8, a, oa;     \
	VPMAXUD Z8, a, k, oa;  \
	VPMAXUD Z8, a, Z9;     \
	VPMINUD Z8, a, k, Z9
#define FLIPS(imm, k, a, b, oa, ob) VPSHUFD imm, b, Z8; FLIPBODY(k, a, oa); VPSHUFD imm, Z9, ob
#define FLIPP(idx, k, a, b, oa, ob) VPERMD b, idx, Z8; FLIPBODY(k, a, oa); VPERMD Z9, idx, ob

// PAD loads the 16 lanes at off(SI) into z where the low 16 bits of BX are
// set, and the broadcast in Z14 elsewhere, then shifts BX down 16 bits.
#define PAD(off, z) \
	KMOVW      BX, K5;         \
	VMOVDQA32  Z14, z;         \
	VMOVDQU32  off(SI), K5, z; \
	SHRQ       $16, BX

// UNIFORM clears ZF when some lane of Z0-Z3 differs from Z14.
#define UNIFORM \
	VPCMPUD  $4, Z14, Z0, K1; \
	VPCMPUD  $4, Z14, Z1, K2; \
	KORW     K1, K2, K1;      \
	VPCMPUD  $4, Z14, Z2, K2; \
	KORW     K1, K2, K1;      \
	VPCMPUD  $4, Z14, Z3, K2; \
	KORW     K1, K2, K1;      \
	KORTESTW K1, K1

// func uniqueAVX512(vals *[64]uint32, mask uint64) int
TEXT ·uniqueAVX512(SB), NOSPLIT, $0-24
	MOVQ vals+0(FP), SI
	MOVQ mask+8(FP), BX
	CMPQ BX, $-1
	JNE  partial

	VMOVDQU32    (SI), Z0
	VMOVDQU32    64(SI), Z1
	VMOVDQU32    128(SI), Z2
	VMOVDQU32    192(SI), Z3
	VPBROADCASTD X0, Z14
	UNIFORM
	JNZ          monotonic
	MOVQ         $1, AX
	JMP          done

monotonic:
	// next_r holds the element after each of register r's: lanes 1-15 of
	// r, then lane 0 of r+1. The last register's lane 15 has no successor
	// and K7 forces its comparison true.
	MOVW         $0x8000, AX
	KMOVW        AX, K7
	VALIGND      $1, Z0, Z1, Z8
	VALIGND      $1, Z1, Z2, Z9
	VALIGND      $1, Z2, Z3, Z10
	VALIGND      $1, Z3, Z3, Z11
	VPCMPUD      $1, Z8, Z0, K1
	VPCMPUD      $1, Z9, Z1, K2
	KANDW        K1, K2, K1
	VPCMPUD      $1, Z10, Z2, K2
	KANDW        K1, K2, K1
	VPCMPUD      $1, Z11, Z3, K2
	KORW         K7, K2, K2
	KANDW        K1, K2, K1
	KORTESTW     K1, K1
	JCS          distinct
	VPCMPUD      $6, Z8, Z0, K1
	VPCMPUD      $6, Z9, Z1, K2
	KANDW        K1, K2, K1
	VPCMPUD      $6, Z10, Z2, K2
	KANDW        K1, K2, K1
	VPCMPUD      $6, Z11, Z3, K2
	KORW         K7, K2, K2
	KANDW        K1, K2, K1
	KORTESTW     K1, K1
	JCC          sort

distinct:
	MOVQ $64, AX
	JMP  done

partial:
	BSFQ         BX, AX
	VPBROADCASTD (SI)(AX*4), Z14
	PAD(0, Z0)
	PAD(64, Z1)
	PAD(128, Z2)
	PAD(192, Z3)
	UNIFORM
	JNZ          sort
	MOVQ         $1, AX
	JMP          done

sort:
	MOVW      $0xAAAA, AX
	KMOVW     AX, K1
	MOVW      $0xCCCC, AX
	KMOVW     AX, K2
	MOVW      $0xF0F0, AX
	KMOVW     AX, K3
	MOVW      $0xFF00, AX
	KMOVW     AX, K4
	VMOVDQU32 rev8<>(SB), Z12
	VMOVDQU32 rev16<>(SB), Z13

	// Lane partners: l^1 is VPSHUFD $0xB1, l^2 $0x4E, l^3 $0x1B; l^4 is
	// VSHUFI32X4 $0xB1; l^7 and l^15 are VPERMD by rev8 (Z12) and rev16
	// (Z13).

	// Stage 2.
	XC(Z0, Z1, Z4, Z5); XC(Z2, Z3, Z6, Z7)

	// Stage 4.
	XC(Z4, Z7, Z0, Z3); XC(Z5, Z6, Z1, Z2)
	XC(Z0, Z1, Z4, Z5); XC(Z2, Z3, Z6, Z7)

	// Stage 8.
	FLIPS($0xB1, K1, Z4, Z7, Z0, Z3); FLIPS($0xB1, K1, Z5, Z6, Z1, Z2)
	XC(Z0, Z2, Z4, Z6); XC(Z1, Z3, Z5, Z7)
	XC(Z4, Z5, Z0, Z1); XC(Z6, Z7, Z2, Z3)

	// Stage 16.
	FLIPS($0x1B, K2, Z0, Z3, Z4, Z7); FLIPS($0x1B, K2, Z1, Z2, Z5, Z6)
	BAS($0xB1, K1)
	XC(Z0, Z2, Z4, Z6); XC(Z1, Z3, Z5, Z7)
	XC(Z4, Z5, Z0, Z1); XC(Z6, Z7, Z2, Z3)

	// Stage 32.
	FLIPP(Z12, K3, Z0, Z3, Z4, Z7); FLIPP(Z12, K3, Z1, Z2, Z5, Z6)
	BAS($0x4E, K2)
	ABS($0xB1, K1)
	XC(Z4, Z6, Z0, Z2); XC(Z5, Z7, Z1, Z3)
	XC(Z0, Z1, Z4, Z5); XC(Z2, Z3, Z6, Z7)

	// Stage 64.
	FLIPP(Z13, K4, Z4, Z7, Z0, Z3); FLIPP(Z13, K4, Z5, Z6, Z1, Z2)
	ABL($0xB1, K3)
	BAS($0x4E, K2)
	ABS($0xB1, K1)
	XC(Z4, Z6, Z0, Z2); XC(Z5, Z7, Z1, Z3)
	XC(Z0, Z1, Z4, Z5); XC(Z2, Z3, Z6, Z7)

	// Element i of the sorted order is lane i/4 of Z4+i%4: its successor
	// is the same lane of the next register, or for Z7 the next lane of Z4
	// (the last lane has none: K7). The count is one plus the number of
	// successors that differ.
	MOVW     $0x7FFF, AX
	KMOVW    AX, K7
	VALIGND  $1, Z4, Z4, Z8
	VPCMPUD  $4, Z5, Z4, K1
	VPCMPUD  $4, Z6, Z5, K2
	VPCMPUD  $4, Z7, Z6, K3
	VPCMPUD  $4, Z8, Z7, K7, K4
	KMOVW    K1, AX
	KMOVW    K2, BX
	KMOVW    K3, CX
	KMOVW    K4, DX
	POPCNTL  AX, AX
	POPCNTL  BX, BX
	POPCNTL  CX, CX
	POPCNTL  DX, DX
	LEAQ     1(AX)(BX*1), AX
	ADDQ     CX, AX
	ADDQ     DX, AX

done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
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
