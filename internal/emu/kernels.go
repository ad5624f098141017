package emu

import (
	"math/bits"
	"reflect"

	"ilsim/internal/isa"
)

// lanes is one 32-bit register across the wavefront: the storage unit of
// both register files, of pre-broadcast constants and of broadcast scratch.
type lanes = [isa.WavefrontSize]uint32

// lanePair is a 32- or 64-bit operand as a whole-wave kernel sees it: the
// low dwords and, for 64-bit values, the high dwords of every lane.
type lanePair struct{ lo, hi *lanes }

// laneArgs is what a kernel works on: the destination and up to three
// sources, each a pair of register arrays, plus one lane-mask input (the
// selector of a conditional move, the carry-in of an add-with-carry).
//
// A kernel visits lanes one at a time and, within a lane, reads every source
// before it writes the destination. Lane l of any array is therefore only
// ever touched while lane l is being computed, which is what lets dst alias
// a source, or half-overlap one (dst.lo == src.hi), without a temporary.
type laneArgs struct {
	dst  lanePair
	src  [3]lanePair
	mask uint64
}

// laneKernel computes one operation of one data type for every lane set in
// exec — a straight 64-lane loop when exec is full, a bit-scan otherwise —
// writing only those lanes of dst. Compare and carry kernels return the
// lanes for which the predicate held (a subset of exec); others return 0.
type laneKernel func(x *laneArgs, exec uint64) uint64

// fullExec is the execution mask of a complete wavefront.
const fullExec = ^uint64(0)

// laneOp names the operations of the kernel table. Both ISAs lower onto
// these: an HSAIL add_u32 and a GCN3 v_add_u32 without carry-out are the
// same (opAdd, u32) kernel.
type laneOp uint8

// Kernel-table operations.
const (
	opNone laneOp = iota
	opMov
	opAdd
	opSub
	opMul
	opMulHi
	opDiv
	opRem
	opMin
	opMax
	opAnd
	opOr
	opXor
	opShl // shift amount is src 1, always read as 32 bits
	opShr
	opFma // fused multiply-add; integer types multiply-add with wrap-around
	opAbs
	opNeg
	opNot
	opSqrt
	opRsqrt
	opRcp
	opSel      // dst = mask bit ? src 0 : src 1
	opDivFixup // src 0 quotient, src 1 denominator, src 2 numerator
	opAddCO    // u32 add, returns the carry-out lanes
	opSubBO    // u32 subtract, returns the borrow lanes
	opAddC     // u32 add with carry-in from mask, returns the carry-out lanes
	numLaneOps
)

// numLaneTypes sizes the type axis of the kernel tables.
const numLaneTypes = int(isa.TypeF64) + 1

// numCmpOps sizes the operator axis of the compare table.
const numCmpOps = int(isa.CmpGe) + 1

// The tables themselves — laneKernels[op][type], cmpKernels[cmp][type] and
// cvtKernels[dst][src] — are in kernels_gen.go. A nil entry is an
// (operation, type) pair with no defined semantics; lowering turns it into
// an error at that PC instead of a kernel that computes zeros.

// kernelSwap is a generated kernel and the kernel that replaces it.
type kernelSwap struct{ portable, fast laneKernel }

// installKernels points every entry of laneKernels that holds a swap's
// generated kernel at its replacement. It runs from init, before any
// engine lowers an instruction.
func installKernels(swaps []kernelSwap) {
	for op := range laneKernels {
		for t, k := range laneKernels[op] {
			if k == nil {
				continue
			}
			for _, s := range swaps {
				if sameKernel(k, s.portable) {
					laneKernels[op][t] = s.fast
				}
			}
		}
	}
}

// sameKernel reports whether a and b are the same function.
func sameKernel(a, b laneKernel) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// kernelFor looks up the (op, t) kernel.
func kernelFor(op laneOp, t isa.DataType) laneKernel {
	if int(t) >= numLaneTypes {
		return nil
	}
	return laneKernels[op][t]
}

// cmpKernelFor looks up the compare kernel of operator c on type t.
func cmpKernelFor(c isa.CmpOp, t isa.DataType) laneKernel {
	if int(c) >= numCmpOps || int(t) >= numLaneTypes {
		return nil
	}
	return cmpKernels[c][t]
}

// cvtKernelFor looks up the conversion kernel from st to dt.
func cvtKernelFor(dt, st isa.DataType) laneKernel {
	if int(dt) >= numLaneTypes || int(st) >= numLaneTypes {
		return nil
	}
	return cvtKernels[dt][st]
}

// zeroLanes stands in for the high half of a 32-bit operand that a 64-bit
// kernel reads. It is never a destination.
var zeroLanes lanes

// constLanes is a 64-bit value replicated across the wavefront: a constant
// operand broadcast once at load (immutable from then on), or the engine's
// scratch for a scalar operand broadcast per execution.
type constLanes struct{ lo, hi lanes }

// newConstLanes broadcasts v into a fresh constant.
func newConstLanes(v uint64) *constLanes {
	c := new(constLanes)
	c.fill(v, true, fullExec)
	return c
}

// fill broadcasts v into the lanes set in exec (and only those: a scalar
// operand costs what the instruction's active lanes cost).
func (c *constLanes) fill(v uint64, wide bool, exec uint64) {
	lo, hi := uint32(v), uint32(v>>32)
	if exec == fullExec {
		for l := range c.lo {
			c.lo[l] = lo
		}
		if wide {
			for l := range c.hi {
				c.hi[l] = hi
			}
		}
		return
	}
	for e := exec; e != 0; e &= e - 1 {
		l := bits.TrailingZeros64(e) & 63
		c.lo[l] = lo
		if wide {
			c.hi[l] = hi
		}
	}
}
