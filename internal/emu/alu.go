// Package emu implements the functional execution engines for both ISA
// abstractions: the HSAIL engine executes SIMT instructions per work-item
// with a simulator-managed reconvergence stack, and the GCN3 engine executes
// whole-wavefront vector and scalar instructions against the architected
// EXEC mask and ABI-initialized register state.
//
// The engines are value-accurate: they really compute, load and store every
// lane value, because the paper's Figure 10 (VRF value uniqueness) and the
// workload output checkers depend on real data. Timing is not modeled here;
// package timing drives an Engine and charges cycles around it.
package emu

import (
	"math"
	"math/bits"

	"ilsim/internal/isa"
)

// Typed arithmetic on raw 64-bit bit patterns. 32-bit types use the low half.

func f32(v uint64) float32  { return math.Float32frombits(uint32(v)) }
func f64v(v uint64) float64 { return math.Float64frombits(v) }
func fromF32(f float32) uint64 {
	return uint64(math.Float32bits(f))
}
func fromF64(f float64) uint64 { return math.Float64bits(f) }

// binOpKind enumerates the shared binary operations.
type binOpKind uint8

// Binary operation kinds shared by the HSAIL and GCN3 engines.
const (
	binAdd binOpKind = iota
	binSub
	binMul
	binMulHi
	binDiv
	binRem
	binMin
	binMax
	binAnd
	binOr
	binXor
	binShl
	binShr
)

// binOp applies a typed binary operation to raw bit patterns.
func binOp(kind binOpKind, t isa.DataType, a, b uint64) uint64 {
	switch t {
	case isa.TypeF32:
		x, y := f32(a), f32(b)
		switch kind {
		case binAdd:
			return fromF32(x + y)
		case binSub:
			return fromF32(x - y)
		case binMul:
			return fromF32(x * y)
		case binDiv:
			return fromF32(x / y)
		case binMin:
			return fromF32(float32(math.Min(float64(x), float64(y))))
		case binMax:
			return fromF32(float32(math.Max(float64(x), float64(y))))
		}
	case isa.TypeF64:
		x, y := f64v(a), f64v(b)
		switch kind {
		case binAdd:
			return fromF64(x + y)
		case binSub:
			return fromF64(x - y)
		case binMul:
			return fromF64(x * y)
		case binDiv:
			return fromF64(x / y)
		case binMin:
			return fromF64(math.Min(x, y))
		case binMax:
			return fromF64(math.Max(x, y))
		}
	case isa.TypeU32, isa.TypeB32:
		x, y := uint32(a), uint32(b)
		switch kind {
		case binAdd:
			return uint64(x + y)
		case binSub:
			return uint64(x - y)
		case binMul:
			return uint64(x * y)
		case binMulHi:
			return uint64(uint32(uint64(x) * uint64(y) >> 32))
		case binDiv:
			if y == 0 {
				return uint64(^uint32(0))
			}
			return uint64(x / y)
		case binRem:
			if y == 0 {
				return uint64(x)
			}
			return uint64(x % y)
		case binMin:
			if x < y {
				return uint64(x)
			}
			return uint64(y)
		case binMax:
			if x > y {
				return uint64(x)
			}
			return uint64(y)
		case binAnd:
			return uint64(x & y)
		case binOr:
			return uint64(x | y)
		case binXor:
			return uint64(x ^ y)
		case binShl:
			return uint64(x << (y & 31))
		case binShr:
			return uint64(x >> (y & 31))
		}
	case isa.TypeS32:
		x, y := int32(a), int32(b)
		switch kind {
		case binAdd:
			return uint64(uint32(x + y))
		case binSub:
			return uint64(uint32(x - y))
		case binMul:
			return uint64(uint32(x * y))
		case binMulHi:
			return uint64(uint32(int64(x) * int64(y) >> 32))
		case binDiv:
			if y == 0 {
				return uint64(^uint32(0))
			}
			return uint64(uint32(x / y))
		case binRem:
			if y == 0 {
				return uint64(uint32(x))
			}
			return uint64(uint32(x % y))
		case binMin:
			if x < y {
				return uint64(uint32(x))
			}
			return uint64(uint32(y))
		case binMax:
			if x > y {
				return uint64(uint32(x))
			}
			return uint64(uint32(y))
		case binAnd:
			return uint64(uint32(x & y))
		case binOr:
			return uint64(uint32(x | y))
		case binXor:
			return uint64(uint32(x ^ y))
		case binShl:
			return uint64(uint32(x << (uint32(y) & 31)))
		case binShr:
			return uint64(uint32(x >> (uint32(y) & 31)))
		}
	case isa.TypeU64, isa.TypeB64:
		switch kind {
		case binAdd:
			return a + b
		case binSub:
			return a - b
		case binMul:
			return a * b
		case binMulHi:
			hi, _ := bits.Mul64(a, b)
			return hi
		case binDiv:
			if b == 0 {
				return ^uint64(0)
			}
			return a / b
		case binRem:
			if b == 0 {
				return a
			}
			return a % b
		case binMin:
			if a < b {
				return a
			}
			return b
		case binMax:
			if a > b {
				return a
			}
			return b
		case binAnd:
			return a & b
		case binOr:
			return a | b
		case binXor:
			return a ^ b
		case binShl:
			return a << (b & 63)
		case binShr:
			return a >> (b & 63)
		}
	case isa.TypeS64:
		x, y := int64(a), int64(b)
		switch kind {
		case binAdd:
			return uint64(x + y)
		case binSub:
			return uint64(x - y)
		case binMul:
			return uint64(x * y)
		case binMulHi:
			return uint64(mulHiS64(x, y))
		case binDiv:
			if y == 0 {
				return ^uint64(0)
			}
			return uint64(x / y)
		case binRem:
			if y == 0 {
				return uint64(x)
			}
			return uint64(x % y)
		case binMin:
			if x < y {
				return uint64(x)
			}
			return uint64(y)
		case binMax:
			if x > y {
				return uint64(x)
			}
			return uint64(y)
		case binAnd:
			return a & b
		case binOr:
			return a | b
		case binXor:
			return a ^ b
		case binShl:
			return uint64(x << (uint64(y) & 63))
		case binShr:
			return uint64(x >> (uint64(y) & 63))
		}
	}
	return 0
}

// mulHiS64 returns the high 64 bits of the signed 128-bit product: the
// unsigned high half corrected for each negative operand.
func mulHiS64(x, y int64) int64 {
	hi, _ := bits.Mul64(uint64(x), uint64(y))
	if x < 0 {
		hi -= uint64(y)
	}
	if y < 0 {
		hi -= uint64(x)
	}
	return int64(hi)
}

// fma applies a fused multiply-add of type t.
func fma(t isa.DataType, a, b, c uint64) uint64 {
	switch t {
	case isa.TypeF32:
		return fromF32(float32(math.FMA(float64(f32(a)), float64(f32(b)), float64(f32(c)))))
	case isa.TypeF64:
		return fromF64(math.FMA(f64v(a), f64v(b), f64v(c)))
	default:
		// Integer mad.
		return binOp(binAdd, t, binOp(binMul, t, a, b), c)
	}
}

// unOpKind enumerates unary operations.
type unOpKind uint8

// Unary operation kinds.
const (
	unAbs unOpKind = iota
	unNeg
	unNot
	unSqrt
	unRsqrt
	unRcp
)

// unOp applies a typed unary operation.
func unOp(kind unOpKind, t isa.DataType, a uint64) uint64 {
	switch t {
	case isa.TypeF32:
		x := f32(a)
		switch kind {
		case unAbs:
			return fromF32(float32(math.Abs(float64(x))))
		case unNeg:
			return fromF32(-x)
		case unSqrt:
			return fromF32(float32(math.Sqrt(float64(x))))
		case unRsqrt:
			return fromF32(float32(1 / math.Sqrt(float64(x))))
		case unRcp:
			return fromF32(1 / x)
		}
	case isa.TypeF64:
		x := f64v(a)
		switch kind {
		case unAbs:
			return fromF64(math.Abs(x))
		case unNeg:
			return fromF64(-x)
		case unSqrt:
			return fromF64(math.Sqrt(x))
		case unRsqrt:
			return fromF64(1 / math.Sqrt(x))
		case unRcp:
			return fromF64(1 / x)
		}
	case isa.TypeS32:
		x := int32(a)
		switch kind {
		case unAbs:
			if x < 0 {
				x = -x
			}
			return uint64(uint32(x))
		case unNeg:
			return uint64(uint32(-x))
		case unNot:
			return uint64(uint32(^x))
		}
	case isa.TypeU32, isa.TypeB32:
		switch kind {
		case unNot:
			return uint64(^uint32(a))
		case unNeg:
			return uint64(uint32(-int32(a)))
		case unAbs:
			return uint64(uint32(a))
		}
	case isa.TypeU64, isa.TypeB64:
		switch kind {
		case unNot:
			return ^a
		case unNeg:
			return uint64(-int64(a))
		case unAbs:
			return a
		}
	case isa.TypeS64:
		x := int64(a)
		switch kind {
		case unAbs:
			if x < 0 {
				x = -x
			}
			return uint64(x)
		case unNeg:
			return uint64(-x)
		case unNot:
			return uint64(^x)
		}
	}
	return 0
}

// compare evaluates a typed comparison.
func compare(op isa.CmpOp, t isa.DataType, a, b uint64) bool {
	cmp := 0
	switch t {
	case isa.TypeF32:
		x, y := f32(a), f32(b)
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		case x != y: // NaN: only eq/ne meaningful
			return op == isa.CmpNe
		}
	case isa.TypeF64:
		x, y := f64v(a), f64v(b)
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		case x != y:
			return op == isa.CmpNe
		}
	case isa.TypeS32:
		x, y := int32(a), int32(b)
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	case isa.TypeS64:
		x, y := int64(a), int64(b)
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	case isa.TypeU64, isa.TypeB64:
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	default: // U32, B32
		x, y := uint32(a), uint32(b)
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	}
	return op.Evaluate(cmp)
}

// convert performs a typed conversion from st to dt.
func convert(dt, st isa.DataType, v uint64) uint64 {
	// Normalize the source to a canonical value.
	var asF float64
	var asI int64
	var asU uint64
	switch st {
	case isa.TypeF32:
		asF = float64(f32(v))
		asI = int64(asF)
		asU = uint64(asF)
	case isa.TypeF64:
		asF = f64v(v)
		asI = int64(asF)
		asU = uint64(asF)
	case isa.TypeS32:
		asI = int64(int32(v))
		asF = float64(asI)
		asU = uint64(asI)
	case isa.TypeS64:
		asI = int64(v)
		asF = float64(asI)
		asU = uint64(asI)
	case isa.TypeU32, isa.TypeB32:
		asU = uint64(uint32(v))
		asI = int64(asU)
		asF = float64(asU)
	default:
		asU = v
		asI = int64(v)
		asF = float64(v)
	}
	switch dt {
	case isa.TypeF32:
		return fromF32(float32(asF))
	case isa.TypeF64:
		return fromF64(asF)
	case isa.TypeS32:
		return uint64(uint32(int32(asI)))
	case isa.TypeS64:
		return uint64(asI)
	case isa.TypeU32, isa.TypeB32:
		return uint64(uint32(asU))
	default:
		return asU
	}
}

// divFixup applies the special-case handling of v_div_fixup.
func divFixup(t isa.DataType, q, den, num uint64) uint64 {
	if t == isa.TypeF32 {
		d, n := f32(den), f32(num)
		switch {
		case d == 0 && n == 0:
			return fromF32(nan32())
		case d == 0:
			return fromF32(n / d) // ±Inf with correct sign
		case n == 0:
			return fromF32(n / d) // ±0
		}
		return q
	}
	d, n := f64v(den), f64v(num)
	switch {
	case d == 0 && n == 0:
		return fromF64(nan64())
	case d == 0:
		return fromF64(n / d)
	case n == 0:
		return fromF64(n / d)
	}
	return q
}

func nan32() float32 { return float32(nan64()) }
func nan64() float64 {
	var z float64
	return z / z * 0 // quiet NaN via 0/0 — computed to avoid constant-folding error
}
