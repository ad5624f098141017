// Package randkernel generates random structured HSAIL kernels —
// arithmetic, predication, data-dependent control flow, memory gathers —
// deterministically from a seed. It is test support: core's adversarial
// property suite checks that the toolchain's three executions of each kernel
// agree, and the timing core's shadow check runs the same kernels on the
// timed model.
//
// Floating-point ops are restricted to add/mul/fma, whose semantics are
// identical under both ISAs, so comparisons stay exact.
package randkernel

import (
	"fmt"
	"math/rand"

	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// BufWords is the size, in 32-bit words, of the input buffer a generated
// kernel gathers from (argument "in"); argument "out" takes one word per
// work-item. Every load masks its index to the buffer, so a kernel takes any
// grid. BufWords must stay a power of two.
const BufWords = 256

// Gen builds a random kernel deterministically from seed. When raw is true,
// register allocation is skipped.
func Gen(seed int64, raw bool) (*hsail.Kernel, error) {
	rng := rand.New(rand.NewSource(seed))
	b := kernel.NewBuilder(fmt.Sprintf("rand_%d", seed))
	inArg := b.ArgPtr("in")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	inBase := b.LoadArg(inArg)
	outAddr := b.Add(isa.TypeU64, b.LoadArg(outArg),
		b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))

	// in[gid mod BufWords]: masked like the gathers below, so any grid stays
	// within the input buffer.
	x0idx := b.And(isa.TypeU32, gid, b.Int(isa.TypeU32, BufWords-1))
	x0 := b.Load(hsail.SegGlobal, isa.TypeU32,
		b.Add(isa.TypeU64, inBase, b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, x0idx), b.Int(isa.TypeU64, 2))), 0)
	pool := []kernel.Val{gid, x0, b.Mov(isa.TypeU32, b.Int(isa.TypeU32, int64(rng.Intn(1000))))}
	fpool := []kernel.Val{b.Cvt(isa.TypeF32, gid), b.Cvt(isa.TypeF32, x0)}

	pick := func() kernel.Val { return pool[rng.Intn(len(pool))] }
	pickF := func() kernel.Val { return fpool[rng.Intn(len(fpool))] }
	intOps := []hsail.Op{hsail.OpAdd, hsail.OpSub, hsail.OpMul, hsail.OpAnd,
		hsail.OpOr, hsail.OpXor, hsail.OpMin, hsail.OpMax}

	var body func(depth, nOps int)
	body = func(depth, nOps int) {
		for i := 0; i < nOps; i++ {
			switch c := rng.Intn(12); {
			case c < 4: // integer binary op
				op := intOps[rng.Intn(len(intOps))]
				pool = append(pool, b.Binary(op, isa.TypeU32, pick(), pick()))
			case c == 4: // in-place update of an existing value: the
				// well-defined way data crosses divergent regions
				// (inactive lanes keep the old value).
				dst := pool[rng.Intn(len(pool))]
				b.BinaryTo(intOps[rng.Intn(len(intOps))], dst, pick(), pick())
			case c == 5: // shift with a safe amount
				amt := b.And(isa.TypeU32, pick(), b.Int(isa.TypeU32, 31))
				op := hsail.OpShl
				if rng.Intn(2) == 0 {
					op = hsail.OpShr
				}
				pool = append(pool, b.Binary(op, isa.TypeU32, pick(), amt))
			case c == 6: // mad, or an exact u32 divide/remainder
				switch rng.Intn(3) {
				case 0:
					pool = append(pool, b.Mad(isa.TypeU32, pick(), pick(), pick()))
				case 1:
					den := b.Or(isa.TypeU32, pick(), b.Int(isa.TypeU32, 1)) // nonzero
					pool = append(pool, b.Div(isa.TypeU32, pick(), den))
				default:
					den := b.Or(isa.TypeU32, pick(), b.Int(isa.TypeU32, 1))
					pool = append(pool, b.Rem(isa.TypeU32, pick(), den))
				}
			case c == 7: // predication
				cnd := b.Cmp(isa.CmpOp(rng.Intn(6)), isa.TypeU32, pick(), pick())
				pool = append(pool, b.Cmov(isa.TypeU32, cnd, pick(), pick()))
			case c == 8: // f32 arithmetic (exact under both ISAs)
				switch rng.Intn(3) {
				case 0:
					fpool = append(fpool, b.Add(isa.TypeF32, pickF(), pickF()))
				case 1:
					fpool = append(fpool, b.Mul(isa.TypeF32, pickF(), pickF()))
				default:
					fpool = append(fpool, b.Fma(isa.TypeF32, pickF(), pickF(), pickF()))
				}
			case c == 9: // data-dependent gather within the input buffer
				idx := b.And(isa.TypeU32, pick(), b.Int(isa.TypeU32, BufWords-1))
				addr := b.Add(isa.TypeU64, inBase,
					b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, idx), b.Int(isa.TypeU64, 2)))
				pool = append(pool, b.Load(hsail.SegGlobal, isa.TypeU32, addr, 0))
			case c == 10 && depth < 2: // divergent if / if-else
				// Values defined inside a divergent region are
				// undefined for lanes that skipped it, so they must
				// not escape: scope the pools to the construct.
				np, nf := len(pool), len(fpool)
				var els func()
				if rng.Intn(2) == 0 {
					els = func() { body(depth+1, 1+rng.Intn(3)) }
				}
				b.IfCmp(isa.CmpOp(rng.Intn(6)), isa.TypeU32, pick(), pick(), func() {
					body(depth+1, 1+rng.Intn(3))
				}, els)
				pool, fpool = pool[:np], fpool[:nf]
			case c == 11 && depth < 2: // bounded data-dependent loop
				np, nf := len(pool), len(fpool)
				limit := b.Add(isa.TypeU32, b.And(isa.TypeU32, pick(), b.Int(isa.TypeU32, 3)), b.Int(isa.TypeU32, 1))
				ctr := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
				inner := 1 + rng.Intn(2)
				b.DoWhile(func() {
					body(depth+1, inner)
					b.BinaryTo(hsail.OpAdd, ctr, ctr, b.Int(isa.TypeU32, 1))
				}, isa.CmpLt, isa.TypeU32, ctr, limit)
				pool, fpool = pool[:np], fpool[:nf]
			default:
				pool = append(pool, b.Binary(hsail.OpXor, isa.TypeU32, pick(), pick()))
			}
		}
	}
	body(0, 4+rng.Intn(10))

	// Fold the live pools into one result and store it.
	acc := pool[0]
	for _, v := range pool[1:] {
		acc = b.Xor(isa.TypeU32, acc, v)
	}
	for _, f := range fpool {
		acc = b.Xor(isa.TypeU32, acc, b.Cvt(isa.TypeU32, b.Abs(isa.TypeF32, f)))
	}
	b.Store(hsail.SegGlobal, acc, outAddr, 0)
	b.Ret()
	if raw {
		return b.FinishRaw()
	}
	return b.Finish()
}
