package emu

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ilsim/internal/isa"
)

// The kernel differential: every entry of the kernel tables against the
// scalar semantics of alu.go, lane by lane, under every execution-mask
// shape and every way the destination can alias a source.

var allTypes = []isa.DataType{
	isa.TypeB32, isa.TypeB64, isa.TypeU32, isa.TypeS32,
	isa.TypeU64, isa.TypeS64, isa.TypeF32, isa.TypeF64,
}

// kernelCase is one table entry with its scalar oracle.
type kernelCase struct {
	name string
	kern laneKernel
	srcW []int // registers each source spans, as the kernel reads it
	dstW int   // 0: the kernel only produces a mask
	resT isa.DataType
	// oracle computes one lane: the destination value and, for mask
	// kernels, whether the lane's bit is set. in is the lane's mask-input
	// bit (select condition, carry-in).
	oracle func(a, b, c uint64, in bool) (uint64, bool)
}

// laneOpNames names the table's operations in test output.
var laneOpNames = [numLaneOps]string{
	opNone: "none", opMov: "mov", opAdd: "add", opSub: "sub", opMul: "mul",
	opMulHi: "mulhi", opDiv: "div", opRem: "rem", opMin: "min", opMax: "max",
	opAnd: "and", opOr: "or", opXor: "xor", opShl: "shl", opShr: "shr",
	opFma: "fma", opAbs: "abs", opNeg: "neg", opNot: "not", opSqrt: "sqrt",
	opRsqrt: "rsqrt", opRcp: "rcp", opSel: "sel", opDivFixup: "divfixup",
	opAddCO: "add-carry-out", opSubBO: "sub-borrow-out", opAddC: "add-carry-in",
}

func (op laneOp) String() string { return laneOpNames[op] }

var binKinds = map[laneOp]binOpKind{
	opAdd: binAdd, opSub: binSub, opMul: binMul, opMulHi: binMulHi, opDiv: binDiv,
	opRem: binRem, opMin: binMin, opMax: binMax, opAnd: binAnd, opOr: binOr,
	opXor: binXor, opShl: binShl, opShr: binShr,
}

var unKinds = map[laneOp]unOpKind{
	opAbs: unAbs, opNeg: unNeg, opNot: unNot, opSqrt: unSqrt, opRsqrt: unRsqrt, opRcp: unRcp,
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// kernelCases enumerates every non-nil entry of the three kernel tables.
// An entry the AVX2 overlay replaced (kernels_amd64.go) is enumerated twice:
// as the generated kernel and, suffixed "/avx2", as its replacement.
func kernelCases() []kernelCase {
	var cases []kernelCase
	for op := opNone + 1; op < numLaneOps; op++ {
		for _, t := range allTypes {
			k := kernelFor(op, t)
			if k == nil {
				continue
			}
			op, t := op, t
			w := t.Regs()
			c := kernelCase{name: fmt.Sprintf("%s_%s", op, t), kern: k, dstW: w, resT: t}
			_, isBin := binKinds[op]
			switch {
			case op == opMov:
				c.srcW = []int{w}
				c.oracle = func(a, _, _ uint64, _ bool) (uint64, bool) { return a, false }
			case op == opShl || op == opShr:
				c.srcW = []int{w, 1}
				c.oracle = func(a, b, _ uint64, _ bool) (uint64, bool) { return binOp(binKinds[op], t, a, b), false }
			case isBin:
				c.srcW = []int{w, w}
				c.oracle = func(a, b, _ uint64, _ bool) (uint64, bool) { return binOp(binKinds[op], t, a, b), false }
			case op == opFma:
				c.srcW = []int{w, w, w}
				c.oracle = func(a, b, cc uint64, _ bool) (uint64, bool) { return fma(t, a, b, cc), false }
			case op == opDivFixup:
				c.srcW = []int{w, w, w}
				c.oracle = func(a, b, cc uint64, _ bool) (uint64, bool) { return divFixup(t, a, b, cc), false }
			case op == opSel:
				c.srcW = []int{w, w}
				c.oracle = func(a, b, _ uint64, in bool) (uint64, bool) {
					if in {
						return a, false
					}
					return b, false
				}
			case op == opAddCO:
				c.srcW = []int{1, 1}
				c.oracle = func(a, b, _ uint64, _ bool) (uint64, bool) { return uint64(uint32(a + b)), a+b > math.MaxUint32 }
			case op == opSubBO:
				c.srcW = []int{1, 1}
				c.oracle = func(a, b, _ uint64, _ bool) (uint64, bool) { return uint64(uint32(a - b)), b > a }
			case op == opAddC:
				c.srcW = []int{1, 1}
				c.oracle = func(a, b, _ uint64, in bool) (uint64, bool) {
					s := a + b + bit(in)
					return uint64(uint32(s)), s > math.MaxUint32
				}
			default:
				c.srcW = []int{w}
				c.oracle = func(a, _, _ uint64, _ bool) (uint64, bool) { return unOp(unKinds[op], t, a), false }
			}
			for _, s := range avx2Kernels {
				if sameKernel(k, s.fast) {
					fast := c
					fast.name += "/avx2"
					c.kern = s.portable
					cases = append(cases, fast)
				}
			}
			cases = append(cases, c)
		}
	}
	for cmp := isa.CmpEq; cmp <= isa.CmpGe; cmp++ {
		for _, t := range allTypes {
			if k := cmpKernelFor(cmp, t); k != nil {
				cmp, t := cmp, t
				cases = append(cases, kernelCase{
					name: fmt.Sprintf("cmp_%s_%s", cmp, t), kern: k, srcW: []int{t.Regs(), t.Regs()},
					oracle: func(a, b, _ uint64, _ bool) (uint64, bool) { return 0, compare(cmp, t, a, b) },
				})
			}
		}
	}
	for _, dt := range allTypes {
		for _, st := range allTypes {
			if k := cvtKernelFor(dt, st); k != nil {
				dt, st := dt, st
				cases = append(cases, kernelCase{
					name: fmt.Sprintf("cvt_%s_%s", dt, st), kern: k, srcW: []int{st.Regs()}, dstW: dt.Regs(), resT: dt,
					oracle: func(a, _, _ uint64, _ bool) (uint64, bool) { return convert(dt, st, a), false },
				})
			}
		}
	}
	return cases
}

// interesting32/64 seed operand lanes with the values arithmetic goes wrong
// on: NaN, infinities, signed zeros, denormals, extreme integers, zero
// divisors.
var interesting64 = []uint64{
	0, 1, 2, 63, 64, ^uint64(0), 1 << 63, 1<<63 - 1, 1 << 31, 1 << 32, 0xFFFFFFFF,
	math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.SmallestNonzeroFloat64),
	math.Float64bits(-math.MaxFloat64), math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(1e300),
	0xFFF8000000000000, // the NaN 0/0 produces
}

var interesting32 = []uint32{
	0, 1, 2, 31, 32, ^uint32(0), 1 << 31, 1<<31 - 1,
	math.Float32bits(float32(math.NaN())), math.Float32bits(float32(math.Inf(1))), math.Float32bits(float32(math.Inf(-1))),
	math.Float32bits(float32(math.Copysign(0, -1))), math.Float32bits(math.SmallestNonzeroFloat32),
	math.Float32bits(-math.MaxFloat32), math.Float32bits(1.5), math.Float32bits(-2.25), math.Float32bits(3e38),
	0xFFC00000,
}

// fillOperand gives a register pair random or interesting lane values.
func fillOperand(rng *rand.Rand, lo, hi *lanes) {
	for l := range lo {
		switch rng.Intn(3) {
		case 0:
			v := interesting64[rng.Intn(len(interesting64))]
			lo[l], hi[l] = uint32(v), uint32(v>>32)
		case 1:
			lo[l], hi[l] = interesting32[rng.Intn(len(interesting32))], rng.Uint32()
		default:
			lo[l], hi[l] = rng.Uint32(), rng.Uint32()
		}
	}
}

// aliasMode says how the destination overlaps the sources.
type aliasMode int

const (
	aliasNone   aliasMode = iota
	aliasSrc0             // dst is source 0's register(s)
	aliasSrc1             // dst is source 1's
	aliasSrc2             // dst is source 2's
	aliasLoOnHi           // dst.lo is source 0's hi register
	aliasHiOnLo           // dst.hi is source 0's lo register
	numAliasModes
)

// execShapes returns the execution masks of the differential.
func execShapes(rng *rand.Rand) []uint64 {
	return []uint64{
		0, 1 << uint(rng.Intn(64)), fullExec, uint64(isa.FullMask(1 + rng.Intn(63))),
		rng.Uint64(), rng.Uint64() & rng.Uint64() & rng.Uint64(),
	}
}

// checkKernel runs one kernel once on a random register file and compares
// every register of the file, lane by lane, with what the scalar oracle
// says it must hold — so a lane written under a clear EXEC bit, a source
// clobbered before a later lane read it, or a wrong mask bit are all
// reported.
func checkKernel(c kernelCase, rng *rand.Rand, exec uint64, alias aliasMode) error {
	// Sources sit at slots 4, 8, 12 (pairs with room either side).
	var regs [20]lanes
	for i := 0; i < len(regs); i += 2 {
		fillOperand(rng, &regs[i], &regs[i+1])
	}
	srcSlot := [3]int{4, 8, 12}
	dstSlot := 16
	switch alias {
	case aliasSrc0, aliasSrc1, aliasSrc2:
		if i := int(alias - aliasSrc0); i < len(c.srcW) {
			dstSlot = srcSlot[i]
		}
	case aliasLoOnHi:
		dstSlot = srcSlot[0] + 1
	case aliasHiOnLo:
		dstSlot = srcSlot[0] - 1
	}
	before := regs
	maskIn := rng.Uint64()

	var x laneArgs
	for i, w := range c.srcW {
		x.src[i] = lanePair{lo: &regs[srcSlot[i]], hi: &zeroLanes}
		if w == 2 {
			x.src[i].hi = &regs[srcSlot[i]+1]
		}
	}
	if c.dstW != 0 {
		x.dst = dstPair(regs[:], uint16(dstSlot), uint8(c.dstW))
	}
	x.mask = maskIn
	got := c.kern(&x, exec)

	want := before
	var wantMask uint64
	operand := func(i, l int) uint64 {
		if i >= len(c.srcW) {
			return 0
		}
		v := uint64(before[srcSlot[i]][l])
		if c.srcW[i] == 2 {
			v |= uint64(before[srcSlot[i]+1][l]) << 32
		}
		return v
	}
	for l := 0; l < isa.WavefrontSize; l++ {
		if exec>>uint(l)&1 == 0 {
			continue
		}
		r, pred := c.oracle(operand(0, l), operand(1, l), operand(2, l), maskIn>>uint(l)&1 != 0)
		if pred {
			wantMask |= 1 << uint(l)
		}
		// Which NaN a commutative float operation returns for two NaN
		// inputs depends on the operand order the compiler picked for
		// that one expression; any NaN matches any NaN.
		if got := uint64(regs[dstSlot][l]) | uint64(regs[dstSlot+1][l])<<32; c.dstW != 0 &&
			(c.resT == isa.TypeF32 && f32(r) != f32(r) && f32(got) != f32(got) ||
				c.resT == isa.TypeF64 && f64v(r) != f64v(r) && f64v(got) != f64v(got)) {
			r = got
		}
		if c.dstW != 0 {
			want[dstSlot][l] = uint32(r)
		}
		if c.dstW == 2 {
			want[dstSlot+1][l] = uint32(r >> 32)
		}
	}
	if got != wantMask {
		return fmt.Errorf("%s exec %#x alias %d: mask %#x, want %#x", c.name, exec, alias, got, wantMask)
	}
	for r := range regs {
		for l := range regs[r] {
			if regs[r][l] != want[r][l] {
				active := exec>>uint(l)&1 != 0
				return fmt.Errorf("%s exec %#x alias %d: register %d lane %d (active %v) = %#x, want %#x (operands %#x %#x %#x)",
					c.name, exec, alias, r, l, active, regs[r][l], want[r][l], operand(0, l), operand(1, l), operand(2, l))
			}
		}
	}
	if zeroLanes != (lanes{}) {
		return fmt.Errorf("%s: wrote the shared zero register", c.name)
	}
	return nil
}

func TestKernelsMatchScalarALU(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases := kernelCases()
	if len(cases) < 250 {
		t.Fatalf("only %d table entries enumerated", len(cases))
	}
	for _, c := range cases {
		for alias := aliasNone; alias < numAliasModes; alias++ {
			for _, exec := range execShapes(rng) {
				if err := checkKernel(c, rng, exec, alias); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func FuzzLaneKernels(f *testing.F) {
	cases := kernelCases()
	f.Add(uint16(0), int64(1), fullExec, uint8(0))
	f.Add(uint16(77), int64(2), uint64(0x8421), uint8(4))
	f.Add(uint16(300), int64(3), uint64(1)<<63, uint8(5))
	f.Fuzz(func(t *testing.T, which uint16, seed int64, exec uint64, alias uint8) {
		c := cases[int(which)%len(cases)]
		if err := checkKernel(c, rand.New(rand.NewSource(seed)), exec, aliasMode(alias%uint8(numAliasModes))); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKernelChecksCatchBrokenKernels proves the differential has teeth:
// each way a kernel can be wrong that the invariants talk about is
// detected by checkKernel.
func TestKernelChecksCatchBrokenKernels(t *testing.T) {
	add64 := func(x *laneArgs, l int) (uint32, uint32) {
		r := (uint64(x.src[0].lo[l]) | uint64(x.src[0].hi[l])<<32) + (uint64(x.src[1].lo[l]) | uint64(x.src[1].hi[l])<<32)
		return uint32(r), uint32(r >> 32)
	}
	oracleAdd64 := func(a, b, _ uint64, _ bool) (uint64, bool) { return a + b, false }
	broken := []struct {
		why   string
		c     kernelCase
		exec  uint64
		alias aliasMode
	}{
		{"stores to lanes EXEC masks off", kernelCase{name: "unmasked-store", srcW: []int{2, 2}, dstW: 2, oracle: oracleAdd64,
			kern: func(x *laneArgs, exec uint64) uint64 {
				for l := 0; l < isa.WavefrontSize; l++ {
					x.dst.lo[l], x.dst.hi[l] = add64(x, l)
				}
				return 0
			}}, 0x00FF00FF00FF00FF, aliasNone},
		{"writes dst.lo before reading the source half it overlaps", kernelCase{name: "write-before-read", srcW: []int{2, 2}, dstW: 2, oracle: oracleAdd64,
			kern: func(x *laneArgs, exec uint64) uint64 {
				for l := 0; l < isa.WavefrontSize; l++ {
					lo, _ := add64(x, l)
					x.dst.lo[l] = lo
					_, hi := add64(x, l) // re-reads src0.hi, now clobbered
					x.dst.hi[l] = hi
				}
				return 0
			}}, fullExec, aliasLoOnHi},
		{"writes every lane's high half before reading the low halves", kernelCase{name: "half-at-a-time", srcW: []int{2, 2}, dstW: 2, oracle: oracleAdd64,
			kern: func(x *laneArgs, exec uint64) uint64 {
				for l := 0; l < isa.WavefrontSize; l++ {
					_, x.dst.hi[l] = add64(x, l)
				}
				for l := 0; l < isa.WavefrontSize; l++ {
					x.dst.lo[l], _ = add64(x, l) // src0.lo is dst.hi: already overwritten
				}
				return 0
			}}, fullExec, aliasHiOnLo},
		{"sets compare bits for inactive lanes", kernelCase{name: "unmasked-compare", srcW: []int{1, 1},
			oracle: func(a, b, _ uint64, _ bool) (uint64, bool) { return 0, a <= math.MaxUint32 },
			kern: func(x *laneArgs, exec uint64) uint64 {
				var m uint64
				for l := 0; l < isa.WavefrontSize; l++ {
					if uint64(x.src[0].lo[l]) <= math.MaxUint32 {
						m |= 1 << uint(l)
					}
				}
				return m
			}}, 0xF0F0, aliasNone},
		{"computes the wrong value", kernelCase{name: "wrong-value", srcW: []int{2, 2}, dstW: 2, oracle: oracleAdd64,
			kern: kernelFor(opSub, isa.TypeU64)}, fullExec, aliasNone},
		{"runs its full-wave path under a partial mask", kernelCase{name: "full-path-always", srcW: []int{2, 2}, dstW: 2, oracle: oracleAdd64,
			kern: func(x *laneArgs, exec uint64) uint64 { return kernelFor(opAdd, isa.TypeU64)(x, fullExec) }}, 0xFFFF0000FFFFFFFF, aliasNone},
		{"computes the wrong value on its full-wave path", kernelCase{name: "wrong-full-path", srcW: []int{2, 2}, dstW: 2,
			oracle: func(a, b, _ uint64, _ bool) (uint64, bool) { return a - b, false },
			kern:   kernelFor(opAdd, isa.TypeU64)}, fullExec, aliasNone},
		{"stores a four-lane block's low halves before loading its high halves", kernelCase{name: "block-write-before-read", srcW: []int{2, 2}, dstW: 2, oracle: oracleAdd64,
			kern: func(x *laneArgs, exec uint64) uint64 {
				for b := 0; b < isa.WavefrontSize; b += 4 {
					var hi [4]uint32
					for l := b; l < b+4; l++ {
						x.dst.lo[l], _ = add64(x, l)
					}
					for l := b; l < b+4; l++ {
						_, hi[l-b] = add64(x, l) // src0.hi is dst.lo: this block's lanes are overwritten
					}
					copy(x.dst.hi[b:b+4], hi[:])
				}
				return 0
			}}, fullExec, aliasLoOnHi},
	}
	for _, b := range broken {
		if checkKernel(b.c, rand.New(rand.NewSource(1)), b.exec, b.alias) == nil {
			t.Errorf("a kernel that %s passed the differential", b.why)
		}
	}
}

// TestAVX2KernelsSelected: the table holds the AVX2 kernels exactly when
// the CPU can run them. Where the overlay is built, every entry that mapped
// to a replaced kernel holds its wrapper when CPUID reports AVX2, FMA and
// YMM state, and the generated kernel otherwise.
func TestAVX2KernelsSelected(t *testing.T) {
	selected := cpuHasAVX2FMA()
	for _, s := range avx2Kernels {
		var portable, fast int
		for op := range laneKernels {
			for _, k := range laneKernels[op] {
				switch {
				case k == nil:
				case sameKernel(k, s.portable):
					portable++
				case sameKernel(k, s.fast):
					fast++
				}
			}
		}
		if selected && (portable != 0 || fast == 0) || !selected && (fast != 0 || portable == 0) {
			t.Errorf("AVX2 selected=%v, but the table maps %d entries to %s and %d to its replacement",
				selected, portable, runtime.FuncForPC(reflect.ValueOf(s.portable).Pointer()).Name(), fast)
		}
	}
	if len(avx2Kernels) == 0 {
		t.Logf("built without the AVX2 kernels (%s, or the purego tag): the generated kernels run", runtime.GOARCH)
	}
}
