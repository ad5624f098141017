package emu

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
)

// oneInstKernel wraps a single instruction (then ret) as a kernel with
// enough registers for operand pairs at slots 2, 4, 6 and a result at 8.
func oneInstKernel(in hsail.Inst) *hsail.Kernel {
	return &hsail.Kernel{Name: "one", NumRegSlots: 12, NumCRegs: 2,
		Blocks: []*hsail.Block{{ID: 0, Insts: []hsail.Inst{in, {Op: hsail.OpRet}}}}}
}

// randomizeWave fills every register of both ISAs' state and picks an
// execution mask. Only the pair at slots 2-3 may hold NaNs: which payload a
// commutative float operation returns for two NaN operands depends on the
// operand order the compiler chose for that one expression, so engine and
// reference are only comparable bit for bit with at most one NaN per lane.
func randomizeWave(rng *rand.Rand, w *Wave, exec uint64) {
	for _, regs := range [][]lanes{w.VRegs, w.VGPR} {
		for i := 0; i+1 < len(regs); i += 2 {
			fillOperand(rng, &regs[i], &regs[i+1])
			for l := 0; i != 2 && l < isa.WavefrontSize; l++ {
				if f := f32(uint64(regs[i][l])); f != f {
					regs[i][l] = 0x3FC00000
				}
				if f := f32(uint64(regs[i+1][l])); f != f {
					regs[i+1][l] = 0x3FF80000
				}
			}
		}
	}
	for i := range w.CRegs {
		w.CRegs[i] = rng.Uint64()
	}
	// SGPRs below 16 hold the ABI state; scalar operands use 20 and up,
	// as small integers (never a NaN in any interpretation).
	for i := 20; i < len(w.SGPR); i++ {
		w.SGPR[i] = uint32(rng.Intn(1 << 20))
	}
	w.VCC, w.SCC = rng.Uint64(), rng.Intn(2) == 0
	w.Exec = isa.ExecMask(exec)
}

// copyWave gives dst the architectural state of src.
func copyWave(dst, src *Wave) {
	copy(dst.VRegs, src.VRegs)
	copy(dst.VGPR, src.VGPR)
	copy(dst.CRegs, src.CRegs)
	dst.SGPR, dst.VCC, dst.SCC, dst.Exec, dst.PC = src.SGPR, src.VCC, src.SCC, src.Exec, src.PC
}

// stepAgainstReference executes the instruction at the wave's PC on the
// engine and on the reference interpreter from identical random states and
// reports any difference.
func stepAgainstReference(t *testing.T, what string, eng Engine, w *Wave, ref Engine, wRef *Wave) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(what))))
	pc := w.PC
	for _, exec := range execShapes(rng) {
		w.PC, w.Done = pc, false
		randomizeWave(rng, w, exec)
		copyWave(wRef, w)
		res, err := eng.Execute(w)
		resRef, errRef := ref.Execute(wRef)
		if err != nil || errRef != nil {
			t.Fatalf("%s: errors %v / %v", what, err, errRef)
		}
		if d := diffResults(res, resRef); d != "" {
			t.Fatalf("%s exec %#x: %s", what, exec, d)
		}
		if d := diffWaves(w, wRef); d != "" {
			t.Fatalf("%s exec %#x: %s", what, exec, d)
		}
	}
}

// requireUnimplemented asserts Peek and Execute both refuse the instruction
// at the wave's PC.
func requireUnimplemented(t *testing.T, what string, eng Engine, w *Wave) {
	t.Helper()
	_, perr := eng.Peek(w)
	_, xerr := eng.Execute(w)
	for _, err := range []error{perr, xerr} {
		if err == nil || !strings.HasPrefix(err.Error(), "emu: unimplemented ") {
			t.Fatalf("%s: Peek/Execute returned %v / %v, want an \"emu: unimplemented\" error from both", what, perr, xerr)
		}
	}
}

// TestEveryHSAILOpTypePair drives every ALU opcode with every data type
// (and every source type or comparison for cvt and cmp) through a real
// engine: the pair either executes exactly like the reference interpreter —
// which evaluates lanes with the scalar functions of alu.go — or is refused
// with an error from Peek and Execute. Which of the two is expected is
// stated here, independently of the kernel table, so neither a silent zero
// nor a lost kernel can hide.
func TestEveryHSAILOpTypePair(t *testing.T) {
	types := append([]isa.DataType{isa.TypeNone}, allTypes...)
	ints := map[isa.DataType]bool{isa.TypeB32: true, isa.TypeB64: true, isa.TypeU32: true,
		isa.TypeS32: true, isa.TypeU64: true, isa.TypeS64: true}
	intOnly := map[hsail.Op]bool{hsail.OpMulHi: true, hsail.OpRem: true, hsail.OpAnd: true,
		hsail.OpOr: true, hsail.OpXor: true, hsail.OpNot: true, hsail.OpShl: true, hsail.OpShr: true}
	floatOnly := map[hsail.Op]bool{hsail.OpSqrt: true, hsail.OpRsqrt: true}
	srcs := [3]hsail.Operand{hsail.Reg(2), hsail.Reg(4), hsail.Reg(6)}
	nsrc := map[hsail.Op]uint8{hsail.OpMov: 1, hsail.OpAbs: 1, hsail.OpNeg: 1, hsail.OpNot: 1,
		hsail.OpSqrt: 1, hsail.OpRsqrt: 1, hsail.OpMad: 3, hsail.OpFma: 3}

	run := func(in hsail.Inst, defined bool) {
		t.Helper()
		eng, w := hsailEngineFor(t, oneInstKernel(in))
		what := in.String()
		if !defined {
			requireUnimplemented(t, what, eng, w)
			return
		}
		if _, err := eng.Peek(w); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		engRef, wRef := hsailEngineFor(t, oneInstKernel(in))
		stepAgainstReference(t, what, eng, w, newReferenceEngine(engRef), wRef)
	}

	for op := hsail.OpMov; op <= hsail.OpShr; op++ {
		for _, ty := range types {
			switch op {
			case hsail.OpCvt:
				for _, st := range types {
					run(hsail.Inst{Op: op, Type: ty, SrcType: st, Dst: hsail.Reg(8), Srcs: srcs, NSrc: 1},
						ty != isa.TypeNone && st != isa.TypeNone)
				}
			default:
				n := nsrc[op]
				if n == 0 {
					n = 2
				}
				defined := ty != isa.TypeNone && !(intOnly[op] && !ints[ty]) && !(floatOnly[op] && ints[ty])
				run(hsail.Inst{Op: op, Type: ty, Dst: hsail.Reg(8), Srcs: srcs, NSrc: n}, defined)
			}
		}
	}
	for _, ty := range types {
		for cmp := isa.CmpEq; cmp <= isa.CmpGe; cmp++ {
			run(hsail.Inst{Op: hsail.OpCmp, SrcType: ty, Cmp: cmp, Dst: hsail.CReg(1), Srcs: srcs, NSrc: 2}, ty != isa.TypeNone)
		}
		run(hsail.Inst{Op: hsail.OpCmov, Type: ty, Dst: hsail.Reg(8),
			Srcs: [3]hsail.Operand{hsail.CReg(1), hsail.Reg(2), hsail.Reg(4)}, NSrc: 3}, ty != isa.TypeNone)
	}
	// A cmov condition that is not a control register, an atomic wider
	// than the 32-bit fetch-add, and a 64-bit geometry query have no
	// execution either.
	run(hsail.Inst{Op: hsail.OpCmov, Type: isa.TypeU32, Dst: hsail.Reg(8), Srcs: srcs, NSrc: 3}, false)
	run(hsail.Inst{Op: hsail.OpAtomicAdd, Type: isa.TypeU64, Seg: hsail.SegGroup, Dst: hsail.Reg(8),
		Srcs: srcs, NSrc: 1, Addr: hsail.MemAddr{Base: hsail.Reg(4)}}, false)
	run(hsail.Inst{Op: hsail.OpWorkItemAbsId, Type: isa.TypeU64, Dst: hsail.Reg(8)}, false)
}

// TestEveryGCN3OpTypePair is the same sweep over the vector opcodes of the
// machine ISA, with VGPR, SGPR and constant operands.
func TestEveryGCN3OpTypePair(t *testing.T) {
	types := append([]isa.DataType{isa.TypeNone}, allTypes...)
	float := func(ty isa.DataType) bool { return ty.IsFloat() }
	integer := func(ty isa.DataType) bool { return ty != isa.TypeNone && !ty.IsFloat() }
	typed := func(ty isa.DataType) bool { return ty != isa.TypeNone }
	always := func(isa.DataType) bool { return true }
	defined := map[gcn3.Op]func(isa.DataType) bool{
		gcn3.OpVMov: always, gcn3.OpVNot: always, gcn3.OpVAddc: always, gcn3.OpVMulLo: always, gcn3.OpVMulHi: always,
		gcn3.OpVCndmask: always,
		gcn3.OpVRcp:     float, gcn3.OpVSqrt: float, gcn3.OpVRsq: float, gcn3.OpVDivFixup: float,
		gcn3.OpVAdd: typed, gcn3.OpVSub: typed, gcn3.OpVMul: typed, gcn3.OpVMin: typed, gcn3.OpVMax: typed,
		gcn3.OpVMad: typed, gcn3.OpVFma: typed, gcn3.OpVDivFmas: typed, gcn3.OpVDivScale: typed, gcn3.OpVCmp: typed,
		gcn3.OpVAnd: integer, gcn3.OpVOr: integer, gcn3.OpVXor: integer,
		gcn3.OpVLshl: integer, gcn3.OpVLshr: integer,
		gcn3.OpVAshr: func(ty isa.DataType) bool { return ty.Regs() == 1 },
	}
	operandSets := [][3]gcn3.Operand{
		{gcn3.VReg(2), gcn3.VReg(4), gcn3.VReg(6)},
		{gcn3.SReg(20), gcn3.VReg(4), gcn3.Inline(0x3F800000)},
		{gcn3.Lit(0x12345678), gcn3.SReg(22), gcn3.VReg(4)},
	}
	run := func(in gcn3.Inst, ok bool) {
		t.Helper()
		prog := []gcn3.Inst{in, {Op: gcn3.OpSEndpgm}}
		eng, w := engineFor(t, prog)
		what := in.String()
		if !ok {
			requireUnimplemented(t, what, eng, w)
			return
		}
		if _, err := eng.Peek(w); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		engRef, wRef := engineFor(t, prog)
		stepAgainstReference(t, what, eng, w, newReferenceEngine(engRef), wRef)
	}
	for op := gcn3.OpVMov; op <= gcn3.OpVDivFixup; op++ {
		ok := defined[op]
		if op == gcn3.OpVCvt {
			for _, dt := range types {
				for _, st := range types {
					run(gcn3.Inst{Op: op, Type: dt, SrcType: st, Dst: gcn3.VReg(8), Srcs: operandSets[0]},
						dt != isa.TypeNone && st != isa.TypeNone)
				}
			}
			continue
		}
		if ok == nil {
			t.Fatalf("%s: no expectation", op)
		}
		for _, ty := range types {
			for _, srcs := range operandSets {
				in := gcn3.Inst{Op: op, Type: ty, Cmp: isa.CmpLe, Dst: gcn3.VReg(8), Srcs: srcs}
				switch op {
				case gcn3.OpVAdd, gcn3.OpVSub:
					in.SDst = gcn3.VCC()
				case gcn3.OpVCmp:
					in.Dst = gcn3.SReg(30)
				case gcn3.OpVCndmask:
					in.Srcs[2] = gcn3.SReg(40)
				}
				run(in, ok(ty))
			}
		}
	}
	// A vector result needs a vector register to land in.
	run(gcn3.Inst{Op: gcn3.OpVAdd, Type: isa.TypeU32, Dst: gcn3.SReg(30), Srcs: operandSets[0]}, false)
}

// TestFormerlySilentZeroPairs checks the (operation, type) pairs the
// per-lane interpreter computed as 0 against arithmetic done independently
// of alu.go.
func TestFormerlySilentZeroPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mulHi := func(a, b uint64, signed bool) uint64 {
		x, y := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
		if signed {
			x, y = big.NewInt(int64(a)), big.NewInt(int64(b))
		}
		p := x.Mul(x, y)
		p.Rsh(p, 64) // arithmetic: floors, as the high half of a two's-complement product does
		if signed {
			return uint64(p.Int64())
		}
		return p.Uint64()
	}
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if i%5 == 0 {
			a, b = interesting64[rng.Intn(len(interesting64))], interesting64[rng.Intn(len(interesting64))]
		}
		for _, c := range []struct {
			kind binOpKind
			ty   isa.DataType
			want uint64
		}{
			{binAnd, isa.TypeS64, a & b}, {binOr, isa.TypeS64, a | b}, {binXor, isa.TypeS64, a ^ b},
			{binMulHi, isa.TypeU64, mulHi(a, b, false)}, {binMulHi, isa.TypeB64, mulHi(a, b, false)},
			{binMulHi, isa.TypeS64, mulHi(a, b, true)},
		} {
			if got := binOp(c.kind, c.ty, a, b); got != c.want {
				t.Fatalf("binOp(%d, %s, %#x, %#x) = %#x, want %#x", c.kind, c.ty, a, b, got, c.want)
			}
		}
	}
	// And through an engine, the way kernel.Builder.And(isa.TypeS64, …)
	// reaches it.
	eng, w := hsailEngineFor(t, oneInstKernel(hsail.Inst{Op: hsail.OpAnd, Type: isa.TypeS64,
		Dst: hsail.Reg(8), Srcs: [3]hsail.Operand{hsail.Reg(2), hsail.Imm(0xFFFF0000FFFF0000)}, NSrc: 2}))
	for l := range w.VRegs[2] {
		w.VRegs[2][l], w.VRegs[3][l] = 0x12345678+uint32(l), 0x9ABCDEF0
	}
	if _, err := eng.Execute(w); err != nil {
		t.Fatal(err)
	}
	for l := range w.VRegs[8] {
		if lo, hi := (0x12345678+uint32(l))&0xFFFF0000, uint32(0x9ABC0000); w.VRegs[8][l] != lo || w.VRegs[9][l] != hi {
			t.Fatalf("and_s64 lane %d = %#x:%#x, want %#x:%#x", l, w.VRegs[9][l], w.VRegs[8][l], hi, lo)
		}
	}
}

// TestLDSAddressWrap: LDS addresses at and beyond the end of the allocation,
// including those whose 64-bit arithmetic wrapped, read as 0 and drop writes
// under both engines. (The per-lane interpreter compared after converting
// to int, so 2⁶³ and up went negative, passed the check and panicked.)
func TestLDSAddressWrap(t *testing.T) {
	const ldsBytes = 64
	addrs := []uint64{ldsBytes - 4, ldsBytes - 1, ldsBytes, 1 << 63, ^uint64(0) - 3}

	lds := make([]byte, ldsBytes)
	for i := range lds {
		lds[i] = byte(i + 1)
	}
	for _, a := range addrs {
		want := uint64(0)
		if a == ldsBytes-4 {
			want = 0x403F3E3D
		}
		if got := ldsRead(lds, a, 4); got != want {
			t.Fatalf("ldsRead(%#x, 4) = %#x, want %#x", a, got, want)
		}
		if got := ldsRead(lds, a, 8); got != 0 {
			t.Fatalf("ldsRead(%#x, 8) = %#x, want 0", a, got)
		}
	}

	// HSAIL: ld/st/atomic_group with the address in a register pair.
	k := &hsail.Kernel{Name: "lds", NumRegSlots: 12, GroupSize: ldsBytes, Blocks: []*hsail.Block{{ID: 0, Insts: []hsail.Inst{
		{Op: hsail.OpSt, Type: isa.TypeU32, Seg: hsail.SegGroup, Srcs: [3]hsail.Operand{hsail.Reg(4)}, NSrc: 1,
			Addr: hsail.MemAddr{Base: hsail.Reg(2)}},
		{Op: hsail.OpAtomicAdd, Type: isa.TypeU32, Seg: hsail.SegGroup, Dst: hsail.Reg(6),
			Srcs: [3]hsail.Operand{hsail.Reg(4)}, NSrc: 1, Addr: hsail.MemAddr{Base: hsail.Reg(2)}},
		{Op: hsail.OpLd, Type: isa.TypeU64, Seg: hsail.SegGroup, Dst: hsail.Reg(8),
			Addr: hsail.MemAddr{Base: hsail.Reg(2), Offset: -4}},
		{Op: hsail.OpRet},
	}}}}
	heng, hw := hsailEngineFor(t, k)
	for l, a := range addrs {
		hw.VRegs[2][l], hw.VRegs[3][l] = uint32(a), uint32(a>>32)
		hw.VRegs[4][l] = 0x11111111
	}
	hw.Exec = isa.FullMask(len(addrs))
	for i := 0; i < 3; i++ {
		if _, err := heng.Execute(hw); err != nil {
			t.Fatal(err)
		}
	}
	// Lane 0 is the only in-range store and atomic; the 8-byte load at
	// base-4 is in range for lanes 0 (56) and 1 (59 — no: 59+8 > 64).
	if got := ldsRead(hw.WG.LDS, ldsBytes-4, 4); got != 0x22222222 {
		t.Fatalf("HSAIL: LDS word after st+atomic = %#x, want 0x22222222", got)
	}
	for l := range addrs {
		wantOld, wantLd := uint32(0), uint32(0)
		if l == 0 {
			wantOld, wantLd = 0x11111111, 0x22222222
		}
		if hw.VRegs[6][l] != wantOld || hw.VRegs[9][l] != wantLd {
			t.Fatalf("HSAIL lane %d (addr %#x): atomic returned %#x, ld.hi %#x; want %#x, %#x",
				l, addrs[l], hw.VRegs[6][l], hw.VRegs[9][l], wantOld, wantLd)
		}
	}

	// GCN3: 32-bit register address plus a signed immediate offset.
	geng, gw := engineFor(t, []gcn3.Inst{
		{Op: gcn3.OpDSWriteB32, Srcs: [3]gcn3.Operand{gcn3.VReg(2), gcn3.VReg(4)}, Offset: -8},
		{Op: gcn3.OpDSAddU32, Dst: gcn3.VReg(6), Srcs: [3]gcn3.Operand{gcn3.VReg(2), gcn3.VReg(4)}, Offset: -8},
		{Op: gcn3.OpDSReadB64, Dst: gcn3.VReg(8), Srcs: [3]gcn3.Operand{gcn3.VReg(2)}, Offset: -12},
		{Op: gcn3.OpSEndpgm},
	})
	gw.WG.LDS = make([]byte, ldsBytes)
	// Effective addresses base-8: 60 (in range), 63 and 64 (out), and for
	// bases 4 and 0 the wrapped 2⁶⁴-4 and 2⁶⁴-8.
	bases := []uint32{ldsBytes + 4, ldsBytes + 7, ldsBytes + 8, 4, 0}
	for l, b := range bases {
		gw.VGPR[2][l], gw.VGPR[4][l] = b, 0x11111111
	}
	gw.Exec = isa.FullMask(len(bases))
	for i := 0; i < 3; i++ {
		step(t, geng, gw)
	}
	if got := ldsRead(gw.WG.LDS, ldsBytes-4, 4); got != 0x22222222 {
		t.Fatalf("GCN3: LDS word after ds_write+ds_add = %#x, want 0x22222222", got)
	}
	for l := range bases {
		wantOld, wantLd := uint32(0), uint32(0)
		if l == 0 {
			wantOld, wantLd = 0x11111111, 0x22222222
		}
		if gw.VGPR[6][l] != wantOld || gw.VGPR[9][l] != wantLd {
			t.Fatalf("GCN3 lane %d (base %d): ds_add returned %#x, ds_read.hi %#x; want %#x, %#x",
				l, bases[l], gw.VGPR[6][l], gw.VGPR[9][l], wantOld, wantLd)
		}
	}
}

// TestCompareMaskRules pins what each ISA does with a compare's inactive
// lanes: HSAIL cmp merges under the mask (inactive lanes keep their old
// control-register bit), GCN3 v_cmp and carry-outs replace the whole 64-bit
// destination, so only active lanes can be set.
func TestCompareMaskRules(t *testing.T) {
	const exec = 0x00000000FFFF0000
	heng, hw := hsailEngineFor(t, oneInstKernel(hsail.Inst{Op: hsail.OpCmp, SrcType: isa.TypeU32, Cmp: isa.CmpEq,
		Dst: hsail.CReg(1), Srcs: [3]hsail.Operand{hsail.Reg(2), hsail.Reg(2)}, NSrc: 2}))
	hw.Exec, hw.CRegs[1] = exec, 0xAAAAAAAA55555555
	if _, err := heng.Execute(hw); err != nil {
		t.Fatal(err)
	}
	if want := uint64(0xAAAAAAAA55555555)&^exec | exec; hw.CRegs[1] != want {
		t.Fatalf("HSAIL cmp: $c1 = %#x, want %#x (old bits kept where EXEC is clear)", hw.CRegs[1], want)
	}

	geng, gw := engineFor(t, []gcn3.Inst{
		{Op: gcn3.OpVCmp, Type: isa.TypeU32, Cmp: isa.CmpEq, Dst: gcn3.SReg(30), Srcs: [3]gcn3.Operand{gcn3.VReg(2), gcn3.VReg(2)}},
		{Op: gcn3.OpVAdd, Type: isa.TypeU32, Dst: gcn3.VReg(4), SDst: gcn3.VCC(),
			Srcs: [3]gcn3.Operand{gcn3.Lit(0xFFFFFFFF), gcn3.Inline(1)}},
		{Op: gcn3.OpSEndpgm},
	})
	gw.Exec, gw.VCC = exec, ^uint64(0)
	gw.SGPR[30], gw.SGPR[31] = 0xFFFFFFFF, 0xFFFFFFFF
	step(t, geng, gw)
	step(t, geng, gw)
	if got := uint64(gw.SGPR[30]) | uint64(gw.SGPR[31])<<32; got != exec {
		t.Fatalf("GCN3 v_cmp: s[30:31] = %#x, want %#x (only active lanes set)", got, uint64(exec))
	}
	if gw.VCC != exec {
		t.Fatalf("GCN3 v_add_u32 carry-out: VCC = %#x, want %#x", gw.VCC, uint64(exec))
	}
}
