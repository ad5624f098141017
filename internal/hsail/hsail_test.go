package hsail

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ilsim/internal/isa"
)

// sampleKernel builds a kernel touching every operand form.
func sampleKernel() *Kernel {
	k := &Kernel{
		Name:        "sample",
		NumRegSlots: 16,
		NumCRegs:    2,
		Args: []ArgInfo{
			{Name: "in", Size: 8, Offset: 0},
			{Name: "n", Size: 4, Offset: 8},
		},
		KernargSize: 12,
		GroupSize:   256,
		PrivateSize: 16,
		SpillSize:   8,
	}
	b0 := &Block{ID: 0, Insts: []Inst{
		{Op: OpWorkItemAbsId, Type: isa.TypeU32, Dim: isa.DimX, Dst: Reg(0)},
		{Op: OpLd, Type: isa.TypeU64, Seg: SegKernarg, Dst: Reg(2), Addr: MemAddr{Base: ArgSym(0)}},
		{Op: OpCvt, Type: isa.TypeU64, SrcType: isa.TypeU32, Dst: Reg(4), Srcs: [3]Operand{Reg(0)}, NSrc: 1},
		{Op: OpShl, Type: isa.TypeU64, Dst: Reg(6), Srcs: [3]Operand{Reg(4), Imm(2)}, NSrc: 2},
		{Op: OpAdd, Type: isa.TypeU64, Dst: Reg(8), Srcs: [3]Operand{Reg(2), Reg(6)}, NSrc: 2},
		{Op: OpLd, Type: isa.TypeU32, Seg: SegGlobal, Dst: Reg(10), Addr: MemAddr{Base: Reg(8), Offset: 4}},
		{Op: OpCmp, SrcType: isa.TypeU32, Cmp: isa.CmpLt, Dst: CReg(0), Srcs: [3]Operand{Reg(10), Imm(7)}, NSrc: 2},
		{Op: OpCBr, Srcs: [3]Operand{CReg(0)}, NSrc: 1, Target: 2},
	}}
	b1 := &Block{ID: 1, Insts: []Inst{
		{Op: OpMad, Type: isa.TypeU32, Dst: Reg(11), Srcs: [3]Operand{Reg(10), Reg(10), Imm(3)}, NSrc: 3},
		{Op: OpSt, Type: isa.TypeU32, Seg: SegGlobal, Srcs: [3]Operand{Reg(11)}, NSrc: 1, Addr: MemAddr{Base: Reg(8)}},
	}}
	b2 := &Block{ID: 2, Insts: []Inst{
		{Op: OpBarrier},
		{Op: OpRet},
	}}
	k.Blocks = []*Block{b0, b1, b2}
	return k
}

func TestBRIGRoundTrip(t *testing.T) {
	k := sampleKernel()
	data, err := EncodeBRIG(k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBRIG(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k, got) {
		t.Fatalf("round-trip mismatch:\nin:  %+v\nout: %+v", k, got)
	}
}

func TestBRIGIsVerbose(t *testing.T) {
	// The container must reflect BRIG's design point: far larger than the
	// 8-byte loaded approximation (paper §III.C.3).
	k := sampleKernel()
	data, err := EncodeBRIG(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 5*k.CodeBytes() {
		t.Fatalf("BRIG %d bytes is not verbose vs %d loaded bytes", len(data), k.CodeBytes())
	}
}

func TestBRIGRejectsCorruption(t *testing.T) {
	k := sampleKernel()
	data, _ := EncodeBRIG(k)
	if _, err := DecodeBRIG(data[:8]); err == nil {
		t.Fatal("truncated container accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeBRIG(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestBRIGRejectsCountsBeyondInput: a count that the remaining bytes cannot
// hold is refused before anything is allocated for it — an instruction count
// of 2^24-1 once cost the decoder a 1.9 GB slice.
func TestBRIGRejectsCountsBeyondInput(t *testing.T) {
	data, err := EncodeBRIG(&Kernel{Name: "k", Blocks: []*Block{{Insts: []Inst{{Op: OpRet}}}}})
	if err != nil {
		t.Fatal(err)
	}
	// The instruction count follows the block count: magic, version, name,
	// six sizes, the argument and block counts.
	at := 8 + 4 + 4 + len("k") + 6*4 + 4 + 4
	binary.LittleEndian.PutUint32(data[at:], 1<<24-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeBRIG(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible instruction count") {
		t.Fatalf("oversized instruction count: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding allocated %d bytes before refusing the count", grew)
	}
}

func TestBRIGRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ops := []Op{OpAdd, OpSub, OpMul, OpMin, OpMax, OpAnd, OpOr, OpXor, OpShl, OpShr}
	types := []isa.DataType{isa.TypeU32, isa.TypeS32, isa.TypeF32}
	for iter := 0; iter < 100; iter++ {
		k := &Kernel{Name: "rand", NumRegSlots: 32}
		b := &Block{ID: 0}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			in := Inst{
				Op:   ops[rng.Intn(len(ops))],
				Type: types[rng.Intn(len(types))],
				Dst:  Reg(rng.Intn(31)),
				Srcs: [3]Operand{Reg(rng.Intn(31)), Imm(rng.Uint64())},
				NSrc: 2,
			}
			b.Insts = append(b.Insts, in)
		}
		b.Insts = append(b.Insts, Inst{Op: OpRet})
		k.Blocks = []*Block{b}
		data, err := EncodeBRIG(k)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := DecodeBRIG(data)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(k, got) {
			t.Fatalf("iter %d: mismatch", iter)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*Kernel){
		func(k *Kernel) { k.Blocks[0].Insts[7].Target = 99 },           // bad branch target
		func(k *Kernel) { k.Blocks[0].Insts[0].Dst = Reg(100) },        // register out of range
		func(k *Kernel) { k.Blocks[0].Insts[6].Dst = CReg(9) },         // creg out of range
		func(k *Kernel) { k.Blocks[0].Insts[1].Addr.Base = ArgSym(5) }, // bad arg symbol
		func(k *Kernel) { k.Blocks = k.Blocks[:0] },                    // empty kernel
	}
	for i, mutate := range cases {
		k := sampleKernel()
		mutate(k)
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: corruption not caught", i)
		}
	}
	if err := sampleKernel().Validate(); err != nil {
		t.Fatalf("pristine kernel rejected: %v", err)
	}
}

func TestDisassemblyMentionsEveryInstruction(t *testing.T) {
	k := sampleKernel()
	asm := k.Disassemble()
	for _, frag := range []string{"workitemabsid", "ld_kernarg", "cvt_u64_u32",
		"shl_u64", "ld_global_u32", "cmp_lt_u32", "cbr", "mad_u32",
		"st_global_u32", "barrier", "ret", "@BB2"} {
		if !strings.Contains(asm, frag) {
			t.Errorf("disassembly missing %q:\n%s", frag, asm)
		}
	}
}

func TestOpCategories(t *testing.T) {
	// HSAIL never produces scalar or waitcnt categories (Fig 5 caption).
	for op := Op(0); op < Op(NumOps); op++ {
		switch op.Category() {
		case isa.CatSALU, isa.CatSMem, isa.CatWaitcnt, isa.CatLDS:
			t.Errorf("HSAIL op %s claims machine-only category %s", op, op.Category())
		}
	}
	if OpLd.Category() != isa.CatVMem || OpCBr.Category() != isa.CatBranch ||
		OpBarrier.Category() != isa.CatMisc || OpFma.Category() != isa.CatVALU {
		t.Error("category misclassification")
	}
}

func TestCodeBytes(t *testing.T) {
	k := sampleKernel()
	if k.NumInsts() != 12 {
		t.Fatalf("NumInsts %d", k.NumInsts())
	}
	if k.CodeBytes() != 12*InstBytes {
		t.Fatalf("CodeBytes %d", k.CodeBytes())
	}
}

// TestOperandsWalk pins the operand rule every pass and decoder asks: the
// destination first, then the sources, then the address base, each with the
// type it is accessed at and whether the instruction defines it.
func TestOperandsWalk(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		// lda writes a u64 whatever its type says; the base is a u64 pair.
		{Inst{Op: OpLda, Type: isa.TypeU32, Seg: SegPrivate, Dst: Reg(4), Addr: MemAddr{Base: Reg(2), Offset: 8}},
			"w $d[4:5] u64, r $d[2:3] u64"},
		// cmov's first source is a control register.
		{Inst{Op: OpCmov, Type: isa.TypeU32, Dst: Reg(3), Srcs: [3]Operand{CReg(1), Reg(1), Imm(7)}, NSrc: 3},
			"w $s3 u32, r $c1 none, r $s1 u32, r 7 u32"},
		// cvt reads at SrcType and writes at Type.
		{Inst{Op: OpCvt, Type: isa.TypeF64, SrcType: isa.TypeU32, Dst: Reg(2), Srcs: [3]Operand{Reg(0)}, NSrc: 1},
			"w $d[2:3] f64, r $s0 u32"},
		// cmp defines a control register and reads at SrcType.
		{Inst{Op: OpCmp, SrcType: isa.TypeF64, Cmp: isa.CmpLt, Dst: CReg(0), Srcs: [3]Operand{Reg(0), Reg(2)}, NSrc: 2},
			"w $c0 none, r $d[0:1] f64, r $d[2:3] f64"},
		// st has no destination: its record is still visited, absent.
		{Inst{Op: OpSt, Type: isa.TypeU32, Seg: SegGlobal, Srcs: [3]Operand{Reg(5)}, NSrc: 1, Addr: MemAddr{Base: Reg(0), Offset: 4}},
			"w _ u32, r $s5 u32, r $d[0:1] u64"},
		{Inst{Op: OpAtomicAdd, Type: isa.TypeU32, Seg: SegGlobal, Dst: Reg(6), Srcs: [3]Operand{Reg(5)}, NSrc: 1, Addr: MemAddr{Base: Reg(0)}},
			"w $s6 u32, r $s5 u32, r $d[0:1] u64"},
		// A kernarg load names its base by argument symbol, in no register.
		{Inst{Op: OpLd, Type: isa.TypeU64, Seg: SegKernarg, Dst: Reg(0), Addr: MemAddr{Base: ArgSym(1)}},
			"w $d[0:1] u64, r %arg1 u64"},
		{Inst{Op: OpAdd, Type: isa.TypeU64, Dst: Reg(4), Srcs: [3]Operand{Reg(0), Reg(2)}, NSrc: 2},
			"w $d[4:5] u64, r $d[0:1] u64, r $d[2:3] u64"},
		// Only an instruction that HasAddr visits Addr.
		{Inst{Op: OpCBr, Srcs: [3]Operand{CReg(2)}, NSrc: 1, Addr: MemAddr{Base: Reg(0)}},
			"w _ none, r $c2 none"},
	}
	for _, c := range cases {
		var got []string
		c.in.Operands(func(o *Operand, ty isa.DataType, def bool) {
			rw := "r "
			if def {
				rw = "w "
			}
			s := regString(*o, ty)
			if o.Kind == OperNone {
				s = "_"
			}
			got = append(got, rw+s+" "+ty.String())
		})
		if g := strings.Join(got, ", "); g != c.want {
			t.Errorf("%s:\n got  %s\n want %s", &c.in, g, c.want)
		}
	}
}

// TestRegisterOperandSpanningNoSlotIsRefused: a register operand whose type
// spans no slot names no register, and Validate and the BRIG decoder refuse
// it. `mov_none $s2, $s2` once passed both with NumRegSlots 2, since
// 2+0 slots do not exceed the demand, and then indexed slot 2 in the
// uniformity analysis the finalizer runs.
func TestRegisterOperandSpanningNoSlotIsRefused(t *testing.T) {
	k := &Kernel{Name: "k", NumRegSlots: 2, Blocks: []*Block{{Insts: []Inst{
		{Op: OpMov, Type: isa.TypeNone, Dst: Reg(2), Srcs: [3]Operand{Reg(2)}, NSrc: 1},
		{Op: OpRet},
	}}}}
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "spans no slot") {
		t.Fatalf("Validate: %v", err)
	}

	// The same kernel as bytes: encode `mov_u32 $s1, $s1`, then patch the
	// type byte and both operand records' registers.
	k.Blocks[0].Insts[0] = Inst{Op: OpMov, Type: isa.TypeU32, Dst: Reg(1), Srcs: [3]Operand{Reg(1)}, NSrc: 1}
	data, err := EncodeBRIG(k)
	if err != nil {
		t.Fatal(err)
	}
	at := 8 + 4 + 4 + len("k") + 6*4 + 4 + 4 + 4 // the first instruction record
	data[at+3] = byte(isa.TypeNone)
	for _, oper := range []int{at + instRecordSize, at + instRecordSize + operandRecordSize} {
		binary.LittleEndian.PutUint16(data[oper+2:], 2)
	}
	if _, err := DecodeBRIG(data); err == nil || !strings.Contains(err.Error(), "spans no slot") {
		t.Fatalf("DecodeBRIG: %v", err)
	}
}
