package gcn3

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ilsim/internal/isa"
)

// sampleInsts covers every format and the tricky encodings.
func sampleInsts() []Inst {
	return []Inst{
		// SOP1
		{Op: OpSMov, Type: isa.TypeB32, Dst: SReg(6), Srcs: [3]Operand{Lit(0xDEADBEEF)}},
		{Op: OpSMov, Type: isa.TypeB64, Dst: SReg(12), Srcs: [3]Operand{{Kind: OperEXEC}}},
		{Op: OpSAndSaveexec, Type: isa.TypeB64, Dst: SReg(14), Srcs: [3]Operand{{Kind: OperVCC}}},
		{Op: OpSNot, Type: isa.TypeB64, Dst: SReg(20), Srcs: [3]Operand{SReg(22)}},
		// SOP2
		{Op: OpSAdd, Type: isa.TypeU32, Dst: SReg(4), Srcs: [3]Operand{SReg(5), Inline(7)}},
		{Op: OpSMul, Type: isa.TypeS32, Dst: SReg(4), Srcs: [3]Operand{SReg(4), SReg(8)}},
		{Op: OpSBfe, Type: isa.TypeU32, Dst: SReg(4), Srcs: [3]Operand{SReg(10), Lit(0x100000)}},
		{Op: OpSAndN2, Type: isa.TypeB64, Dst: Operand{Kind: OperEXEC}, Srcs: [3]Operand{SReg(14), {Kind: OperVCC}}},
		// SOPC
		{Op: OpSCmp, Type: isa.TypeU32, Cmp: isa.CmpLt, Srcs: [3]Operand{SReg(3), Inline(64)}},
		// SOPP
		{Op: OpSEndpgm},
		{Op: OpSBarrier},
		{Op: OpSNop, SImm: 3},
		{Op: OpSWaitcnt, VMCnt: 0, LGKMCnt: -1},
		{Op: OpSWaitcnt, VMCnt: -1, LGKMCnt: 0},
		{Op: OpSWaitcnt, VMCnt: 2, LGKMCnt: 1},
		// SMEM
		{Op: OpSLoadDword, Dst: SReg(10), Srcs: [3]Operand{SReg(4)}, Offset: 0x04},
		{Op: OpSLoadDwordx2, Dst: SReg(16), Srcs: [3]Operand{SReg(6)}, Offset: 0x10},
		{Op: OpSLoadDwordx4, Dst: SReg(24), Srcs: [3]Operand{SReg(4)}, Offset: 0x30},
		// VOP1
		{Op: OpVMov, Type: isa.TypeB32, Dst: VReg(1), Srcs: [3]Operand{SReg(6)}},
		{Op: OpVMov, Type: isa.TypeB32, Dst: VReg(2), Srcs: [3]Operand{Lit(12345)}},
		{Op: OpVRcp, Type: isa.TypeF64, Dst: VReg(7), Srcs: [3]Operand{VReg(3)}},
		{Op: OpVCvt, Type: isa.TypeF32, SrcType: isa.TypeU32, Dst: VReg(9), Srcs: [3]Operand{VReg(4)}},
		{Op: OpVCvt, Type: isa.TypeF64, SrcType: isa.TypeF32, Dst: VReg(10), Srcs: [3]Operand{VReg(9)}},
		// VOP2
		{Op: OpVAdd, Type: isa.TypeU32, Dst: VReg(117), SDst: VCC(), Srcs: [3]Operand{SReg(4), VReg(0)}},
		{Op: OpVSub, Type: isa.TypeF32, Dst: VReg(5), Srcs: [3]Operand{VReg(6), VReg(7)}},
		{Op: OpVMul, Type: isa.TypeF32, Dst: VReg(5), Srcs: [3]Operand{Inline(math.Float32bits(2.0)), VReg(7)}},
		{Op: OpVAnd, Type: isa.TypeB32, Dst: VReg(1), Srcs: [3]Operand{Lit(0xFF), VReg(2)}},
		{Op: OpVLshl, Type: isa.TypeB32, Dst: VReg(3), Srcs: [3]Operand{Inline(2), VReg(3)}},
		{Op: OpVCndmask, Type: isa.TypeB32, Dst: VReg(8), Srcs: [3]Operand{VReg(1), VReg(2), VCC()}},
		// VOPC
		{Op: OpVCmp, Type: isa.TypeU32, Cmp: isa.CmpGe, Dst: VCC(), Srcs: [3]Operand{SReg(9), VReg(3)}},
		// VOP3 (native)
		{Op: OpVMulLo, Type: isa.TypeU32, Dst: VReg(4), Srcs: [3]Operand{VReg(5), VReg(6)}},
		{Op: OpVMad, Type: isa.TypeU32, Dst: VReg(4), Srcs: [3]Operand{VReg(5), SReg(8), VReg(0)}},
		{Op: OpVFma, Type: isa.TypeF64, Dst: VReg(10), Srcs: [3]Operand{VReg(12), VReg(14), Inline(math.Float32bits(1.0))}},
		{Op: OpVDivScale, Type: isa.TypeF64, Dst: VReg(3), SDst: VCC(), Srcs: [3]Operand{VReg(1), VReg(1), SReg(4)}},
		{Op: OpVDivFmas, Type: isa.TypeF64, Dst: VReg(3), Srcs: [3]Operand{VReg(3), VReg(7), VReg(9)}},
		{Op: OpVDivFixup, Type: isa.TypeF64, Dst: VReg(1), Srcs: [3]Operand{VReg(3), VReg(1), SReg(4)}},
		// VOP3 promotions
		{Op: OpVCmp, Type: isa.TypeF64, Cmp: isa.CmpLt, Dst: SReg(20), Srcs: [3]Operand{VReg(2), VReg(4)}},
		{Op: OpVCndmask, Type: isa.TypeB32, Dst: VReg(8), Srcs: [3]Operand{VReg(1), VReg(2), SReg(30)}},
		{Op: OpVAdd, Type: isa.TypeF64, Dst: VReg(20), Srcs: [3]Operand{VReg(22), VReg(24)}},
		// FLAT
		{Op: OpFlatLoadDword, Dst: VReg(3), Srcs: [3]Operand{VReg(1)}},
		{Op: OpFlatLoadDwordx2, Dst: VReg(4), Srcs: [3]Operand{VReg(1)}},
		{Op: OpFlatStoreDword, Srcs: [3]Operand{VReg(1), VReg(3)}},
		{Op: OpFlatStoreDwordx2, Srcs: [3]Operand{VReg(1), VReg(4)}},
		{Op: OpFlatAtomicAdd, Type: isa.TypeU32, Dst: VReg(9), Srcs: [3]Operand{VReg(1), VReg(2)}},
		// DS
		{Op: OpDSReadB32, Dst: VReg(5), Srcs: [3]Operand{VReg(2)}, Offset: 64},
		{Op: OpDSWriteB32, Srcs: [3]Operand{VReg(2), VReg(5)}, Offset: 128},
		{Op: OpDSReadB64, Dst: VReg(6), Srcs: [3]Operand{VReg(2)}, Offset: 8},
		{Op: OpDSWriteB64, Srcs: [3]Operand{VReg(2), VReg(6)}, Offset: 16},
	}
}

func normalize(in *Inst) {
	if in.VMCnt == 0 && in.LGKMCnt == 0 && in.Op != OpSWaitcnt {
		in.VMCnt, in.LGKMCnt = -1, -1
	}
}

func TestInstRoundTrip(t *testing.T) {
	for _, in := range sampleInsts() {
		in := in
		normalize(&in)
		b, err := EncodeInst(&in)
		if err != nil {
			t.Fatalf("%s: encode: %v", in.String(), err)
		}
		if len(b) != in.SizeBytes() {
			t.Errorf("%s: encoded %d bytes, SizeBytes()=%d", in.String(), len(b), in.SizeBytes())
		}
		got, n, err := DecodeInst(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", in.String(), err)
		}
		if n != len(b) {
			t.Errorf("%s: decoded %d of %d bytes", in.String(), n, len(b))
		}
		if !reflect.DeepEqual(*got, in) {
			t.Errorf("round-trip mismatch:\n in: %#v\nout: %#v\n(disasm in:  %s)\n(disasm out: %s)",
				in, *got, in.String(), got.String())
		}
	}
}

func TestSizeClasses(t *testing.T) {
	cases := []struct {
		in   Inst
		want int
	}{
		{Inst{Op: OpVAdd, Type: isa.TypeU32, Dst: VReg(0), SDst: VCC(), Srcs: [3]Operand{VReg(1), VReg(2)}}, 4},
		{Inst{Op: OpVAdd, Type: isa.TypeU32, Dst: VReg(0), SDst: VCC(), Srcs: [3]Operand{Lit(1000), VReg(2)}}, 8},
		{Inst{Op: OpVAdd, Type: isa.TypeF64, Dst: VReg(0), Srcs: [3]Operand{VReg(2), VReg(4)}}, 8},
		{Inst{Op: OpVFma, Type: isa.TypeF32, Dst: VReg(0), Srcs: [3]Operand{VReg(1), VReg(2), VReg(3)}}, 8},
		{Inst{Op: OpSEndpgm}, 4},
		{Inst{Op: OpFlatLoadDword, Dst: VReg(0), Srcs: [3]Operand{VReg(2)}}, 8},
		{Inst{Op: OpSLoadDwordx4, Dst: SReg(8), Srcs: [3]Operand{SReg(4)}}, 8},
	}
	for _, c := range cases {
		if got := c.in.SizeBytes(); got != c.want {
			t.Errorf("%s: SizeBytes()=%d, want %d", c.in.String(), got, c.want)
		}
	}
}

func TestVOP3CannotCarryLiteral(t *testing.T) {
	in := Inst{Op: OpVFma, Type: isa.TypeF32, Dst: VReg(0), Srcs: [3]Operand{Lit(0x3F800000), VReg(1), VReg(2)}}
	if _, err := EncodeInst(&in); err == nil {
		t.Fatal("expected error encoding literal in VOP3")
	}
}

func TestProgramRoundTripWithBranches(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: OpSMov, Type: isa.TypeB32, Dst: SReg(0), Srcs: [3]Operand{Inline(0)}, VMCnt: -1, LGKMCnt: -1},
		{Op: OpSCbranchExecZ, Target: 4, VMCnt: -1, LGKMCnt: -1},
		{Op: OpVMov, Type: isa.TypeB32, Dst: VReg(1), Srcs: [3]Operand{Lit(42)}, VMCnt: -1, LGKMCnt: -1},
		{Op: OpSBranch, Target: 0, VMCnt: -1, LGKMCnt: -1},
		{Op: OpSEndpgm, VMCnt: -1, LGKMCnt: -1},
	}}
	data, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeProgram(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Insts) != len(p.Insts) {
		t.Fatalf("decoded %d insts, want %d", len(got.Insts), len(p.Insts))
	}
	if got.Insts[1].Target != 4 {
		t.Errorf("branch 1 target = %d, want 4", got.Insts[1].Target)
	}
	if got.Insts[3].Target != 0 {
		t.Errorf("branch 3 target = %d, want 0", got.Insts[3].Target)
	}
	if got.Size != p.Size {
		t.Errorf("size %d != %d", got.Size, p.Size)
	}
}

func TestCodeObjectRoundTrip(t *testing.T) {
	co := &CodeObject{
		Name: "vec_add", NumVGPRs: 12, NumSGPRs: 20,
		KernargSize: 24, GroupSize: 2048, PrivateSize: 64,
		Program: &Program{Insts: []Inst{
			{Op: OpSLoadDwordx2, Dst: SReg(12), Srcs: [3]Operand{SReg(6)}, Offset: 0, VMCnt: -1, LGKMCnt: -1},
			{Op: OpSWaitcnt, VMCnt: -1, LGKMCnt: 0},
			{Op: OpSEndpgm, VMCnt: -1, LGKMCnt: -1},
		}},
	}
	data, err := co.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCodeObject(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Name != co.Name || got.NumVGPRs != 12 || got.NumSGPRs != 20 ||
		got.KernargSize != 24 || got.GroupSize != 2048 || got.PrivateSize != 64 {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if len(got.Program.Insts) != 3 {
		t.Fatalf("program length %d, want 3", len(got.Program.Insts))
	}
}

// TestRandomInstRoundTrip fuzzes register fields of each sample instruction.
func TestRandomInstRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := sampleInsts()
	for iter := 0; iter < 2000; iter++ {
		in := samples[rng.Intn(len(samples))]
		normalize(&in)
		mutate := func(o *Operand) {
			switch o.Kind {
			case OperVGPR:
				o.Index = uint16(rng.Intn(isa.MaxVGPRs))
			case OperSGPR:
				o.Index = uint16(rng.Intn(isa.MaxSGPRs))
			case OperLit:
				o.Val = rng.Uint32()
			}
		}
		mutate(&in.Dst)
		for i := range in.Srcs {
			mutate(&in.Srcs[i])
		}
		b, err := EncodeInst(&in)
		if err != nil {
			t.Fatalf("iter %d: encode %s: %v", iter, in.String(), err)
		}
		got, _, err := DecodeInst(b)
		if err != nil {
			t.Fatalf("iter %d: decode %s: %v", iter, in.String(), err)
		}
		if !reflect.DeepEqual(*got, in) {
			t.Fatalf("iter %d: mismatch\n in: %#v\nout: %#v", iter, in, *got)
		}
	}
}

// TestSGPRBaseBeyondTheFileIsRefused: SMEM's 7-bit base field can name
// s102-s127, which are not registers; the encoder and the decoder refuse
// them alike, so the fuzzer's decode-encode round trip holds.
func TestSGPRBaseBeyondTheFileIsRefused(t *testing.T) {
	in := Inst{Op: OpSLoadDword, Dst: SReg(10), Srcs: [3]Operand{SReg(isa.MaxSGPRs)}, VMCnt: -1, LGKMCnt: -1}
	if b, err := EncodeInst(&in); err == nil {
		t.Errorf("encoded s_load_dword with base s%d as % x", isa.MaxSGPRs, b)
	}
	in.Srcs[0] = SReg(4)
	b, err := EncodeInst(&in)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)|0x7F<<4) // base s127
	if got, _, err := DecodeInst(b); err == nil {
		t.Errorf("% x decoded to %s", b, got)
	}
}
