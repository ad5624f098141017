package gcn3

import (
	"strings"
	"testing"

	"ilsim/internal/isa"
)

func TestFormatPromotions(t *testing.T) {
	cases := []struct {
		in   Inst
		want Format
	}{
		// v_cmp to VCC stays VOPC; to an SGPR pair promotes to VOP3.
		{Inst{Op: OpVCmp, Type: isa.TypeU32, Dst: VCC()}, FmtVOPC},
		{Inst{Op: OpVCmp, Type: isa.TypeU32, Dst: SReg(10)}, FmtVOP3},
		// v_cndmask with VCC selector is VOP2; SGPR selector promotes.
		{Inst{Op: OpVCndmask, Type: isa.TypeB32, Srcs: [3]Operand{VReg(0), VReg(1), VCC()}}, FmtVOP2},
		{Inst{Op: OpVCndmask, Type: isa.TypeB32, Srcs: [3]Operand{VReg(0), VReg(1), SReg(4)}}, FmtVOP3},
		// 64-bit arithmetic promotes.
		{Inst{Op: OpVAdd, Type: isa.TypeU32}, FmtVOP2},
		{Inst{Op: OpVAdd, Type: isa.TypeF64}, FmtVOP3},
		{Inst{Op: OpVMin, Type: isa.TypeF64}, FmtVOP3},
		// Scalar widths do not change format.
		{Inst{Op: OpSMov, Type: isa.TypeB64}, FmtSOP1},
		{Inst{Op: OpSAnd, Type: isa.TypeB64}, FmtSOP2},
	}
	for _, c := range cases {
		if got := c.in.Format(); got != c.want {
			t.Errorf("%s (%s): format %s, want %s", c.in.Op, c.in.Type, got, c.want)
		}
	}
}

func TestDisassemblyForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want []string
	}{
		{Inst{Op: OpVAdd, Type: isa.TypeU32, Dst: VReg(117), SDst: VCC(),
			Srcs: [3]Operand{SReg(4), VReg(0)}},
			[]string{"v_add_u32 v117, vcc, s4, v0"}}, // paper Table 1's final line
		{Inst{Op: OpSLoadDword, Dst: SReg(10), Srcs: [3]Operand{SReg(4)}, Offset: 4},
			[]string{"s_load_dword s10, s[4:5], 0x4"}},
		{Inst{Op: OpSBfe, Type: isa.TypeU32, Dst: SReg(4), Srcs: [3]Operand{SReg(10), Lit(0x100000)}},
			[]string{"s_bfe_u32 s4, s10, 0x100000"}},
		{Inst{Op: OpSWaitcnt, VMCnt: -1, LGKMCnt: 0}, []string{"s_waitcnt lgkmcnt(0)"}},
		{Inst{Op: OpSWaitcnt, VMCnt: 3, LGKMCnt: -1}, []string{"s_waitcnt vmcnt(3)"}},
		{Inst{Op: OpVDivScale, Type: isa.TypeF64, Dst: VReg(3), SDst: VCC(),
			Srcs: [3]Operand{VReg(1), VReg(1), SReg(4)}},
			[]string{"v_div_scale_f64", "v[3:4]", "vcc", "v[1:2]", "s[4:5]"}},
		{Inst{Op: OpFlatLoadDwordx2, Dst: VReg(2), Srcs: [3]Operand{VReg(10)}},
			[]string{"flat_load_dwordx2 v[2:3], v[10:11]"}},
		{Inst{Op: OpDSWriteB32, Srcs: [3]Operand{VReg(2), VReg(5)}, Offset: 128},
			[]string{"ds_write_b32 v2, v5 offset:128"}},
		{Inst{Op: OpSAndSaveexec, Type: isa.TypeB64, Dst: SReg(14), Srcs: [3]Operand{VCC()}},
			[]string{"s_and_saveexec_b64 s[14:15], vcc"}},
		{Inst{Op: OpVCmp, Type: isa.TypeF64, Cmp: isa.CmpLt, Dst: SReg(20),
			Srcs: [3]Operand{VReg(2), VReg(4)}},
			[]string{"v_cmp_lt_f64 s[20:21], v[2:3], v[4:5]"}},
	}
	for _, c := range cases {
		got := c.in.String()
		for _, frag := range c.want {
			if !strings.Contains(got, frag) {
				t.Errorf("disasm %q missing %q", got, frag)
			}
		}
	}
}

func TestSizeRulesMatchGCN3(t *testing.T) {
	// Every 4-byte format with a literal becomes 8; VOP3-class stays 8 and
	// refuses literals at encode time (covered in encode_test).
	narrow := Inst{Op: OpVMov, Type: isa.TypeB32, Dst: VReg(0), Srcs: [3]Operand{Inline(1)}}
	if narrow.SizeBytes() != 4 {
		t.Fatalf("VOP1 inline: %d bytes", narrow.SizeBytes())
	}
	lit := Inst{Op: OpVMov, Type: isa.TypeB32, Dst: VReg(0), Srcs: [3]Operand{Lit(12345)}}
	if lit.SizeBytes() != 8 {
		t.Fatalf("VOP1 + literal: %d bytes", lit.SizeBytes())
	}
	wide := Inst{Op: OpFlatLoadDword, Dst: VReg(0), Srcs: [3]Operand{VReg(2)}}
	if wide.SizeBytes() != 8 {
		t.Fatalf("FLAT: %d bytes", wide.SizeBytes())
	}
}

func TestProgramIndexAt(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: OpSMov, Type: isa.TypeB32, Dst: SReg(0), Srcs: [3]Operand{Inline(0)}}, // 4B
		{Op: OpFlatLoadDword, Dst: VReg(1), Srcs: [3]Operand{VReg(2)}},             // 8B
		{Op: OpSEndpgm}, // 4B
	}}
	if p.IndexAt(0) != -1 {
		t.Error("IndexAt found an instruction in a program that was never laid out")
	}
	p.Layout()
	if p.Size != 16 {
		t.Fatalf("size %d", p.Size)
	}
	for i, pc := range p.PCs {
		if got := p.IndexAt(pc); got != i {
			t.Errorf("IndexAt(%#x) = %d, want %d", pc, got, i)
		}
	}
	if p.IndexAt(2) != -1 || p.IndexAt(100) != -1 {
		t.Error("IndexAt accepted bad offsets")
	}
}

func TestCategoryMapping(t *testing.T) {
	checks := map[Op]isa.Category{
		OpVAdd:          isa.CatVALU,
		OpVCmp:          isa.CatVALU,
		OpSAdd:          isa.CatSALU,
		OpSAndSaveexec:  isa.CatSALU,
		OpSLoadDword:    isa.CatSMem,
		OpFlatLoadDword: isa.CatVMem,
		OpFlatAtomicAdd: isa.CatVMem,
		OpDSReadB32:     isa.CatLDS,
		OpSBranch:       isa.CatBranch,
		OpSCbranchExecZ: isa.CatBranch,
		OpSWaitcnt:      isa.CatWaitcnt,
		OpSNop:          isa.CatMisc,
		OpSBarrier:      isa.CatMisc,
		OpSEndpgm:       isa.CatMisc,
	}
	for op, want := range checks {
		if got := op.Category(); got != want {
			t.Errorf("%s: category %s, want %s", op, got, want)
		}
	}
}

func TestRegWidthMetadata(t *testing.T) {
	ld2 := Inst{Op: OpFlatLoadDwordx2, Dst: VReg(4), Srcs: [3]Operand{VReg(8)}}
	if ld2.DstRegs() != 2 || ld2.SrcRegs(0) != 2 {
		t.Errorf("flat_load_dwordx2 widths: dst %d src %d", ld2.DstRegs(), ld2.SrcRegs(0))
	}
	s4 := Inst{Op: OpSLoadDwordx4, Dst: SReg(8), Srcs: [3]Operand{SReg(4)}}
	if s4.DstRegs() != 4 || s4.SrcRegs(0) != 2 {
		t.Errorf("s_load_dwordx4 widths: dst %d src %d", s4.DstRegs(), s4.SrcRegs(0))
	}
	st := Inst{Op: OpFlatStoreDwordx2, Srcs: [3]Operand{VReg(0), VReg(2)}}
	if st.DstRegs() != 0 || st.SrcRegs(0) != 2 || st.SrcRegs(1) != 2 {
		t.Errorf("flat_store_dwordx2 widths wrong")
	}
	cmask := Inst{Op: OpVCndmask, Type: isa.TypeB32, Srcs: [3]Operand{VReg(0), VReg(1), SReg(2)}}
	if cmask.SrcRegs(2) != 2 {
		t.Error("cndmask selector must be a 64-bit mask")
	}
	shift := Inst{Op: OpVLshl, Type: isa.TypeB64, Dst: VReg(0), Srcs: [3]Operand{VReg(4), VReg(6)}}
	if shift.SrcRegs(0) != 1 || shift.SrcRegs(1) != 2 {
		t.Error("64-bit shift operand widths wrong")
	}
}

// TestOperandsWalk pins the explicit-operand rule the finalizer's
// dependence analysis and the engine's decode cache share: Dst at DstRegs,
// SDst as a pair, then each source at SrcRegs. Absent operands are left
// out of the log.
func TestOperandsWalk(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		// VOP2 add with its carry-out in VCC.
		{Inst{Op: OpVAdd, Type: isa.TypeU32, Dst: VReg(4), SDst: VCC(), Srcs: [3]Operand{VReg(1), VReg(2)}},
			"w v4, w vcc, r v1, r v2"},
		// The same carry-out in an SGPR pair.
		{Inst{Op: OpVAdd, Type: isa.TypeU32, Dst: VReg(4), SDst: SReg(6), Srcs: [3]Operand{VReg(1), VReg(2)}},
			"w v4, w s[6:7], r v1, r v2"},
		// 64-bit VALU (VOP3): every operand a pair.
		{Inst{Op: OpVAdd, Type: isa.TypeF64, Dst: VReg(4), Srcs: [3]Operand{VReg(0), VReg(2)}},
			"w v[4:5], r v[0:1], r v[2:3]"},
		{Inst{Op: OpSAndSaveexec, Dst: SReg(10), Srcs: [3]Operand{VCC()}},
			"w s[10:11], r vcc"},
		// Flat memory: the address is a VGPR pair.
		{Inst{Op: OpFlatLoadDword, Dst: VReg(3), Srcs: [3]Operand{VReg(0)}},
			"w v3, r v[0:1]"},
		{Inst{Op: OpFlatStoreDwordx2, Srcs: [3]Operand{VReg(0), VReg(2)}},
			"r v[0:1], r v[2:3]"},
		// DS: a 32-bit LDS address.
		{Inst{Op: OpDSReadB32, Dst: VReg(5), Srcs: [3]Operand{VReg(1)}, Offset: 16},
			"w v5, r v1"},
	}
	for _, c := range cases {
		var got []string
		c.in.Operands(func(o Operand, regs int, def bool) {
			if o.Kind == OperNone {
				return
			}
			rw := "r "
			if def {
				rw = "w "
			}
			got = append(got, rw+operandString(o, regs))
		})
		if g := strings.Join(got, ", "); g != c.want {
			t.Errorf("%s:\n got  %s\n want %s", &c.in, g, c.want)
		}
	}
}
