package finalizer

import (
	"strings"
	"testing"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/kernel/randkernel"
)

// buildVecAdd is the canonical test kernel.
func buildVecAdd(t *testing.T) *hsail.Kernel {
	t.Helper()
	b := kernel.NewBuilder("vec_add")
	aArg := b.ArgPtr("a")
	oArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
	av := b.Load(hsail.SegGlobal, isa.TypeU32, b.Add(isa.TypeU64, b.LoadArg(aArg), off), 0)
	sum := b.Add(isa.TypeU32, av, b.Int(isa.TypeU32, 5))
	b.Store(hsail.SegGlobal, sum, b.Add(isa.TypeU64, b.LoadArg(oArg), off), 0)
	b.Ret()
	return b.MustFinish()
}

// buildUniformLoop has a latch whose condition is wavefront-uniform.
func buildUniformLoop(t *testing.T) *hsail.Kernel {
	t.Helper()
	b := kernel.NewBuilder("uniform_loop")
	nArg := b.ArgU32("n")
	outArg := b.ArgPtr("out")
	n := b.LoadArg(nArg)
	gid := b.WorkItemAbsID(isa.DimX)
	acc := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
	i := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
	b.WhileCmp(isa.CmpLt, isa.TypeU32, i, n, func() {
		b.BinaryTo(hsail.OpAdd, acc, acc, gid)
		b.BinaryTo(hsail.OpAdd, i, i, b.Int(isa.TypeU32, 1))
	})
	addr := b.Add(isa.TypeU64, b.LoadArg(outArg),
		b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
	b.Store(hsail.SegGlobal, acc, addr, 0)
	b.Ret()
	return b.MustFinish()
}

// buildDivergentIf has a lane-dependent branch.
func buildDivergentIf(t *testing.T) *hsail.Kernel {
	t.Helper()
	b := kernel.NewBuilder("divergent_if")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	res := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 1))
	b.IfCmp(isa.CmpLt, isa.TypeU32, gid, b.Int(isa.TypeU32, 7), func() {
		b.MovTo(res, b.Int(isa.TypeU32, 2))
	}, nil)
	addr := b.Add(isa.TypeU64, b.LoadArg(outArg),
		b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
	b.Store(hsail.SegGlobal, res, addr, 0)
	b.Ret()
	return b.MustFinish()
}

func finalize(t *testing.T, k *hsail.Kernel, opts Options) *gcn3.CodeObject {
	t.Helper()
	co, err := Finalize(k, opts)
	if err != nil {
		t.Fatalf("finalize %s: %v", k.Name, err)
	}
	return co
}

func disasm(co *gcn3.CodeObject) string { return co.Program.Disassemble() }

// TestFinalizedKernelsSatisfyInvariants: the hand kernels finalize, and so
// pass Verify, under three option sets, within the ISA's register limits.
func TestFinalizedKernelsSatisfyInvariants(t *testing.T) {
	kernels := []*hsail.Kernel{buildVecAdd(t), buildUniformLoop(t), buildDivergentIf(t)}
	for _, k := range kernels {
		for _, opts := range []Options{{}, {DisableScheduling: true}, {DisableScalarization: true}} {
			co := finalize(t, k, opts)
			if co.NumVGPRs > isa.MaxVGPRs || co.NumSGPRs > isa.MaxSGPRs {
				t.Fatalf("%s: register demand %d/%d exceeds limits", k.Name, co.NumVGPRs, co.NumSGPRs)
			}
		}
	}
}

// verifiedOptions are the option sets every random kernel must finalize
// under: the default, each ablation switch, and the spill ablation's VGPR
// budget, at which most random kernels spill.
var verifiedOptions = []Options{{}, {DisableScheduling: true}, {DisableScalarization: true},
	{UseFlatKernarg: true}, {MaxVGPRs: 56}}

// finalizeRandom finalizes the random kernel of seed under every
// verifiedOptions set. Finalize ends in Verify, so an error names the first
// instruction that breaks a rule.
func finalizeRandom(t *testing.T, seed int64) {
	k, err := randkernel.Gen(seed, false)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, opts := range verifiedOptions {
		if _, err := Finalize(k, opts); err != nil {
			t.Fatalf("seed %d, %+v: %v", seed, opts, err)
		}
	}
}

// TestRandomKernelsVerify: random kernels, branches and loops included,
// pass Verify under every option set. Seed 4 ends a block in
// flat_load_dword v17 and overwrites v17 in the next, which once went
// without a wait.
func TestRandomKernelsVerify(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		finalizeRandom(t, seed)
	}
}

// FuzzFinalize runs TestRandomKernelsVerify's check on any seed.
func FuzzFinalize(f *testing.F) {
	f.Add(int64(4))
	f.Fuzz(finalizeRandom)
}

func TestTable1SequenceEmitted(t *testing.T) {
	co := finalize(t, buildVecAdd(t), Options{})
	asm := disasm(co)
	for _, frag := range []string{
		"s_load_dword s", // workgroup size from the dispatch packet
		"0x100000",       // the Table 1 s_bfe operand
		"s_mul_s32",      // size * workgroup ID
		"s_waitcnt",      // dependency management
		"v_add_u32",      // + v0
		"flat_load_dword",
		"flat_store_dword",
		"s_endpgm",
	} {
		if !strings.Contains(asm, frag) {
			t.Errorf("missing %q in:\n%s", frag, asm)
		}
	}
}

func TestUniformLoopUsesScalarBranch(t *testing.T) {
	co := finalize(t, buildUniformLoop(t), Options{})
	asm := disasm(co)
	if !strings.Contains(asm, "s_cmp_lt_u32") {
		t.Errorf("uniform latch did not fuse to s_cmp:\n%s", asm)
	}
	if !strings.Contains(asm, "s_cbranch_scc1") {
		t.Errorf("uniform latch did not use s_cbranch_scc1:\n%s", asm)
	}
	if strings.Contains(asm, "saveexec") || strings.Contains(asm, "s_andn2") {
		t.Errorf("uniform loop should not manipulate EXEC:\n%s", asm)
	}
}

func TestDivergentIfUsesExecMask(t *testing.T) {
	co := finalize(t, buildDivergentIf(t), Options{})
	asm := disasm(co)
	for _, frag := range []string{"v_cmp_ge_u32", "s_andn2_b64 exec", "s_cbranch_execz", "s_mov_b64 exec"} {
		if !strings.Contains(asm, frag) {
			t.Errorf("missing %q in divergent-if lowering:\n%s", frag, asm)
		}
	}
}

func TestScalarizationMovesUniformWork(t *testing.T) {
	co := finalize(t, buildUniformLoop(t), Options{})
	scalar, vector := 0, 0
	for i := range co.Program.Insts {
		switch co.Program.Insts[i].Op.Category() {
		case isa.CatSALU, isa.CatSMem:
			scalar++
		case isa.CatVALU:
			vector++
		}
	}
	if scalar == 0 {
		t.Fatal("no scalar instructions emitted for a kernel full of uniform work")
	}
	// The ablation moves that work to the vector pipeline: scalar memory
	// (kernarg s_loads) drops to the ABI-prologue minimum and vector-ALU
	// count rises.
	co2 := finalize(t, buildUniformLoop(t), Options{DisableScalarization: true})
	smem, smem2, vector2 := 0, 0, 0
	for i := range co.Program.Insts {
		if co.Program.Insts[i].Op.Category() == isa.CatSMem {
			smem++
		}
	}
	for i := range co2.Program.Insts {
		switch co2.Program.Insts[i].Op.Category() {
		case isa.CatSMem:
			smem2++
		case isa.CatVALU:
			vector2++
		}
	}
	if smem2 >= smem {
		t.Fatalf("DisableScalarization did not reduce scalar memory: %d -> %d", smem, smem2)
	}
	if vector2 <= vector {
		t.Fatalf("DisableScalarization did not increase vector work: %d -> %d", vector, vector2)
	}
}

func TestFloatDivExpansion(t *testing.T) {
	b := kernel.NewBuilder("fdiv")
	aArg := b.ArgPtr("a")
	gid := b.WorkItemAbsID(isa.DimX)
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 3))
	addr := b.Add(isa.TypeU64, b.LoadArg(aArg), off)
	x := b.Load(hsail.SegGlobal, isa.TypeF64, addr, 0)
	y := b.Load(hsail.SegGlobal, isa.TypeF64, addr, 8)
	q := b.Div(isa.TypeF64, x, y)
	b.Store(hsail.SegGlobal, q, addr, 16)
	b.Ret()
	co := finalize(t, b.MustFinish(), Options{})
	asm := disasm(co)
	for _, frag := range []string{"v_div_scale_f64", "v_rcp_f64", "v_fma_f64", "v_div_fmas_f64", "v_div_fixup_f64"} {
		if !strings.Contains(asm, frag) {
			t.Errorf("Table 3 sequence missing %q:\n%s", frag, asm)
		}
	}
	// The single IL div must expand into at least 11 machine instructions.
	hsailCount := 0
	for _, blk := range b.MustFinish().Blocks {
		hsailCount += len(blk.Insts)
	}
	if len(co.Program.Insts) < hsailCount+10 {
		t.Errorf("divide expansion too small: %d HSAIL -> %d GCN3", hsailCount, len(co.Program.Insts))
	}
}

func TestIrreducibleControlFlowRejected(t *testing.T) {
	// Hand-build a CFG with a branch into the middle of a loop.
	k := &hsail.Kernel{Name: "irreducible", NumRegSlots: 4, NumCRegs: 2}
	k.Blocks = []*hsail.Block{
		{ID: 0, Insts: []hsail.Inst{
			{Op: hsail.OpCmp, SrcType: isa.TypeU32, Cmp: isa.CmpLt, Dst: hsail.CReg(0),
				Srcs: [3]hsail.Operand{hsail.Reg(0), hsail.Reg(1)}, NSrc: 2},
			{Op: hsail.OpCBr, Srcs: [3]hsail.Operand{hsail.CReg(0)}, NSrc: 1, Target: 2},
		}},
		{ID: 1, Insts: []hsail.Inst{{Op: hsail.OpNop}}},
		{ID: 2, Insts: []hsail.Inst{
			{Op: hsail.OpCmp, SrcType: isa.TypeU32, Cmp: isa.CmpLt, Dst: hsail.CReg(1),
				Srcs: [3]hsail.Operand{hsail.Reg(2), hsail.Reg(3)}, NSrc: 2},
			{Op: hsail.OpCBr, Srcs: [3]hsail.Operand{hsail.CReg(1)}, NSrc: 1, Target: 1},
		}},
		{ID: 3, Insts: []hsail.Inst{{Op: hsail.OpRet}}},
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("construction: %v", err)
	}
	if _, err := Finalize(k, Options{}); err == nil {
		t.Fatal("irreducible CFG accepted by the finalizer")
	}
}

func TestSchedulerPreservesDependences(t *testing.T) {
	// A block with a long dependent chain plus independent work: after
	// scheduling, every RAW/WAR/WAW pair must stay ordered.
	co := finalize(t, buildVecAdd(t), Options{})
	insts := co.Program.Insts
	lastWriter := map[int]int{}
	for i := range insts {
		reads, writes := regUse(&insts[i])
		for _, r := range reads {
			if w, ok := lastWriter[r]; ok && w > i {
				t.Fatalf("RAW violated: inst %d reads r%d written later at %d", i, r, w)
			}
		}
		for _, r := range writes {
			lastWriter[r] = i
		}
	}
}

func TestRegisterBudgetEnforced(t *testing.T) {
	// A kernel with enormous live-range pressure must be rejected when the
	// VGPR budget is tiny.
	b := kernel.NewBuilder("pressure")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	vals := []kernel.Val{gid}
	for i := 0; i < 40; i++ {
		vals = append(vals, b.Add(isa.TypeU32, vals[len(vals)-1], b.Int(isa.TypeU32, int64(i))))
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.Xor(isa.TypeU32, acc, v)
	}
	addr := b.Add(isa.TypeU64, b.LoadArg(outArg),
		b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
	b.Store(hsail.SegGlobal, acc, addr, 0)
	b.Ret()
	k, err := b.FinishRaw() // raw: keep all 40 values live
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Finalize(k, Options{MaxVGPRs: 8}); err == nil {
		t.Fatal("tiny VGPR budget accepted a high-pressure kernel")
	}
	if _, err := Finalize(k, Options{}); err != nil {
		t.Fatalf("default budget rejected: %v", err)
	}
}

func TestBlockTargetsResolved(t *testing.T) {
	co := finalize(t, buildUniformLoop(t), Options{})
	for i := range co.Program.Insts {
		in := &co.Program.Insts[i]
		if in.Op.IsBranch() && (in.Target < 0 || int(in.Target) >= len(co.Program.Insts)) {
			t.Fatalf("unresolved branch target %d at inst %d", in.Target, i)
		}
	}
}
