package emu

import (
	"testing"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
)

// engineFor builds a single-wave GCN3 engine around a program.
func engineFor(t testing.TB, insts []gcn3.Inst) (*GCN3Engine, *Wave) {
	t.Helper()
	prog := &gcn3.Program{Insts: insts}
	prog.Layout()
	co := &gcn3.CodeObject{Name: "t", NumVGPRs: 16, NumSGPRs: 32, Program: prog}
	ctx := hsa.NewContext()
	pkt := &hsa.AQLPacket{WorkgroupSize: [3]uint16{64, 1, 1}, GridSize: [3]uint32{64, 1, 1}}
	pktAddr := ctx.AllocQueueSlot(hsa.PacketSize)
	b := pkt.Encode()
	ctx.Mem.Write(pktAddr, b[:])
	d, err := hsa.ExpandDispatch(pkt, pktAddr)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewGCN3Engine(ctx, co, 0x1000, &Collector{})
	wg := NewWGState(d, &d.Workgroups[0], 0)
	return eng, eng.NewWave(wg, 0)
}

func step(t *testing.T, e *GCN3Engine, w *Wave) ExecResult {
	t.Helper()
	r, err := e.Execute(w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestABIInitialization(t *testing.T) {
	e, w := engineFor(t, []gcn3.Inst{{Op: gcn3.OpSEndpgm}})
	_ = e
	if w.SGPR[gcn3.SGPRDispatchPtr] == 0 && w.SGPR[gcn3.SGPRDispatchPtr+1] == 0 {
		t.Error("dispatch pointer not initialized")
	}
	for lane := 0; lane < 64; lane++ {
		if w.VGPR[gcn3.VGPRWorkItemID][lane] != uint32(lane) {
			t.Fatalf("v0[%d] = %d", lane, w.VGPR[gcn3.VGPRWorkItemID][lane])
		}
	}
	if w.Exec != isa.FullMask(64) {
		t.Error("EXEC not full")
	}
}

func TestSaveexecSemantics(t *testing.T) {
	e, w := engineFor(t, []gcn3.Inst{
		// vcc = lanes 0..31; s[20:21] = exec; exec &= vcc
		{Op: gcn3.OpVCmp, Type: isa.TypeU32, Cmp: isa.CmpLt, Dst: gcn3.VCC(),
			Srcs: [3]gcn3.Operand{gcn3.VReg(0), gcn3.VReg(1)}},
		{Op: gcn3.OpSAndSaveexec, Type: isa.TypeB64, Dst: gcn3.SReg(20),
			Srcs: [3]gcn3.Operand{{Kind: gcn3.OperVCC}}},
		{Op: gcn3.OpSEndpgm},
	})
	// v1 = 32 in all lanes: lanes with v0 < 32 set VCC.
	for lane := 0; lane < 64; lane++ {
		w.VGPR[1][lane] = 32
	}
	step(t, e, w)
	if w.VCC != 0x00000000FFFFFFFF {
		t.Fatalf("VCC = %#x", w.VCC)
	}
	step(t, e, w)
	if w.Exec != 0x00000000FFFFFFFF {
		t.Fatalf("EXEC = %#x", w.Exec)
	}
	saved := uint64(w.SGPR[20]) | uint64(w.SGPR[21])<<32
	if saved != 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("saved exec = %#x", saved)
	}
	if !w.SCC {
		t.Error("SCC should be set (exec != 0)")
	}
}

func TestExecMaskGatesWrites(t *testing.T) {
	e, w := engineFor(t, []gcn3.Inst{
		{Op: gcn3.OpVMov, Type: isa.TypeB32, Dst: gcn3.VReg(2), Srcs: [3]gcn3.Operand{gcn3.Inline(7)}},
		{Op: gcn3.OpSEndpgm},
	})
	w.Exec = 0xF // only lanes 0..3
	step(t, e, w)
	for lane := 0; lane < 64; lane++ {
		want := uint32(0)
		if lane < 4 {
			want = 7
		}
		if w.VGPR[2][lane] != want {
			t.Fatalf("lane %d: v2 = %d, want %d", lane, w.VGPR[2][lane], want)
		}
	}
}

func TestCndmaskSelector(t *testing.T) {
	e, w := engineFor(t, []gcn3.Inst{
		{Op: gcn3.OpVCndmask, Type: isa.TypeB32, Dst: gcn3.VReg(3),
			Srcs: [3]gcn3.Operand{gcn3.Inline(10), gcn3.Inline(20), gcn3.SReg(8)}},
		{Op: gcn3.OpSEndpgm},
	})
	w.SGPR[8] = 0xF0 // lanes 4..7 pick src1
	w.SGPR[9] = 0
	step(t, e, w)
	for lane := 0; lane < 10; lane++ {
		want := uint32(10)
		if lane >= 4 && lane < 8 {
			want = 20
		}
		if w.VGPR[3][lane] != want {
			t.Fatalf("lane %d: %d, want %d", lane, w.VGPR[3][lane], want)
		}
	}
}

func TestScalarLoadReadsDispatchPacket(t *testing.T) {
	e, w := engineFor(t, []gcn3.Inst{
		{Op: gcn3.OpSLoadDword, Dst: gcn3.SReg(12),
			Srcs: [3]gcn3.Operand{gcn3.SReg(gcn3.SGPRDispatchPtr)}, Offset: gcn3.PktWorkgroupSizeX},
		{Op: gcn3.OpSBfe, Type: isa.TypeU32, Dst: gcn3.SReg(12),
			Srcs: [3]gcn3.Operand{gcn3.SReg(12), gcn3.Lit(0x100000)}},
		{Op: gcn3.OpSEndpgm},
	})
	r := step(t, e, w)
	if r.MemKind != MemScalar || len(r.Lines) == 0 {
		t.Fatal("scalar load did not access memory")
	}
	step(t, e, w)
	if w.SGPR[12] != 64 {
		t.Fatalf("workgroup size from packet = %d, want 64", w.SGPR[12])
	}
}

func TestBranchRedirects(t *testing.T) {
	e, w := engineFor(t, []gcn3.Inst{
		{Op: gcn3.OpSCmp, Type: isa.TypeU32, Cmp: isa.CmpEq,
			Srcs: [3]gcn3.Operand{gcn3.Inline(1), gcn3.Inline(1)}},
		{Op: gcn3.OpSCbranchSCC1, Target: 3},
		{Op: gcn3.OpSNop},
		{Op: gcn3.OpSEndpgm},
	})
	step(t, e, w) // s_cmp
	if !w.SCC {
		t.Fatal("SCC not set")
	}
	r := step(t, e, w) // taken branch
	if !r.Redirected {
		t.Fatal("taken branch did not redirect")
	}
	r = step(t, e, w) // endpgm
	if !r.IsEndPgm || !w.Done {
		t.Fatal("did not reach endpgm")
	}
}

func TestLDSBankConflictCounting(t *testing.T) {
	var addrs [isa.WavefrontSize]uint64
	// All lanes hit DIFFERENT words of bank 0 → worst case 63 extra cycles.
	for lane := range addrs {
		addrs[lane] = uint64(lane) * 32 * 4
	}
	if got := ldsBankConflicts(&addrs, isa.FullMask(64)); got != 63 {
		t.Fatalf("same-bank different-word: %d, want 63", got)
	}
	// All lanes hit the SAME word → broadcast, no conflict.
	for lane := range addrs {
		addrs[lane] = 128
	}
	if got := ldsBankConflicts(&addrs, isa.FullMask(64)); got != 0 {
		t.Fatalf("broadcast: %d, want 0", got)
	}
	// Sequential words spread across banks → no conflicts for 32 lanes.
	for lane := range addrs {
		addrs[lane] = uint64(lane) * 4
	}
	if got := ldsBankConflicts(&addrs, isa.FullMask(32)); got != 0 {
		t.Fatalf("sequential 32: %d, want 0", got)
	}
	// 64 sequential words: two words per bank → 1 conflict cycle.
	if got := ldsBankConflicts(&addrs, isa.FullMask(64)); got != 1 {
		t.Fatalf("sequential 64: %d, want 1", got)
	}
	// Inactive lanes are ignored.
	if got := ldsBankConflicts(&addrs, 0); got != 0 {
		t.Fatalf("empty mask: %d, want 0", got)
	}
}

func TestWaitcntFieldsExposed(t *testing.T) {
	e, w := engineFor(t, []gcn3.Inst{
		{Op: gcn3.OpSWaitcnt, VMCnt: 2, LGKMCnt: -1},
		{Op: gcn3.OpSEndpgm},
	})
	info, err := e.Peek(w)
	if err != nil {
		t.Fatal(err)
	}
	if info.WaitVM != 2 || info.WaitLGKM != -1 {
		t.Fatalf("waitcnt fields: vm %d lgkm %d", info.WaitVM, info.WaitLGKM)
	}
	if info.Category != isa.CatWaitcnt {
		t.Fatalf("category %s", info.Category)
	}
}

// TestInstInfoCountersAreOpPredicates: the counters the timing model counts
// an instruction against are the ones the finalizer's s_waitcnt pass waits
// on, because both read gcn3.Op's IsVMem and IsLGKM.
func TestInstInfoCountersAreOpPredicates(t *testing.T) {
	e := &GCN3Engine{prog: &gcn3.Program{}}
	for op := gcn3.Op(0); op < gcn3.Op(gcn3.NumOps); op++ {
		e.prog.Insts = append(e.prog.Insts, gcn3.Inst{Op: op})
	}
	vm, lgkm := 0, 0
	for i, in := range e.prog.Insts {
		info := e.decodeInfo(i)
		if info.IsVMem != in.Op.IsVMem() || info.IsLGKM != in.Op.IsLGKM() {
			t.Errorf("%s: InstInfo counts vmcnt %v lgkmcnt %v, the op %v %v",
				in.Op, info.IsVMem, info.IsLGKM, in.Op.IsVMem(), in.Op.IsLGKM())
		}
		if info.IsVMem {
			vm++
		}
		if info.IsLGKM {
			lgkm++
		}
	}
	if vm == 0 || lgkm == 0 {
		t.Errorf("%d ops count vmcnt and %d lgkmcnt; want some of each", vm, lgkm)
	}
}
