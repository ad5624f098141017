package workloads

import (
	"fmt"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
)

// Fig3 is the paper's Figure 3 walkthrough as a workload: one divergent
// wavefront through an if-else-if whose HSAIL execution takes three
// reconvergence-stack redirects and whose predicated GCN3 code takes none.
// Its 64 lanes read in[i] = i mod 30, so some lanes take each of the three
// paths. The input does not grow with scale.
func Fig3() *Workload {
	return &Workload{
		Name:        "Fig3",
		Description: "Figure 3 if-else-if control flow",
		Prepare:     prepareFig3,
	}
}

func prepareFig3(int) (*Instance, error) {
	const lanes = 64
	ks, err := core.PrepareKernel(fig3Kernel(), finalizer.Options{})
	if err != nil {
		return nil, err
	}
	input := make([]uint32, lanes)
	for i := range input {
		input[i] = uint32(i % 30)
	}

	var state runState[inOut]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		s := inOut{in: allocU32(m, input), out: buf{addr: m.Ctx.AllocBuffer(4 * lanes), n: lanes}}
		state.put(m, s)
		return m.Submit(launch1D(ks, lanes, lanes, s.in.addr, s.out.addr))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for i, x := range input {
			want := uint32(84)
			if x >= 20 {
				want = 90
			}
			if got := s.out.u32(m, i); got != want {
				return fmt.Errorf("Fig3: out[%d] = %d for in %d, want %d", i, got, x, want)
			}
		}
		return nil
	}
	return inst, nil
}

// fig3Kernel hand-builds the paper's exact Figure 3a/3b CFG — an if-else-if
// whose two branches share the reconvergence point BB4 (the builder's
// structured helpers would nest distinct joins, which costs extra redirects;
// the paper's compiler emits the flat five-block form):
//
//	BB0: x = in[gid]; res = 84; cbr (x >= 10) -> BB2
//	BB1: res = 84; br BB4          (then path)
//	BB2: cbr (x < 20) -> BB4       (branch straight to the RPC: no flush)
//	BB3: res = 90                  (else-if body)
//	BB4: out[gid] = res; ret
func fig3Kernel() *hsail.Kernel {
	k := &hsail.Kernel{
		Name:        "fig3_example",
		NumRegSlots: 16,
		NumCRegs:    2,
		Args: []hsail.ArgInfo{
			{Name: "in", Size: 8, Offset: 0},
			{Name: "out", Size: 8, Offset: 8},
		},
		KernargSize: 16,
	}
	const (
		rGid  = 0 // u32
		rOff  = 2 // u64 pair
		rAddr = 4 // u64 pair
		rX    = 6 // u32
		rRes  = 7 // u32
		rOut  = 8 // u64 pair
	)
	k.Blocks = []*hsail.Block{
		{ID: 0, Insts: []hsail.Inst{
			{Op: hsail.OpWorkItemAbsId, Type: u32T, Dim: isa.DimX, Dst: hsail.Reg(rGid)},
			{Op: hsail.OpCvt, Type: u64T, SrcType: u32T, Dst: hsail.Reg(rOff), Srcs: [3]hsail.Operand{hsail.Reg(rGid)}, NSrc: 1},
			{Op: hsail.OpShl, Type: u64T, Dst: hsail.Reg(rOff), Srcs: [3]hsail.Operand{hsail.Reg(rOff), hsail.Imm(2)}, NSrc: 2},
			{Op: hsail.OpLd, Type: u64T, Seg: hsail.SegKernarg, Dst: hsail.Reg(rAddr), Addr: hsail.MemAddr{Base: hsail.ArgSym(0)}},
			{Op: hsail.OpAdd, Type: u64T, Dst: hsail.Reg(rAddr), Srcs: [3]hsail.Operand{hsail.Reg(rAddr), hsail.Reg(rOff)}, NSrc: 2},
			{Op: hsail.OpLd, Type: u32T, Seg: hsail.SegGlobal, Dst: hsail.Reg(rX), Addr: hsail.MemAddr{Base: hsail.Reg(rAddr)}},
			{Op: hsail.OpMov, Type: u32T, Dst: hsail.Reg(rRes), Srcs: [3]hsail.Operand{hsail.Imm(84)}, NSrc: 1},
			{Op: hsail.OpLd, Type: u64T, Seg: hsail.SegKernarg, Dst: hsail.Reg(rOut), Addr: hsail.MemAddr{Base: hsail.ArgSym(1)}},
			{Op: hsail.OpAdd, Type: u64T, Dst: hsail.Reg(rOut), Srcs: [3]hsail.Operand{hsail.Reg(rOut), hsail.Reg(rOff)}, NSrc: 2},
			{Op: hsail.OpCmp, SrcType: u32T, Cmp: isa.CmpGe, Dst: hsail.CReg(0), Srcs: [3]hsail.Operand{hsail.Reg(rX), hsail.Imm(10)}, NSrc: 2},
			{Op: hsail.OpCBr, Srcs: [3]hsail.Operand{hsail.CReg(0)}, NSrc: 1, Target: 2},
		}},
		{ID: 1, Insts: []hsail.Inst{
			{Op: hsail.OpMov, Type: u32T, Dst: hsail.Reg(rRes), Srcs: [3]hsail.Operand{hsail.Imm(84)}, NSrc: 1},
			{Op: hsail.OpBr, Target: 4},
		}},
		{ID: 2, Insts: []hsail.Inst{
			{Op: hsail.OpCmp, SrcType: u32T, Cmp: isa.CmpLt, Dst: hsail.CReg(1), Srcs: [3]hsail.Operand{hsail.Reg(rX), hsail.Imm(20)}, NSrc: 2},
			{Op: hsail.OpCBr, Srcs: [3]hsail.Operand{hsail.CReg(1)}, NSrc: 1, Target: 4},
		}},
		{ID: 3, Insts: []hsail.Inst{
			{Op: hsail.OpMov, Type: u32T, Dst: hsail.Reg(rRes), Srcs: [3]hsail.Operand{hsail.Imm(90)}, NSrc: 1},
		}},
		{ID: 4, Insts: []hsail.Inst{
			{Op: hsail.OpSt, Type: u32T, Seg: hsail.SegGlobal, Srcs: [3]hsail.Operand{hsail.Reg(rRes)}, NSrc: 1, Addr: hsail.MemAddr{Base: hsail.Reg(rOut)}},
			{Op: hsail.OpRet},
		}},
	}
	return k
}
