package workloads

import (
	"fmt"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// ArrayBW is the memory-streaming microbenchmark: every work-item strides
// through a large global buffer in a tight loop with a UNIFORM trip count —
// the "simple control flow amenable to HSAIL execution" case the paper uses
// to show loop-dominated front ends behave similarly under both ISAs
// (Figure 9) while memory behavior dominates runtime (Figure 12).
func ArrayBW() *Workload {
	return &Workload{
		Name:        "ArrayBW",
		Description: "Memory streaming",
		Prepare:     prepareArrayBW,
	}
}

func prepareArrayBW(scale int) (*Instance, error) {
	grid := 1024 * scale
	iters := 16
	n := grid * iters

	b := kernel.NewBuilder("array_bw")
	inArg := b.ArgPtr("in")
	outArg := b.ArgPtr("out")
	itersArg := b.ArgU32("iters")
	gid := b.WorkItemAbsID(isa.DimX)
	inAddr := gidByteOffset(b, gid, b.LoadArg(inArg), 2)
	outAddr := gidByteOffset(b, gid, b.LoadArg(outArg), 2)
	iterV := b.LoadArg(itersArg)
	stride := b.Shl(u64T, b.Cvt(u64T, b.GridSize(isa.DimX)), b.Int(u64T, 2))
	sum := b.Mov(u32T, b.Int(u32T, 0))
	cur := b.Mov(u64T, inAddr)
	i := b.Mov(u32T, b.Int(u32T, 0))
	b.WhileCmp(isa.CmpLt, u32T, i, iterV, func() {
		v := b.Load(hsail.SegGlobal, u32T, cur, 0)
		b.BinaryTo(hsail.OpAdd, sum, sum, v)
		b.BinaryTo(hsail.OpAdd, cur, cur, stride)
		b.BinaryTo(hsail.OpAdd, i, i, b.Int(u32T, 1))
	})
	b.Store(hsail.SegGlobal, sum, outAddr, 0)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		return nil, err
	}

	r := rng("ArrayBW", scale)
	// Streaming data is highly value-redundant (the paper's ArrayBW shows
	// ~12% lane uniqueness under HSAIL): draw from a small value set.
	input := make([]uint32, n)
	for i := range input {
		input[i] = uint32(r.Intn(48))
	}

	type bufs struct{ in, out buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		s := bufs{in: allocU32(m, input), out: allocU32(m, make([]uint32, grid))}
		state.put(m, s)
		return m.Submit(launch1D(ks, grid, 64, s.in.addr, s.out.addr, uint64(iters)))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for i := 0; i < grid; i++ {
			want := uint32(0)
			for k := 0; k < iters; k++ {
				want += input[i+k*grid]
			}
			if got := s.out.u32(m, i); got != want {
				return fmt.Errorf("ArrayBW: out[%d] = %d, want %d", i, got, want)
			}
		}
		return nil
	}
	return inst, nil
}
