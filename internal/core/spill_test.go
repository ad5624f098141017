package core

import (
	"testing"

	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/kernel/randkernel"
	"ilsim/internal/stats"
)

// TestFinalizerSpillingPreservesSemantics squeezes random kernels through a
// tight VGPR budget so the finalizer's spill-everywhere path engages, and
// checks outputs still match the unconstrained build.
func TestFinalizerSpillingPreservesSemantics(t *testing.T) {
	const grid = 64
	for seed := int64(0); seed < 20; seed++ {
		k, err := randkernel.Gen(seed, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := runRandomOpts(t, k, seed, grid, finalizer.Options{})
		tight := runRandomOpts(t, k, seed, grid, finalizer.Options{MaxVGPRs: 64})
		for i := range base {
			if tight[i] != base[i] {
				t.Fatalf("seed %d: spilling changed semantics at lane %d: %#x != %#x",
					seed, i, tight[i], base[i])
			}
		}
	}
}

// TestSpillingGeneratesScratchTraffic verifies a high-pressure kernel under
// a tight budget spills: its code object demands scratch memory and executes
// extra flat memory operations.
func TestSpillingGeneratesScratchTraffic(t *testing.T) {
	build := func() *kernel.Builder {
		b := kernel.NewBuilder("pressure")
		inArg := b.ArgPtr("in")
		outArg := b.ArgPtr("out")
		gid := b.WorkItemAbsID(isa.DimX)
		off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
		x := b.Load(hsail.SegGlobal, isa.TypeU32, b.Add(isa.TypeU64, b.LoadArg(inArg), off), 0)
		// 80 simultaneously-live values.
		var vals []kernel.Val
		for i := 0; i < 80; i++ {
			vals = append(vals, b.Add(isa.TypeU32, x, b.Int(isa.TypeU32, int64(i*7))))
		}
		acc := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
		for _, v := range vals {
			acc = b.Xor(isa.TypeU32, acc, v)
		}
		b.Store(hsail.SegGlobal, acc, b.Add(isa.TypeU64, b.LoadArg(outArg), off), 0)
		b.Ret()
		return b
	}
	kRaw, err := build().FinishRaw()
	if err != nil {
		t.Fatal(err)
	}
	loose, err := finalizer.Finalize(kRaw, finalizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := finalizer.Finalize(kRaw, finalizer.Options{MaxVGPRs: 72})
	if err != nil {
		t.Fatalf("tight budget failed to spill: %v", err)
	}
	if loose.PrivateSize != 0 {
		t.Fatalf("unconstrained build should not spill, scratch=%d", loose.PrivateSize)
	}
	if tight.PrivateSize == 0 {
		t.Fatal("tight build did not allocate spill scratch")
	}
	if tight.NumVGPRs > 72 {
		t.Fatalf("tight build exceeds its budget: %d VGPRs", tight.NumVGPRs)
	}
	if len(tight.Program.Insts) <= len(loose.Program.Insts) {
		t.Fatal("spill code did not grow the program")
	}

	// And the spilled binary must still compute the right answer.
	ksLoose, err := PrepareKernel(kRaw, finalizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ksTight, err := PrepareKernel(kRaw, finalizer.Options{MaxVGPRs: 72})
	if err != nil {
		t.Fatal(err)
	}
	outputs := func(ks *KernelSource) []uint32 {
		m := NewMachine(AbsGCN3, &stats.Run{})
		in := m.Ctx.AllocBuffer(4 * 64)
		out := m.Ctx.AllocBuffer(4 * 64)
		for i := 0; i < 64; i++ {
			m.Ctx.Mem.WriteU32(in+uint64(4*i), uint32(i*2654435761))
		}
		if err := m.Submit(Launch{Kernel: ks, Grid: [3]uint32{64, 1, 1},
			WG: [3]uint16{64, 1, 1}, Args: []uint64{in, out}}); err != nil {
			t.Fatal(err)
		}
		if err := m.RunFunctional(); err != nil {
			t.Fatal(err)
		}
		got := make([]uint32, 64)
		for i := range got {
			got[i] = m.Ctx.Mem.ReadU32(out + uint64(4*i))
		}
		return got
	}
	a, b := outputs(ksLoose), outputs(ksTight)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spilled build wrong at %d: %#x != %#x", i, b[i], a[i])
		}
	}
}
