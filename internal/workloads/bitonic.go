package workloads

import (
	"fmt"
	"sort"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// BitonicSort is a parallel merge sort built from compare-exchange stages.
// Both kernels are completely BRANCH-FREE except for one uniform loop: pair
// indexing is pure shift/mask arithmetic and exchanges are conditional moves
// — the paper notes Bitonic-Sort "does not contain branches, and instead
// uses predication to manage conditionals" (Figure 9 discussion).
//
// Like production GPU implementations, the stages split in two:
//
//   - bitonic_global: one compare-exchange per launch, for spans that cross
//     workgroups (j > 64);
//   - bitonic_local: all spans within a 128-element block run in ONE launch,
//     staged through the LDS with workgroup barriers between stages.
func BitonicSort() *Workload {
	return &Workload{
		Name:        "BitonicSort",
		Description: "Parallel merge sort",
		Prepare:     prepareBitonic,
	}
}

// buildBitonicGlobal is the single compare-exchange stage for (k, j): thread
// t handles the pair
//
//	i  = (t &^ (j-1))*2 + (t & (j-1)),  ix = i | j
//
// sorted ascending when (i & k) == 0.
func buildBitonicGlobal() (*core.KernelSource, error) {
	b := kernel.NewBuilder("bitonic_global")
	dataArg := b.ArgPtr("data")
	jArg := b.ArgU32("j")
	kArg := b.ArgU32("k")
	t := b.WorkItemAbsID(isa.DimX)
	j := b.LoadArg(jArg)
	k := b.LoadArg(kArg)
	jm1 := b.Sub(u32T, j, b.Int(u32T, 1))
	hi := b.And(u32T, t, b.Not(u32T, jm1))
	lo := b.And(u32T, t, jm1)
	i := b.Add(u32T, b.Shl(u32T, hi, b.Int(u32T, 1)), lo)
	ix := b.Or(u32T, i, j)
	base := b.LoadArg(dataArg)
	ai := b.Add(u64T, base, b.Shl(u64T, b.Cvt(u64T, i), b.Int(u64T, 2)))
	aix := b.Add(u64T, base, b.Shl(u64T, b.Cvt(u64T, ix), b.Int(u64T, 2)))
	va := b.Load(hsail.SegGlobal, u32T, ai, 0)
	vb := b.Load(hsail.SegGlobal, u32T, aix, 0)
	asc := b.Cmp(isa.CmpEq, u32T, b.And(u32T, i, k), b.Int(u32T, 0))
	lt := b.Cmp(isa.CmpLe, u32T, va, vb)
	mn := b.Cmov(u32T, lt, va, vb)
	mx := b.Cmov(u32T, lt, vb, va)
	first := b.Cmov(u32T, asc, mn, mx)
	second := b.Cmov(u32T, asc, mx, mn)
	b.Store(hsail.SegGlobal, first, ai, 0)
	b.Store(hsail.SegGlobal, second, aix, 0)
	b.Ret()
	return core.PrepareKernel(b.MustFinish(), finalizer.Options{})
}

// buildBitonicLocal runs every stage with span <= 64 inside a 128-element
// block: load the block into LDS, loop j = jStart, jStart/2, ..., 1 with a
// barrier per stage (a UNIFORM loop — the finalizer emits a scalar branch),
// and store the block back.
func buildBitonicLocal() (*core.KernelSource, error) {
	b := kernel.NewBuilder("bitonic_local")
	dataArg := b.ArgPtr("data")
	jStartArg := b.ArgU32("jstart")
	kArg := b.ArgU32("k")
	b.SetGroupSize(128 * 4)
	lid := b.WorkItemID(isa.DimX)
	wgid := b.WorkGroupID(isa.DimX)
	base := b.LoadArg(dataArg)
	blockBase := b.Shl(u32T, wgid, b.Int(u32T, 7)) // wg * 128 elements
	// Load two elements per thread into LDS.
	g0 := b.Add(u32T, blockBase, lid)
	g1 := b.Add(u32T, g0, b.Int(u32T, 64))
	gAddr := func(g kernel.Val) kernel.Val {
		return b.Add(u64T, base, b.Shl(u64T, b.Cvt(u64T, g), b.Int(u64T, 2)))
	}
	lOff := func(l kernel.Val) kernel.Val {
		return b.Shl(u64T, b.Cvt(u64T, l), b.Int(u64T, 2))
	}
	v0 := b.Load(hsail.SegGlobal, u32T, gAddr(g0), 0)
	v1 := b.Load(hsail.SegGlobal, u32T, gAddr(g1), 0)
	b.Store(hsail.SegGroup, v0, lOff(lid), 0)
	b.Store(hsail.SegGroup, v1, lOff(b.Add(u32T, lid, b.Int(u32T, 64))), 0)
	b.Barrier()

	kv := b.LoadArg(kArg)
	j := b.Mov(u32T, b.LoadArg(jStartArg))
	b.WhileCmp(isa.CmpGt, u32T, j, b.Int(u32T, 0), func() {
		jm1 := b.Sub(u32T, j, b.Int(u32T, 1))
		hi := b.And(u32T, lid, b.Not(u32T, jm1))
		lo := b.And(u32T, lid, jm1)
		i := b.Add(u32T, b.Shl(u32T, hi, b.Int(u32T, 1)), lo)
		ix := b.Or(u32T, i, j)
		va := b.Load(hsail.SegGroup, u32T, lOff(i), 0)
		vb := b.Load(hsail.SegGroup, u32T, lOff(ix), 0)
		// Direction from the GLOBAL index.
		asc := b.Cmp(isa.CmpEq, u32T, b.And(u32T, b.Add(u32T, blockBase, i), kv), b.Int(u32T, 0))
		lt := b.Cmp(isa.CmpLe, u32T, va, vb)
		mn := b.Cmov(u32T, lt, va, vb)
		mx := b.Cmov(u32T, lt, vb, va)
		b.Store(hsail.SegGroup, b.Cmov(u32T, asc, mn, mx), lOff(i), 0)
		b.Store(hsail.SegGroup, b.Cmov(u32T, asc, mx, mn), lOff(ix), 0)
		b.Barrier()
		b.BinaryTo(hsail.OpShr, j, j, b.Int(u32T, 1))
	})

	r0 := b.Load(hsail.SegGroup, u32T, lOff(lid), 0)
	r1 := b.Load(hsail.SegGroup, u32T, lOff(b.Add(u32T, lid, b.Int(u32T, 64))), 0)
	b.Store(hsail.SegGlobal, r0, gAddr(g0), 0)
	b.Store(hsail.SegGlobal, r1, gAddr(g1), 0)
	b.Ret()
	return core.PrepareKernel(b.MustFinish(), finalizer.Options{})
}

func prepareBitonic(scale int) (*Instance, error) {
	n := 1024 * scale
	for n&(n-1) != 0 {
		n++
	}

	global, err := buildBitonicGlobal()
	if err != nil {
		return nil, err
	}
	local, err := buildBitonicLocal()
	if err != nil {
		return nil, err
	}

	r := rng("BitonicSort", scale)
	input := make([]uint32, n)
	for i := range input {
		input[i] = r.Uint32() >> 8
	}

	type bufs struct{ data buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{global, local}}
	inst.Setup = func(m *core.Machine) error {
		data := allocU32(m, input)
		state.put(m, bufs{data: data})
		for k := 2; k <= n; k *= 2 {
			j := k / 2
			// Cross-workgroup spans: one global compare-exchange each.
			for ; j > 64; j /= 2 {
				if err := m.Submit(launch1D(global, n/2, 64, data.addr, uint64(j), uint64(k))); err != nil {
					return err
				}
			}
			// All remaining spans fit a 128-element block: one LDS-staged
			// launch (64 threads per block).
			if err := m.Submit(launch1D(local, n/2, 64, data.addr, uint64(j), uint64(k))); err != nil {
				return err
			}
		}
		return nil
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		want := append([]uint32(nil), input...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i := 0; i < n; i++ {
			if got := s.data.u32(m, i); got != want[i] {
				return fmt.Errorf("BitonicSort: data[%d] = %d, want %d", i, got, want[i])
			}
		}
		return nil
	}
	return inst, nil
}
