package workloads

import (
	"sort"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// XSBench models the Monte Carlo cross-section lookup benchmark: each
// work-item draws pseudo-random energies (an in-kernel LCG), binary-searches
// a sorted energy grid with conditional moves (uniform trip count — "simple
// control flow amenable to HSAIL", Figure 9), then takes a DIVERGENT
// material branch gathering from an uneven number of nuclide tables, which
// pulls SIMD utilization down to the paper's ~53% (Table 6).
func XSBench() *Workload {
	return &Workload{
		Name:        "XSBench",
		Description: "Monte Carlo particle transport simulation",
		Prepare:     prepareXSBench,
	}
}

const (
	xsLCGMul = 1664525
	xsLCGAdd = 1013904223
)

func prepareXSBench(scale int) (*Instance, error) {
	grid := 1024 * scale
	gridPts := 2048 // energy grid entries (power of two)

	b := kernel.NewBuilder("xs_lookup")
	egridArg := b.ArgPtr("egrid")
	xs0Arg := b.ArgPtr("xs0")
	xs1Arg := b.ArgPtr("xs1")
	xs2Arg := b.ArgPtr("xs2")
	xs3Arg := b.ArgPtr("xs3")
	outArg := b.ArgPtr("out")
	mArg := b.ArgU32("m")
	gid := b.WorkItemAbsID(isa.DimX)
	egrid := b.LoadArg(egridArg)
	xs0 := b.LoadArg(xs0Arg)
	xs1 := b.LoadArg(xs1Arg)
	xs2 := b.LoadArg(xs2Arg)
	xs3 := b.LoadArg(xs3Arg)
	mV := b.LoadArg(mArg)
	seed := b.Mul(u32T, gid, b.Int(u32T, 2654435761))
	seed = b.Add(u32T, seed, b.Int(u32T, 12345))
	seedReg := b.Mov(u32T, seed)
	// Particles sample a DATA-DEPENDENT number of energies (2-9): lanes
	// retire from the lookup loop at different trip counts, the main
	// source of XSBench's ~53% SIMD utilization (Table 6).
	nl := b.Add(u32T, b.And(u32T, b.Shr(u32T, seedReg, b.Int(u32T, 4)), b.Int(u32T, 7)), b.Int(u32T, 2))
	acc := b.Mov(f32T, b.F32(0))
	gather := func(base kernel.Val, idx kernel.Val) kernel.Val {
		return b.Load(hsail.SegReadonly, f32T, b.Add(u64T, base, b.Shl(u64T, b.Cvt(u64T, idx), b.Int(u64T, 2))), 0)
	}
	l := b.Mov(u32T, b.Int(u32T, 0))
	b.WhileCmp(isa.CmpLt, u32T, l, nl, func() {
		// LCG step and energy draw in [0, 1).
		b.MovTo(seedReg, b.Add(u32T, b.Mul(u32T, seedReg, b.Int(u32T, xsLCGMul)), b.Int(u32T, xsLCGAdd)))
		eBits := b.Shr(u32T, seedReg, b.Int(u32T, 8))
		e := b.Mul(f32T, b.Cvt(f32T, eBits), b.F32(1.0/16777216.0))
		// Branch-free binary search: lo tracks the last grid point <= e.
		lo := b.Mov(u32T, b.Int(u32T, 0))
		step := b.Mov(u32T, b.Shr(u32T, mV, b.Int(u32T, 1)))
		b.WhileCmp(isa.CmpGt, u32T, step, b.Int(u32T, 0), func() {
			mid := b.Add(u32T, lo, step)
			ev := gather(egrid, mid)
			c := b.Cmp(isa.CmpLe, f32T, ev, e)
			b.CmovTo(lo, c, mid, lo)
			b.BinaryTo(hsail.OpShr, step, step, b.Int(u32T, 1))
		})
		// Divergent material branch: "fissionable" materials gather from
		// all four nuclide tables, others from one.
		mat := b.And(u32T, seedReg, b.Int(u32T, 7))
		b.IfCmp(isa.CmpLt, u32T, mat, b.Int(u32T, 3), func() {
			s := b.Add(f32T, gather(xs0, lo), gather(xs1, lo))
			s = b.Add(f32T, s, gather(xs2, lo))
			s = b.Add(f32T, s, gather(xs3, lo))
			b.MovTo(acc, b.Add(f32T, acc, s))
		}, func() {
			b.MovTo(acc, b.Add(f32T, acc, gather(xs0, lo)))
		})
		b.BinaryTo(hsail.OpAdd, l, l, b.Int(u32T, 1))
	})
	outAddr := gidByteOffset(b, gid, b.LoadArg(outArg), 2)
	b.Store(hsail.SegGlobal, acc, outAddr, 0)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		return nil, err
	}

	r := rng("XSBench", scale)
	eg := make([]float32, gridPts)
	for i := range eg {
		eg[i] = float32(r.Float64())
	}
	sort.Slice(eg, func(i, j int) bool { return eg[i] < eg[j] })
	eg[0] = 0
	tables := make([][]float32, 4)
	for t := range tables {
		tables[t] = make([]float32, gridPts)
		for i := range tables[t] {
			tables[t][i] = float32(r.Intn(1024)) / 64
		}
	}

	type bufs struct{ out buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		egB := allocF32(m, eg)
		var xsB [4]buf
		for t := range tables {
			xsB[t] = allocF32(m, tables[t])
		}
		outB := allocF32(m, make([]float32, grid))
		state.put(m, bufs{out: outB})
		return m.Submit(launch1D(ks, grid, 64,
			egB.addr, xsB[0].addr, xsB[1].addr, xsB[2].addr, xsB[3].addr, outB.addr, uint64(gridPts)))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for g := 0; g < grid; g++ {
			seed := uint32(g)*2654435761 + 12345
			nl := int(seed>>4&7) + 2
			var acc float32
			for l := 0; l < nl; l++ {
				seed = seed*xsLCGMul + xsLCGAdd
				e := float32(seed>>8) * float32(1.0/16777216.0)
				lo := uint32(0)
				for step := uint32(gridPts / 2); step > 0; step >>= 1 {
					mid := lo + step
					if eg[mid] <= e {
						lo = mid
					}
				}
				if seed&7 < 3 {
					acc += tables[0][lo] + tables[1][lo] + tables[2][lo] + tables[3][lo]
				} else {
					acc += tables[0][lo]
				}
			}
			if err := checkClose("XSBench", g, float64(s.out.f32(m, g)), float64(acc), 1e-5); err != nil {
				return err
			}
		}
		return nil
	}
	return inst, nil
}
