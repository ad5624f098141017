package workloads

import (
	"math"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// HPGMG models the multigrid benchmark's smoother and restriction kernels:
// vector-memory-heavy f64 stencils over a TWO-DIMENSIONAL grid (2-D
// workgroups exercise the multi-dimensional work-item ABI) whose boundary
// handling is pure PREDICATION — conditional moves clamp the stencil
// indexes, so the kernels contain no branches at all, as the paper's
// Figure 9 discussion notes for HPGMG.
func HPGMG() *Workload {
	return &Workload{
		Name:        "HPGMG",
		Description: "Ranks HPC systems (multigrid)",
		Prepare:     prepareHPGMG,
	}
}

// buildSmooth2D is a 5-point weighted-Jacobi smoother on an n×n grid.
func buildSmooth2D() (*core.KernelSource, error) {
	b := kernel.NewBuilder("hpgmg_smooth2d")
	inArg := b.ArgPtr("in")
	outArg := b.ArgPtr("out")
	nArg := b.ArgU32("n")
	n := b.LoadArg(nArg)
	nm1 := b.Sub(u32T, n, b.Int(u32T, 1))
	x := b.Mad(u32T, b.WorkGroupID(isa.DimX), b.WorkGroupSize(isa.DimX), b.WorkItemID(isa.DimX))
	y := b.Mad(u32T, b.WorkGroupID(isa.DimY), b.WorkGroupSize(isa.DimY), b.WorkItemID(isa.DimY))
	// Clamped neighbor coordinates via conditional moves (no branches).
	clampDec := func(v kernel.Val) kernel.Val {
		at0 := b.Cmp(isa.CmpEq, u32T, v, b.Int(u32T, 0))
		return b.Cmov(u32T, at0, v, b.Sub(u32T, v, b.Int(u32T, 1)))
	}
	clampInc := func(v kernel.Val) kernel.Val {
		atMax := b.Cmp(isa.CmpGe, u32T, v, nm1)
		return b.Cmov(u32T, atMax, v, b.Add(u32T, v, b.Int(u32T, 1)))
	}
	xl, xr := clampDec(x), clampInc(x)
	yu, yd := clampDec(y), clampInc(y)
	inBase := b.LoadArg(inArg)
	at := func(yy, xx kernel.Val) kernel.Val {
		idx := b.Mad(u32T, yy, n, xx)
		return b.Load(hsail.SegGlobal, f64T,
			b.Add(u64T, inBase, b.Shl(u64T, b.Cvt(u64T, idx), b.Int(u64T, 3))), 0)
	}
	c := at(y, x)
	sum := b.Add(f64T, b.Add(f64T, at(y, xl), at(y, xr)), b.Add(f64T, at(yu, x), at(yd, x)))
	res := b.Mul(f64T, b.Fma(f64T, c, b.F64(4), sum), b.F64(0.125))
	outIdx := b.Mad(u32T, y, n, x)
	outAddr := b.Add(u64T, b.LoadArg(outArg),
		b.Shl(u64T, b.Cvt(u64T, outIdx), b.Int(u64T, 3)))
	b.Store(hsail.SegGlobal, res, outAddr, 0)
	b.Ret()
	return core.PrepareKernel(b.MustFinish(), finalizer.Options{})
}

// buildRestrict2D averages 2×2 fine cells into each coarse cell.
func buildRestrict2D() (*core.KernelSource, error) {
	b := kernel.NewBuilder("hpgmg_restrict2d")
	fineArg := b.ArgPtr("fine")
	coarseArg := b.ArgPtr("coarse")
	nArg := b.ArgU32("nFine")
	nFine := b.LoadArg(nArg)
	x := b.Mad(u32T, b.WorkGroupID(isa.DimX), b.WorkGroupSize(isa.DimX), b.WorkItemID(isa.DimX))
	y := b.Mad(u32T, b.WorkGroupID(isa.DimY), b.WorkGroupSize(isa.DimY), b.WorkItemID(isa.DimY))
	fx := b.Shl(u32T, x, b.Int(u32T, 1))
	fy := b.Shl(u32T, y, b.Int(u32T, 1))
	fineBase := b.LoadArg(fineArg)
	at := func(yy, xx kernel.Val, off int32) kernel.Val {
		idx := b.Mad(u32T, yy, nFine, xx)
		return b.Load(hsail.SegGlobal, f64T,
			b.Add(u64T, fineBase, b.Shl(u64T, b.Cvt(u64T, idx), b.Int(u64T, 3))), off)
	}
	fy1 := b.Add(u32T, fy, b.Int(u32T, 1))
	s := b.Add(f64T, b.Add(f64T, at(fy, fx, 0), at(fy, fx, 8)),
		b.Add(f64T, at(fy1, fx, 0), at(fy1, fx, 8)))
	avg := b.Mul(f64T, s, b.F64(0.25))
	nCoarse := b.Shr(u32T, nFine, b.Int(u32T, 1))
	outIdx := b.Mad(u32T, y, nCoarse, x)
	outAddr := b.Add(u64T, b.LoadArg(coarseArg),
		b.Shl(u64T, b.Cvt(u64T, outIdx), b.Int(u64T, 3)))
	b.Store(hsail.SegGlobal, avg, outAddr, 0)
	b.Ret()
	return core.PrepareKernel(b.MustFinish(), finalizer.Options{})
}

func prepareHPGMG(scale int) (*Instance, error) {
	n := 64 * scale // n×n fine grid
	smooth, err := buildSmooth2D()
	if err != nil {
		return nil, err
	}
	restr, err := buildRestrict2D()
	if err != nil {
		return nil, err
	}

	r := rng("HPGMG", scale)
	input := make([]float64, n*n)
	for i := range input {
		input[i] = float64(r.Intn(1024)) / 64
	}

	launch2D := func(ks *core.KernelSource, dim int, args ...uint64) core.Launch {
		return core.Launch{
			Kernel: ks,
			Grid:   [3]uint32{uint32(dim), uint32(dim), 1},
			WG:     [3]uint16{16, 4, 1},
			Args:   args,
		}
	}

	type bufs struct{ tmp buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{smooth, restr}}
	inst.Setup = func(m *core.Machine) error {
		fine := allocF64(m, input)
		tmp := allocF64(m, make([]float64, n*n))
		coarse := allocF64(m, make([]float64, n*n/4))
		state.put(m, bufs{tmp: tmp})
		// V-cycle fragment: smooth, smooth, restrict, smooth (coarse).
		if err := m.Submit(launch2D(smooth, n, fine.addr, tmp.addr, uint64(n))); err != nil {
			return err
		}
		if err := m.Submit(launch2D(smooth, n, tmp.addr, fine.addr, uint64(n))); err != nil {
			return err
		}
		if err := m.Submit(launch2D(restr, n/2, fine.addr, coarse.addr, uint64(n))); err != nil {
			return err
		}
		return m.Submit(launch2D(smooth, n/2, coarse.addr, tmp.addr, uint64(n/2)))
	}
	inst.Check = func(m *core.Machine) error {
		st, err := state.take(m)
		if err != nil {
			return err
		}
		smoothHost := func(in []float64, n int) []float64 {
			out := make([]float64, n*n)
			cl := func(v, max int) int {
				if v < 0 {
					return 0
				}
				if v > max {
					return max
				}
				return v
			}
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					sum := in[y*n+cl(x-1, n-1)] + in[y*n+cl(x+1, n-1)] +
						in[cl(y-1, n-1)*n+x] + in[cl(y+1, n-1)*n+x]
					out[y*n+x] = math.FMA(in[y*n+x], 4, sum) * 0.125
				}
			}
			return out
		}
		s1 := smoothHost(input, n)
		s2 := smoothHost(s1, n)
		nc := n / 2
		co := make([]float64, nc*nc)
		for y := 0; y < nc; y++ {
			for x := 0; x < nc; x++ {
				co[y*nc+x] = (s2[(2*y)*n+2*x] + s2[(2*y)*n+2*x+1] +
					s2[(2*y+1)*n+2*x] + s2[(2*y+1)*n+2*x+1]) * 0.25
			}
		}
		s3 := smoothHost(co, nc)
		for i := 0; i < nc*nc; i += 3 {
			if err := checkClose("HPGMG", i, st.tmp.f64(m, i), s3[i], 1e-12); err != nil {
				return err
			}
		}
		return nil
	}
	return inst, nil
}
