package workloads

import (
	"math"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// MD is a generic all-pairs molecular-dynamics force kernel: f64 arithmetic
// with a divide and reciprocal square root per pair, in a loop with a
// UNIFORM trip count — every lane iterates identically, giving the 100% SIMD
// utilization of the paper's Table 6 while exercising heavy GCN3 instruction
// expansion (divide sequences, 64-bit operands).
func MD() *Workload {
	return &Workload{
		Name:        "MD",
		Description: "Generic molecular-dynamics algorithms",
		Prepare:     prepareMD,
	}
}

func prepareMD(scale int) (*Instance, error) {
	atoms := 192 * scale

	b := kernel.NewBuilder("md_force")
	xArg := b.ArgPtr("x")
	yArg := b.ArgPtr("y")
	zArg := b.ArgPtr("z")
	qArg := b.ArgPtr("q")
	fArg := b.ArgPtr("f")
	nArg := b.ArgU32("n")
	i := b.WorkItemAbsID(isa.DimX)
	xBase := b.LoadArg(xArg)
	yBase := b.LoadArg(yArg)
	zBase := b.LoadArg(zArg)
	qBase := b.LoadArg(qArg)
	loadAt := func(base, idx kernel.Val) kernel.Val {
		return b.Load(hsail.SegGlobal, f64T, b.Add(u64T, base, b.Shl(u64T, b.Cvt(u64T, idx), b.Int(u64T, 3))), 0)
	}
	xi := loadAt(xBase, i)
	yi := loadAt(yBase, i)
	zi := loadAt(zBase, i)
	n := b.LoadArg(nArg)
	fx := b.Mov(f64T, b.F64(0))
	fy := b.Mov(f64T, b.F64(0))
	fz := b.Mov(f64T, b.F64(0))
	j := b.Mov(u32T, b.Int(u32T, 0))
	b.WhileCmp(isa.CmpLt, u32T, j, n, func() {
		dx := b.Sub(f64T, xi, loadAt(xBase, j))
		dy := b.Sub(f64T, yi, loadAt(yBase, j))
		dz := b.Sub(f64T, zi, loadAt(zBase, j))
		// Softened squared distance (finite self-interaction).
		r2 := b.Fma(f64T, dx, dx, b.Fma(f64T, dy, dy, b.Fma(f64T, dz, dz, b.F64(0.5))))
		inv := b.Div(f64T, b.F64(1), r2)
		invr := b.Rsqrt(f64T, r2)
		s := b.Mul(f64T, b.Mul(f64T, loadAt(qBase, j), inv), invr)
		b.MovTo(fx, b.Fma(f64T, s, dx, fx))
		b.MovTo(fy, b.Fma(f64T, s, dy, fy))
		b.MovTo(fz, b.Fma(f64T, s, dz, fz))
		b.BinaryTo(hsail.OpAdd, j, j, b.Int(u32T, 1))
	})
	fAddr := b.Add(u64T, b.LoadArg(fArg), b.Mul(u64T, b.Cvt(u64T, i), b.Int(u64T, 24)))
	b.Store(hsail.SegGlobal, fx, fAddr, 0)
	b.Store(hsail.SegGlobal, fy, fAddr, 8)
	b.Store(hsail.SegGlobal, fz, fAddr, 16)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		return nil, err
	}

	r := rng("MD", scale)
	x := make([]float64, atoms)
	y := make([]float64, atoms)
	z := make([]float64, atoms)
	q := make([]float64, atoms)
	for i := range x {
		x[i] = float64(r.Intn(2048)) / 64
		y[i] = float64(r.Intn(2048)) / 64
		z[i] = float64(r.Intn(2048)) / 64
		q[i] = float64(r.Intn(64))/32 - 1
	}

	type bufs struct{ force buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		xB, yB, zB, qB := allocF64(m, x), allocF64(m, y), allocF64(m, z), allocF64(m, q)
		fB := allocF64(m, make([]float64, 3*atoms))
		state.put(m, bufs{force: fB})
		return m.Submit(launch1D(ks, atoms, 64, xB.addr, yB.addr, zB.addr, qB.addr, fB.addr, uint64(atoms)))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for i := 0; i < atoms; i += 5 {
			var fx, fy, fz float64
			for j := 0; j < atoms; j++ {
				dx, dy, dz := x[i]-x[j], y[i]-y[j], z[i]-z[j]
				r2 := math.FMA(dx, dx, math.FMA(dy, dy, math.FMA(dz, dz, 0.5)))
				s := q[j] * (1 / r2) * (1 / math.Sqrt(r2))
				fx = math.FMA(s, dx, fx)
				fy = math.FMA(s, dy, fy)
				fz = math.FMA(s, dz, fz)
			}
			got := []float64{s.force.f64(m, 3*i), s.force.f64(m, 3*i+1), s.force.f64(m, 3*i+2)}
			for c, want := range []float64{fx, fy, fz} {
				if err := checkClose("MD", 3*i+c, got[c], want, 1e-9); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst, nil
}
