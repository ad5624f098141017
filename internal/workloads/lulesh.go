package workloads

import (
	"fmt"
	"math"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// LULESH models the hydrodynamics proxy app the paper leans on most: it is
// "composed of 27 unique kernels", dispatches dynamically MANY times, uses
// the PRIVATE segment for register spilling, and its combined GCN3
// instruction footprint exceeds the 16KB L1 instruction cache while the
// HSAIL approximation does not (paper §V.C) — producing the 10x L1I miss
// increase and the runtime inversion of Figure 12.
func LULESH() *Workload {
	return &Workload{
		Name:        "LULESH",
		Description: "Hydrodynamic simulation",
		Prepare:     prepareLULESH,
	}
}

// luleshKernels is the number of unique kernels, per the paper.
const luleshKernels = 27

// luleshCoef derives kernel k's coefficient set deterministically.
func luleshCoef(k int) (c1, c2, c3, c4, c5 float64, extra int, private bool) {
	c1 = 1.0 + float64(k)*0.125
	c2 = 2.0 + float64(k%5)*0.25
	c3 = 1.5 + float64(k%7)*0.5
	c4 = 0.875 - float64(k%3)*0.125
	c5 = 3.0 + float64(k%4)
	extra = 14 + k%6
	private = k%3 == 0
	return
}

// buildLuleshKernel constructs unique kernel k: f64 element algebra with
// three divides, a square root, an FMA chain, and (for a third of the
// kernels) private-segment spill/fill traffic.
func buildLuleshKernel(k int) (*core.KernelSource, error) {
	c1, c2, c3, c4, c5, extra, private := luleshCoef(k)
	b := kernel.NewBuilder(fmt.Sprintf("lulesh_k%02d", k))
	aArg := b.ArgPtr("a")
	bArg := b.ArgPtr("b")
	oArg := b.ArgPtr("out")
	if private {
		b.SetPrivateSize(16)
	}
	gid := b.WorkItemAbsID(isa.DimX)
	aAddr := gidByteOffset(b, gid, b.LoadArg(aArg), 3)
	bAddr := gidByteOffset(b, gid, b.LoadArg(bArg), 3)
	oAddr := gidByteOffset(b, gid, b.LoadArg(oArg), 3)
	va := b.Load(hsail.SegGlobal, f64T, aAddr, 0)
	vb := b.Load(hsail.SegGlobal, f64T, bAddr, 0)
	t1 := b.Fma(f64T, va, b.F64(c1), vb)
	t2 := b.Div(f64T, b.Add(f64T, va, b.F64(c2)), b.Fma(f64T, vb, vb, b.F64(c3)))
	t3 := b.Sqrt(f64T, b.Add(f64T, b.Abs(f64T, t2), b.F64(1)))
	if private {
		b.Store(hsail.SegPrivate, t1, kernel.NoBase, 0)
		b.Store(hsail.SegPrivate, t3, kernel.NoBase, 8)
	}
	t4 := b.Div(f64T, t1, t3)
	for e := 0; e < extra; e++ {
		t4 = b.Fma(f64T, t4, b.F64(c4), t2)
	}
	// Artificial-viscosity-style secondary term: another divide + sqrt.
	q1 := b.Div(f64T, b.Fma(f64T, t4, t4, b.F64(1)), b.Add(f64T, t3, b.F64(c2)))
	t4 = b.Add(f64T, t4, b.Sqrt(f64T, b.Abs(f64T, q1)))
	if private {
		p1 := b.Load(hsail.SegPrivate, f64T, kernel.NoBase, 0)
		t4 = b.Add(f64T, t4, p1)
	}
	t5 := b.Div(f64T, b.Add(f64T, t4, vb), b.Add(f64T, b.Abs(f64T, va), b.F64(c5)))
	b.Store(hsail.SegGlobal, t5, oAddr, 0)
	b.Ret()
	return core.PrepareKernel(b.MustFinish(), finalizer.Options{})
}

// luleshHost mirrors kernel k on the host.
func luleshHost(k int, va, vb float64) float64 {
	c1, c2, c3, c4, c5, extra, private := luleshCoef(k)
	t1 := math.FMA(va, c1, vb)
	t2 := (va + c2) / math.FMA(vb, vb, c3)
	t3 := math.Sqrt(math.Abs(t2) + 1)
	t4 := t1 / t3
	for e := 0; e < extra; e++ {
		t4 = math.FMA(t4, c4, t2)
	}
	q1 := math.FMA(t4, t4, 1) / (t3 + c2)
	t4 += math.Sqrt(math.Abs(q1))
	if private {
		t4 += t1
	}
	return (t4 + vb) / (math.Abs(va) + c5)
}

func prepareLULESH(scale int) (*Instance, error) {
	grid := 512 * scale
	timesteps := 3 * scale

	kernels := make([]*core.KernelSource, luleshKernels)
	for k := range kernels {
		ks, err := buildLuleshKernel(k)
		if err != nil {
			return nil, fmt.Errorf("lulesh kernel %d: %w", k, err)
		}
		kernels[k] = ks
	}

	r := rng("LULESH", scale)
	a := make([]float64, grid)
	bv := make([]float64, grid)
	// Field data is smooth and quantized (repeated node values), which is
	// what makes the GCN3-exposed address/divide intermediates dominate
	// the paper's LULESH uniqueness result.
	for i := range a {
		a[i] = float64(r.Intn(24))/4 - 3
		bv[i] = float64(r.Intn(24))/4 - 3
	}

	type bufs struct{ outs []buf }
	var state runState[bufs]
	inst := &Instance{Kernels: kernels}
	inst.Setup = func(m *core.Machine) error {
		aB := allocF64(m, a)
		bB := allocF64(m, bv)
		outs := make([]buf, luleshKernels)
		for k := range outs {
			outs[k] = allocF64(m, make([]float64, grid))
		}
		state.put(m, bufs{outs: outs})
		// Many dynamic launches: every timestep dispatches all 27 kernels.
		for t := 0; t < timesteps; t++ {
			for k, ks := range kernels {
				if err := m.Submit(launch1D(ks, grid, 64, aB.addr, bB.addr, outs[k].addr)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for k := 0; k < luleshKernels; k++ {
			for i := 0; i < grid; i += 7 {
				want := luleshHost(k, a[i], bv[i])
				if err := checkClose(fmt.Sprintf("LULESH.k%d", k), i, s.outs[k].f64(m, i), want, 1e-10); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst, nil
}
