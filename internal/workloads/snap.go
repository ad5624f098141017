package workloads

import (
	"math"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// SNAP models the discrete-ordinates neutral-particle transport proxy: each
// work-item sweeps one angular ordinate across a row of cells, carrying the
// angular flux through a chain of f64 fma + divide recurrences. Control flow
// is a regular uniform loop (100% SIMD utilization, Table 6) while the f64
// divide-per-cell drives GCN3 code expansion.
func SNAP() *Workload {
	return &Workload{
		Name:        "SNAP",
		Description: "Discrete ordinates neutral particle transport",
		Prepare:     prepareSNAP,
	}
}

func prepareSNAP(scale int) (*Instance, error) {
	angles := 512 * scale
	ncells := 24

	b := kernel.NewBuilder("snap_sweep")
	muArg := b.ArgPtr("mu")
	wArg := b.ArgPtr("wt")
	qArg := b.ArgPtr("qext")
	sArg := b.ArgPtr("sigt")
	fluxArg := b.ArgPtr("flux")
	ncArg := b.ArgU32("ncells")
	a := b.WorkItemAbsID(isa.DimX)
	mu := b.Load(hsail.SegGlobal, f64T, gidByteOffset(b, a, b.LoadArg(muArg), 3), 0)
	w := b.Load(hsail.SegGlobal, f64T, gidByteOffset(b, a, b.LoadArg(wArg), 3), 0)
	qBase := b.LoadArg(qArg)
	sBase := b.LoadArg(sArg)
	fluxBase := b.LoadArg(fluxArg)
	nc := b.LoadArg(ncArg)
	// flux row base for this angle: flux + a*ncells*8.
	rowOff := b.Mul(u64T, b.Cvt(u64T, b.Mul(u32T, a, nc)), b.Int(u64T, 8))
	rowBase := b.Add(u64T, fluxBase, rowOff)
	psi := b.Mov(f64T, b.F64(1))
	c := b.Mov(u32T, b.Int(u32T, 0))
	b.WhileCmp(isa.CmpLt, u32T, c, nc, func() {
		cOff := b.Shl(u64T, b.Cvt(u64T, c), b.Int(u64T, 3))
		q := b.Load(hsail.SegGlobal, f64T, b.Add(u64T, qBase, cOff), 0)
		st := b.Load(hsail.SegGlobal, f64T, b.Add(u64T, sBase, cOff), 0)
		num := b.Fma(f64T, mu, psi, q)
		den := b.Add(f64T, st, b.F64(1))
		b.MovTo(psi, b.Div(f64T, num, den))
		out := b.Mul(f64T, w, psi)
		b.Store(hsail.SegGlobal, out, b.Add(u64T, rowBase, cOff), 0)
		b.BinaryTo(hsail.OpAdd, c, c, b.Int(u32T, 1))
	})
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		return nil, err
	}

	r := rng("SNAP", scale)
	mus := make([]float64, angles)
	wts := make([]float64, angles)
	for i := range mus {
		mus[i] = float64(r.Intn(128))/256 + 0.25
		wts[i] = float64(r.Intn(64))/64 + 0.5
	}
	qext := make([]float64, ncells)
	sigt := make([]float64, ncells)
	for i := range qext {
		qext[i] = float64(r.Intn(512)) / 32
		sigt[i] = float64(r.Intn(256)) / 64
	}

	type bufs struct{ flux buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		muB, wB := allocF64(m, mus), allocF64(m, wts)
		qB, sB := allocF64(m, qext), allocF64(m, sigt)
		fB := allocF64(m, make([]float64, angles*ncells))
		state.put(m, bufs{flux: fB})
		return m.Submit(launch1D(ks, angles, 64, muB.addr, wB.addr, qB.addr, sB.addr, fB.addr, uint64(ncells)))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for a := 0; a < angles; a += 9 {
			psi := 1.0
			for c := 0; c < ncells; c++ {
				psi = math.FMA(mus[a], psi, qext[c]) / (sigt[c] + 1)
				want := wts[a] * psi
				if err := checkClose("SNAP", a*ncells+c, s.flux.f64(m, a*ncells+c), want, 1e-10); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst, nil
}
