package workloads

import (
	"math"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// CoMD models the DOE molecular-dynamics proxy app's force kernel: per-atom
// loops over a neighbor list with a DIVERGENT cutoff branch inside a
// DATA-DEPENDENT loop. CoMD has "one of the highest percentages of HSAIL
// branch instructions, which are then expanded to many GCN3 scalar ALU and
// branch instructions" (paper §V.A).
func CoMD() *Workload {
	return &Workload{
		Name:        "CoMD",
		Description: "DOE molecular-dynamics algorithms",
		Prepare:     prepareCoMD,
	}
}

func prepareCoMD(scale int) (*Instance, error) {
	atoms := 512 * scale
	maxNbr := 16
	const cutoff = float32(6.25)
	const c1 = float32(0.5)

	b := kernel.NewBuilder("comd_force")
	posArg := b.ArgPtr("pos") // x,y,z interleaved (3 f32 per atom)
	nbrPtrArg := b.ArgPtr("nbrptr")
	nbrArg := b.ArgPtr("nbr")
	forceArg := b.ArgPtr("force")
	i := b.WorkItemAbsID(isa.DimX)
	posBase := b.LoadArg(posArg)
	load3 := func(idx kernel.Val) (x, y, z kernel.Val) {
		off := b.Mul(u64T, b.Cvt(u64T, idx), b.Int(u64T, 12))
		a := b.Add(u64T, posBase, off)
		return b.Load(hsail.SegGlobal, f32T, a, 0),
			b.Load(hsail.SegGlobal, f32T, a, 4),
			b.Load(hsail.SegGlobal, f32T, a, 8)
	}
	xi, yi, zi := load3(i)
	npAddr := gidByteOffset(b, i, b.LoadArg(nbrPtrArg), 2)
	start := b.Load(hsail.SegGlobal, u32T, npAddr, 0)
	end := b.Load(hsail.SegGlobal, u32T, npAddr, 4)
	nbrBase := b.LoadArg(nbrArg)
	fx := b.Mov(f32T, b.F32(0))
	fy := b.Mov(f32T, b.F32(0))
	fz := b.Mov(f32T, b.F32(0))
	k := b.Mov(u32T, start)
	b.WhileCmp(isa.CmpLt, u32T, k, end, func() {
		jAddr := b.Add(u64T, nbrBase, b.Shl(u64T, b.Cvt(u64T, k), b.Int(u64T, 2)))
		j := b.Load(hsail.SegGlobal, u32T, jAddr, 0)
		xj, yj, zj := load3(j)
		dx := b.Sub(f32T, xi, xj)
		dy := b.Sub(f32T, yi, yj)
		dz := b.Sub(f32T, zi, zj)
		// Softened squared distance (keeps coincident atoms finite).
		r2 := b.Fma(f32T, dx, dx, b.Fma(f32T, dy, dy, b.Fma(f32T, dz, dz, b.F32(0.01))))
		// Divergent cutoff branch: only close pairs contribute.
		b.IfCmp(isa.CmpLt, f32T, r2, b.F32(cutoff), func() {
			inv := b.Div(f32T, b.F32(1), r2)
			s := b.Fma(f32T, inv, inv, b.Neg(f32T, b.Mul(f32T, b.F32(c1), inv)))
			b.MovTo(fx, b.Fma(f32T, s, dx, fx))
			b.MovTo(fy, b.Fma(f32T, s, dy, fy))
			b.MovTo(fz, b.Fma(f32T, s, dz, fz))
		}, nil)
		b.BinaryTo(hsail.OpAdd, k, k, b.Int(u32T, 1))
	})
	fAddr := b.Add(u64T, b.LoadArg(forceArg), b.Mul(u64T, b.Cvt(u64T, i), b.Int(u64T, 12)))
	b.Store(hsail.SegGlobal, fx, fAddr, 0)
	b.Store(hsail.SegGlobal, fy, fAddr, 4)
	b.Store(hsail.SegGlobal, fz, fAddr, 8)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		return nil, err
	}

	r := rng("CoMD", scale)
	pos := make([]float32, 3*atoms)
	for i := range pos {
		pos[i] = float32(r.Intn(512)) / 32 // grid-snapped positions
	}
	nbrPtr := make([]uint32, atoms+1)
	var nbrs []uint32
	for i := 0; i < atoms; i++ {
		nbrPtr[i] = uint32(len(nbrs))
		// Highly skewed neighbor counts: most atoms sit in sparse cells,
		// a few in dense ones. Lanes with short lists idle while long
		// lists run — CoMD's ~21-23% SIMD utilization (Table 6).
		n := 2 + r.Intn(4)
		if r.Intn(12) == 0 {
			n = maxNbr + r.Intn(2*maxNbr)
		}
		for k := 0; k < n; k++ {
			j := r.Intn(atoms)
			if j == i {
				j = (j + 1) % atoms
			}
			nbrs = append(nbrs, uint32(j))
		}
	}
	nbrPtr[atoms] = uint32(len(nbrs))

	type bufs struct{ force buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		posB := allocF32(m, pos)
		npB := allocU32(m, nbrPtr)
		nbB := allocU32(m, nbrs)
		fB := allocF32(m, make([]float32, 3*atoms))
		state.put(m, bufs{force: fB})
		return m.Submit(launch1D(ks, atoms, 64, posB.addr, npB.addr, nbB.addr, fB.addr))
	}
	fma32 := func(a, b, c float32) float32 {
		return float32(math.FMA(float64(a), float64(b), float64(c)))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for i := 0; i < atoms; i++ {
			var fx, fy, fz float32
			for k := nbrPtr[i]; k < nbrPtr[i+1]; k++ {
				j := nbrs[k]
				dx := pos[3*i] - pos[3*j]
				dy := pos[3*i+1] - pos[3*j+1]
				dz := pos[3*i+2] - pos[3*j+2]
				r2 := fma32(dx, dx, fma32(dy, dy, fma32(dz, dz, 0.01)))
				if r2 < cutoff {
					inv := 1 / r2
					s := fma32(inv, inv, -(c1 * inv))
					fx = fma32(s, dx, fx)
					fy = fma32(s, dy, fy)
					fz = fma32(s, dz, fz)
				}
			}
			for c, want := range []float32{fx, fy, fz} {
				if err := checkClose("CoMD", 3*i+c, float64(s.force.f32(m, 3*i+c)), float64(want), 2e-4); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst, nil
}
