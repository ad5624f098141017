package workloads

import (
	"math"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// Ablations returns the finalizer ablation study: one representative kernel
// finalized once per configuration, each configuration switching off one
// mechanism the paper credits for GCN3's behavior, and each a workload of its
// own. Description names the configuration in the report's table.
//
//   - list scheduling      → register reuse distance, s_nop padding (Fig 7)
//   - scalarization        → VRF bank conflicts, scalar-pipe usage (Fig 6)
//   - scalar kernarg loads → the Table 2 flat-load path
//   - register budget      → finalizer spill traffic (Table 6 narrative)
//
// The input does not grow with scale.
func Ablations() []*Workload {
	return []*Workload{
		ablation("Ablation", "baseline", finalizer.Options{}),
		ablation("AblationNoSched", "no list scheduling", finalizer.Options{DisableScheduling: true}),
		ablation("AblationNoScalar", "no scalarization", finalizer.Options{DisableScalarization: true}),
		ablation("AblationFlatKernarg", "flat kernarg loads", finalizer.Options{UseFlatKernarg: true}),
		ablation("AblationSpill", "VGPR budget 56 (spill)", finalizer.Options{MaxVGPRs: 56}),
	}
}

func ablation(name, description string, opts finalizer.Options) *Workload {
	return &Workload{
		Name:        name,
		Description: description,
		Prepare:     func(int) (*Instance, error) { return prepareAblation(name, opts) },
	}
}

func prepareAblation(name string, opts finalizer.Options) (*Instance, error) {
	const (
		grid  = 2048
		iters = 8
	)
	k, err := ablationKernel()
	if err != nil {
		return nil, err
	}
	ks, err := core.PrepareKernel(k, opts)
	if err != nil {
		return nil, err
	}
	input := make([]uint64, grid*iters)
	for i := range input {
		input[i] = 4607182418800017408 + uint64(i%97)<<32 // ~1.0 + noise
	}

	var state runState[inOut]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		s := inOut{in: buf{addr: m.Ctx.AllocBuffer(8 * uint64(len(input))), n: len(input)}}
		m.Ctx.Mem.WriteU64s(s.in.addr, input)
		s.out = buf{addr: m.Ctx.AllocBuffer(8 * grid), n: grid}
		state.put(m, s)
		return m.Submit(launch1D(ks, grid, 64, s.in.addr, s.out.addr, iters))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for g := 0; g < grid; g++ {
			acc := 1.0
			for i := 0; i < iters; i++ {
				v := math.Float64frombits(input[g+i*grid])
				acc = math.FMA(v/(acc+2), 0.5, acc)
			}
			for p := 0; p < ablationLive; p++ {
				acc += math.FMA(float64(g), float64(p)+0.5, 1)
			}
			if err := checkClose(name, g, s.out.f64(m, g), acc, 1e-9); err != nil {
				return err
			}
		}
		return nil
	}
	return inst, nil
}

// ablationLive is how many long-lived per-lane values the ablation kernel
// holds across its loop.
const ablationLive = 12

// ablationKernel builds the representative kernel: streaming loads, uniform
// loop, f64 divide, register pressure — every mechanism has work to do.
func ablationKernel() (*hsail.Kernel, error) {
	b := kernel.NewBuilder("ablation")
	inArg := b.ArgPtr("in")
	outArg := b.ArgPtr("out")
	nArg := b.ArgU32("iters")
	gid := b.WorkItemAbsID(isa.DimX)
	off := b.Shl(u64T, b.Cvt(u64T, gid), b.Int(u64T, 3))
	cur := b.Add(u64T, b.LoadArg(inArg), off)
	stride := b.Shl(u64T, b.Cvt(u64T, b.GridSize(isa.DimX)), b.Int(u64T, 3))
	n := b.LoadArg(nArg)
	acc := b.Mov(f64T, b.F64(1))
	// Long-lived per-lane state: keeps vector register pressure high so the
	// spill ablation engages.
	var lives []kernel.Val
	for p := 0; p < ablationLive; p++ {
		lives = append(lives, b.Fma(f64T, b.Cvt(f64T, gid), b.F64(float64(p)+0.5), b.F64(1)))
	}
	i := b.Mov(u32T, b.Int(u32T, 0))
	b.WhileCmp(isa.CmpLt, u32T, i, n, func() {
		v := b.Load(hsail.SegGlobal, f64T, cur, 0)
		q := b.Div(f64T, v, b.Add(f64T, acc, b.F64(2)))
		b.MovTo(acc, b.Fma(f64T, q, b.F64(0.5), acc))
		b.BinaryTo(hsail.OpAdd, cur, cur, stride)
		b.BinaryTo(hsail.OpAdd, i, i, b.Int(u32T, 1))
	})
	for _, lv := range lives {
		acc = b.Add(f64T, acc, lv)
	}
	b.Store(hsail.SegGlobal, acc, b.Add(u64T, b.LoadArg(outArg), off), 0)
	b.Ret()
	return b.Finish()
}
