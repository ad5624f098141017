package workloads

import (
	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// SpMV is CSR sparse matrix-vector multiplication with one row per
// work-item. Row lengths vary, so the accumulation loop has DATA-DEPENDENT
// trip counts: lanes whose rows finish early idle while long rows continue —
// the source of the paper's ~67-72% SIMD utilization for SpMV (Table 6).
func SpMV() *Workload {
	return &Workload{
		Name:        "SpMV",
		Description: "Sparse matrix-vector multiplication",
		Prepare:     prepareSpMV,
	}
}

func prepareSpMV(scale int) (*Instance, error) {
	rows := 1024 * scale
	maxRow := 24

	b := kernel.NewBuilder("spmv_csr")
	rowPtrArg := b.ArgPtr("rowptr")
	colArg := b.ArgPtr("col")
	valArg := b.ArgPtr("val")
	xArg := b.ArgPtr("x")
	yArg := b.ArgPtr("y")
	row := b.WorkItemAbsID(isa.DimX)
	rpAddr := gidByteOffset(b, row, b.LoadArg(rowPtrArg), 2)
	start := b.Load(hsail.SegGlobal, u32T, rpAddr, 0)
	end := b.Load(hsail.SegGlobal, u32T, rpAddr, 4)
	colBase := b.LoadArg(colArg)
	valBase := b.LoadArg(valArg)
	xBase := b.LoadArg(xArg)
	sum := b.Mov(f32T, b.F32(0))
	idx := b.Mov(u32T, start)
	b.WhileCmp(isa.CmpLt, u32T, idx, end, func() {
		off4 := b.Shl(u64T, b.Cvt(u64T, idx), b.Int(u64T, 2))
		col := b.Load(hsail.SegGlobal, u32T, b.Add(u64T, colBase, off4), 0)
		v := b.Load(hsail.SegGlobal, f32T, b.Add(u64T, valBase, off4), 0)
		xOff := b.Shl(u64T, b.Cvt(u64T, col), b.Int(u64T, 2))
		xv := b.Load(hsail.SegGlobal, f32T, b.Add(u64T, xBase, xOff), 0)
		b.MovTo(sum, b.Fma(f32T, v, xv, sum))
		b.BinaryTo(hsail.OpAdd, idx, idx, b.Int(u32T, 1))
	})
	yAddr := gidByteOffset(b, row, b.LoadArg(yArg), 2)
	b.Store(hsail.SegGlobal, sum, yAddr, 0)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		return nil, err
	}

	// Build a CSR matrix with skewed row lengths (1..maxRow).
	r := rng("SpMV", scale)
	rowPtr := make([]uint32, rows+1)
	var cols []uint32
	var vals []float32
	for i := 0; i < rows; i++ {
		rowPtr[i] = uint32(len(cols))
		// Moderately variable row lengths: enough divergence for the
		// paper's ~67-72% SIMD utilization, not CoMD-grade skew.
		nnz := 10 + r.Intn(maxRow-10)
		if r.Intn(5) == 0 {
			nnz = 1 + r.Intn(6) // a fifth of the rows are short
		}
		for k := 0; k < nnz; k++ {
			cols = append(cols, uint32(r.Intn(rows)))
			vals = append(vals, float32(r.Intn(64))/8)
		}
	}
	rowPtr[rows] = uint32(len(cols))
	x := make([]float32, rows)
	for i := range x {
		x[i] = float32(r.Intn(128)) / 16
	}

	type bufs struct{ y buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		rp := allocU32(m, rowPtr)
		cl := allocU32(m, cols)
		vl := allocF32(m, vals)
		xb := allocF32(m, x)
		yb := allocF32(m, make([]float32, rows))
		state.put(m, bufs{y: yb})
		return m.Submit(launch1D(ks, rows, 64, rp.addr, cl.addr, vl.addr, xb.addr, yb.addr))
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			want := float32(0)
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				want += vals[k] * x[cols[k]]
			}
			if err := checkClose("SpMV", i, float64(s.y.f32(m, i)), float64(want), 1e-4); err != nil {
				return err
			}
		}
		return nil
	}
	return inst, nil
}
