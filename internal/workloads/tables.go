package workloads

import (
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// TableExample is one of the paper's Table 1-3 expansion examples: a small
// HSAIL kernel and the finalizer options it is shown under.
type TableExample struct {
	Title  string
	Kernel *hsail.Kernel
	Opts   finalizer.Options
}

// TableExamples returns the Table 1, 2 and 3 examples in order.
func TableExamples() []TableExample {
	// Table 1: obtaining the absolute work-item ID.
	b := kernel.NewBuilder("table1_workitemabsid")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	addr := b.Add(isa.TypeU64, b.LoadArg(outArg), b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
	b.Store(hsail.SegGlobal, gid, addr, 0)
	b.Ret()
	t1 := TableExample{Title: "Table 1: work-item ID requires the ABI", Kernel: b.MustFinish()}

	// Table 2: kernarg access through vector moves and a flat load.
	b = kernel.NewBuilder("table2_kernarg")
	arg := b.ArgPtr("arg1")
	ptr := b.LoadArg(arg)
	v := b.Load(hsail.SegGlobal, isa.TypeU32, ptr, 0)
	outArg = b.ArgPtr("out")
	gid = b.WorkItemAbsID(isa.DimX)
	addr = b.Add(isa.TypeU64, b.LoadArg(outArg), b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
	b.Store(hsail.SegGlobal, v, addr, 0)
	b.Ret()
	t2 := TableExample{Title: "Table 2: kernarg address calculation (UseFlatKernarg)", Kernel: b.MustFinish(),
		Opts: finalizer.Options{UseFlatKernarg: true}}

	// Table 3: 64-bit floating-point division.
	b = kernel.NewBuilder("table3_fdiv64")
	aArg := b.ArgPtr("a")
	bArg := b.ArgPtr("b")
	oArg := b.ArgPtr("out")
	gid = b.WorkItemAbsID(isa.DimX)
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 3))
	num := b.Load(hsail.SegGlobal, isa.TypeF64, b.Add(isa.TypeU64, b.LoadArg(aArg), off), 0)
	den := b.Load(hsail.SegGlobal, isa.TypeF64, b.Add(isa.TypeU64, b.LoadArg(bArg), off), 0)
	q := b.Div(isa.TypeF64, num, den)
	b.Store(hsail.SegGlobal, q, b.Add(isa.TypeU64, b.LoadArg(oArg), off), 0)
	b.Ret()
	t3 := TableExample{Title: "Table 3: f64 division (Newton-Raphson expansion)", Kernel: b.MustFinish()}

	return []TableExample{t1, t2, t3}
}
