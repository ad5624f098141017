// Command ilsim-asm shows HSAIL kernels side by side with their finalized
// GCN3 code — the instruction-expansion story of the paper's Tables 1-3 —
// and can disassemble any kernel of the workload suite.
//
// Usage:
//
//	ilsim-asm -tables          # the paper's Table 1/2/3 examples
//	ilsim-asm -workload FFT    # dual disassembly of a suite workload
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-asm:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested disassembly to out; split from
// main for the smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim-asm", flag.ContinueOnError)
	fs.SetOutput(errw)
	tables := fs.Bool("tables", false, "show the paper's Table 1/2/3 expansion examples")
	workload := fs.String("workload", "", "disassemble a suite workload's kernels")
	scale := fs.Int("scale", 1, "input scale when preparing a workload")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *tables:
		return showTables(out)
	case *workload != "":
		inst, err := workloads.Prepare(*workload, *scale)
		if err != nil {
			return err
		}
		for _, ks := range inst.Kernels {
			show(out, ks)
		}
		return nil
	default:
		fs.Usage()
		return errors.New("nothing to do: pass -tables or -workload")
	}
}

func show(out io.Writer, ks *core.KernelSource) {
	fmt.Fprintf(out, "==== kernel %s ====\n\n", ks.HSAIL.Name)
	fmt.Fprintf(out, "HSAIL (%d instructions, %d bytes loaded, %d bytes of BRIG):\n%s\n",
		ks.HSAIL.NumInsts(), ks.CodeBytesHSAIL(), ks.BRIGBytes, ks.HSAIL.Disassemble())
	fmt.Fprintf(out, "GCN3 (%d instructions, %d bytes encoded, %d VGPRs, %d SGPRs):\n%s\n",
		len(ks.GCN3.Program.Insts), ks.CodeBytesGCN3(), ks.GCN3.NumVGPRs, ks.GCN3.NumSGPRs,
		ks.GCN3.Program.Disassemble())
}

func showTables(out io.Writer) error {
	// Table 1: obtaining the absolute work-item ID.
	{
		b := kernel.NewBuilder("table1_workitemabsid")
		outArg := b.ArgPtr("out")
		gid := b.WorkItemAbsID(isa.DimX)
		addr := b.Add(isa.TypeU64, b.LoadArg(outArg), b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
		b.Store(hsail.SegGlobal, gid, addr, 0)
		b.Ret()
		fmt.Fprintln(out, "############ Table 1: work-item ID requires the ABI ############")
		ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
		if err != nil {
			return err
		}
		show(out, ks)
	}
	// Table 2: kernarg access through vector moves and a flat load.
	{
		b := kernel.NewBuilder("table2_kernarg")
		arg := b.ArgPtr("arg1")
		ptr := b.LoadArg(arg)
		v := b.Load(hsail.SegGlobal, isa.TypeU32, ptr, 0)
		outArg := b.ArgPtr("out")
		gid := b.WorkItemAbsID(isa.DimX)
		addr := b.Add(isa.TypeU64, b.LoadArg(outArg), b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
		b.Store(hsail.SegGlobal, v, addr, 0)
		b.Ret()
		fmt.Fprintln(out, "############ Table 2: kernarg address calculation (UseFlatKernarg) ############")
		ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{UseFlatKernarg: true})
		if err != nil {
			return err
		}
		show(out, ks)
	}
	// Table 3: 64-bit floating-point division.
	{
		b := kernel.NewBuilder("table3_fdiv64")
		aArg := b.ArgPtr("a")
		bArg := b.ArgPtr("b")
		oArg := b.ArgPtr("out")
		gid := b.WorkItemAbsID(isa.DimX)
		off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 3))
		num := b.Load(hsail.SegGlobal, isa.TypeF64, b.Add(isa.TypeU64, b.LoadArg(aArg), off), 0)
		den := b.Load(hsail.SegGlobal, isa.TypeF64, b.Add(isa.TypeU64, b.LoadArg(bArg), off), 0)
		q := b.Div(isa.TypeF64, num, den)
		b.Store(hsail.SegGlobal, q, b.Add(isa.TypeU64, b.LoadArg(oArg), off), 0)
		b.Ret()
		fmt.Fprintln(out, "############ Table 3: f64 division (Newton-Raphson expansion) ############")
		ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
		if err != nil {
			return err
		}
		show(out, ks)
	}
	return nil
}
