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
	for _, ex := range workloads.TableExamples() {
		fmt.Fprintf(out, "############ %s ############\n", ex.Title)
		ks, err := core.PrepareKernel(ex.Kernel, ex.Opts)
		if err != nil {
			return err
		}
		show(out, ks)
	}
	return nil
}
