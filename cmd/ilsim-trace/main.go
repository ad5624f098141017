// Command ilsim-trace prints the dynamic instruction stream of one wavefront
// of a workload under either abstraction: program counter, active-lane count,
// reconvergence-stack depth (HSAIL), and disassembly — the view that makes
// the two abstractions' front-end behavior tangible.
//
// Usage:
//
//	ilsim-trace -workload SpMV -abs hsail [-wg 0] [-wave 0] [-max 200]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ilsim/internal/core"
	"ilsim/internal/emu"
	"ilsim/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-trace:", err)
		os.Exit(1)
	}
}

// run parses args and traces the chosen wavefront; split from main for the
// smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim-trace", flag.ContinueOnError)
	fs.SetOutput(errw)
	name := fs.String("workload", "ArrayBW", "workload name")
	abs := fs.String("abs", "gcn3", "abstraction: hsail or gcn3")
	wgIdx := fs.Int("wg", 0, "workgroup to trace")
	waveIdx := fs.Int("wave", 0, "wavefront within the workgroup")
	maxInsts := fs.Int("max", 200, "maximum instructions to print (0 = all)")
	launch := fs.Int("launch", 0, "which dynamic kernel launch to trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	inst, err := workloads.Prepare(*name, 1)
	if err != nil {
		return err
	}
	var a core.Abstraction
	switch *abs {
	case "gcn3":
		a = core.AbsGCN3
	case "hsail":
		a = core.AbsHSAIL
	default:
		return fmt.Errorf("unknown abstraction %q (hsail or gcn3)", *abs)
	}
	m := core.NewMachine(a, nil)
	if err := inst.Setup(m); err != nil {
		return err
	}

	// Drain launches up to the requested one (executing them fully so
	// memory state is right), then trace the chosen wavefront.
	for l := 0; ; l++ {
		d, eng, err := m.NextDispatch()
		if err != nil {
			return err
		}
		if d == nil {
			return fmt.Errorf("launch %d not found (workload has %d)", *launch, l)
		}
		if l != *launch {
			if err := emu.RunFunctional(eng, d); err != nil {
				return err
			}
			continue
		}
		if *wgIdx >= len(d.Workgroups) {
			return fmt.Errorf("workgroup %d out of range (%d)", *wgIdx, len(d.Workgroups))
		}
		info := &d.Workgroups[*wgIdx]
		wg := emu.NewWGState(d, info, eng.LDSBytes())
		if *waveIdx >= info.NumWaves {
			return fmt.Errorf("wave %d out of range (%d)", *waveIdx, info.NumWaves)
		}
		// Other waves of the group run untraced but interleaved enough
		// for barriers to release: round-robin stepping.
		waves := make([]*emu.Wave, info.NumWaves)
		for i := range waves {
			waves[i] = eng.NewWave(wg, i)
		}
		fmt.Fprintf(out, "kernel %s, %s, workgroup %d, wave %d (%d lanes)\n\n",
			d.KernelName, a, *wgIdx, *waveIdx, waves[*waveIdx].NumLanes)
		fmt.Fprintf(out, "%-6s %-10s %-5s %-4s %s\n", "#", "pc", "lanes", "rs", "instruction")
		printed := 0
		atBarrier := make([]bool, len(waves))
		for {
			allDone := true
			progressed := false
			for i, wv := range waves {
				if wv.Done {
					continue
				}
				allDone = false
				if atBarrier[i] {
					continue
				}
				pc := wv.PC
				r, err := eng.Execute(wv)
				if err != nil {
					return err
				}
				progressed = true
				if i == *waveIdx {
					printed++
					if *maxInsts == 0 || printed <= *maxInsts {
						mark := " "
						if r.Redirected {
							mark = ">" // front-end redirect (IB flush)
						}
						fmt.Fprintf(out, "%-6d 0x%08x %-5d %-4d %s%s\n",
							printed, pc, r.ActiveLanes, len(wv.RS), mark, eng.InstString(pc))
					}
				}
				if r.IsBarrier {
					atBarrier[i] = true
				}
			}
			if allDone {
				break
			}
			if !progressed {
				for i := range atBarrier {
					atBarrier[i] = false
				}
			}
		}
		if *maxInsts != 0 && printed > *maxInsts {
			fmt.Fprintf(out, "... (%d more instructions)\n", printed-*maxInsts)
		}
		fmt.Fprintf(out, "\nwave executed %d instructions\n", printed)
		return nil
	}
}
