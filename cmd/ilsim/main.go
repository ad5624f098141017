// Command ilsim runs workloads of the Table 5 suite under one or both
// ISA abstractions on the timed GPU model and prints the statistics the
// paper compares.
//
// With one workload it prints full per-run statistics; with several
// (comma-separated, or "all") it prints a comparison table, executing every
// (workload × abstraction) job in parallel on the experiment engine.
//
// Usage:
//
//	ilsim [-workload LULESH] [-abs both|hsail|gcn3] [-scale N] [-values] [-reuse]
//	ilsim -workload all -j 8            # whole suite, engine-parallel table
//	ilsim -workload MD,SpMV,XSBench     # subset table
//	ilsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/isa"
	"ilsim/internal/prof"
	"ilsim/internal/stats"
	"ilsim/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim:", err)
		os.Exit(1)
	}
}

// run parses args and executes; split from main for the smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	name := fs.String("workload", "ArrayBW", `workload name (see -list), comma-separated list, or "all"`)
	abs := fs.String("abs", "both", "abstraction: hsail, gcn3, or both")
	scale := fs.Int("scale", 2, "input scale")
	values := fs.Bool("values", false, "track VRF lane-value uniqueness (Fig 10)")
	reuse := fs.Bool("reuse", false, "track register reuse distance (Fig 7)")
	list := fs.Bool("list", false, "list workloads and exit")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text (single workload)")
	workers := fs.Int("j", 0, "max parallel jobs (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print per-job progress with ETA to stderr")
	timeout := fs.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
	maxCycles := fs.Uint64("maxcycles", 0, "per-job simulated-cycle budget (0 = unlimited)")
	cus := fs.Int("cus", 0, "override the number of compute units")
	banks := fs.Int("banks", 0, "override the VRF bank count")
	wfSlots := fs.Int("wfslots", 0, "override wavefront slots per CU")
	l1iKB := fs.Int("l1i", 0, "override the I-cache size in KB")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	blockProfile := fs.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	noSkip := fs.Bool("noskip", false, "disable cycle skipping (tick every cycle; identical results, for verification)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, o := range []struct {
		name string
		v    int
	}{{"cus", *cus}, {"banks", *banks}, {"wfslots", *wfSlots}, {"l1i", *l1iKB}} {
		if o.v < 0 {
			return fmt.Errorf("-%s %d is negative (0 keeps the default)", o.name, o.v)
		}
	}
	switch {
	case *workers < 0:
		return fmt.Errorf("-j %d is negative (0 = GOMAXPROCS)", *workers)
	case *timeout < 0:
		return fmt.Errorf("-timeout %s is negative (0 = none)", *timeout)
	}

	stopProf, err := prof.StartOptions(prof.Options{
		CPUPath: *cpuProfile, MemPath: *memProfile,
		BlockPath: *blockProfile, MutexPath: *mutexProfile,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(errw, "ilsim:", perr)
		}
	}()

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(out, "%-12s %s\n", w.Name, w.Description)
		}
		return nil
	}

	names, err := workloadNames(*name)
	if err != nil {
		return err
	}
	if *asJSON && len(names) > 1 {
		return fmt.Errorf("-json reports a single workload, got %d (%s)", len(names), strings.Join(names, ","))
	}

	cfg := core.DefaultConfig()
	if *cus > 0 {
		cfg.NumCUs = *cus
	}
	if *banks > 0 {
		cfg.VRFBanks = *banks
	}
	if *wfSlots > 0 {
		cfg.WFSlots = *wfSlots
	}
	if *l1iKB > 0 {
		cfg.L1ISize = *l1iKB << 10
	}
	opts := core.RunOptions{TrackValues: *values, ValueSampleEvery: 4, TrackReuse: *reuse,
		MaxCycles: *maxCycles, DisableCycleSkipping: *noSkip}

	var targets []core.Abstraction
	switch *abs {
	case "both":
		targets = []core.Abstraction{core.AbsHSAIL, core.AbsGCN3}
	case "hsail":
		targets = []core.Abstraction{core.AbsHSAIL}
	case "gcn3":
		targets = []core.Abstraction{core.AbsGCN3}
	default:
		return fmt.Errorf("unknown abstraction %q", *abs)
	}

	var jobs []exp.Job
	for _, n := range names {
		for _, a := range targets {
			jobs = append(jobs, exp.Job{Workload: n, Scale: *scale, Abs: a, Config: cfg,
				Opts: opts, Timeout: *timeout})
		}
	}
	eng := exp.New(*workers)
	if *verbose {
		eng.OnProgress = func(p exp.Progress) { fmt.Fprintln(errw, p.Line()) }
	}
	results, _, err := eng.Run(jobs)
	if err != nil {
		return err
	}

	if len(names) > 1 {
		// Suite table: one broken workload cannot take down the
		// comparison; its row says it failed.
		printTable(out, names, targets, results)
	}
	// A run with failures must be loudly distinguishable from a clean one.
	if failed := exp.WriteFailureSummary(errw, results); failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(jobs))
	}
	if len(names) > 1 {
		return nil
	}

	// Single workload: the classic detailed view, of runs that all succeeded.
	runs := make([]*stats.Run, len(results))
	for i, r := range results {
		runs[i] = r.Run
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonReport(runs, *scale))
	}
	fmt.Fprintf(out, "workload %s (scale %d) on:\n%s\n\n", names[0], *scale, cfg)
	for _, r := range runs {
		printRun(out, r, *values, *reuse)
	}
	if len(runs) == 2 {
		h, g := runs[0], runs[1]
		fmt.Fprintf(out, "GCN3/HSAIL: insts %.2fx, cycles %.2fx, footprint %.2fx, conflicts %.2fx, flushes %.2fx\n",
			float64(g.TotalInsts())/float64(h.TotalInsts()),
			float64(g.Cycles)/float64(h.Cycles),
			float64(g.CodeFootprintBytes)/float64(h.CodeFootprintBytes),
			ratio(g.VRFBankConflicts, h.VRFBankConflicts),
			ratio(g.IBFlushes, h.IBFlushes))
	}
	return nil
}

// workloadNames expands the -workload argument: one name, a comma list, or
// "all" (Table 5 order).
func workloadNames(arg string) ([]string, error) {
	if arg == "all" {
		var names []string
		for _, w := range workloads.All() {
			names = append(names, w.Name)
		}
		return names, nil
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := workloads.ByName(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no workloads in %q", arg)
	}
	return names, nil
}

// printTable renders the multi-workload comparison table: one row per
// workload, the headline cross-abstraction statistics as columns. Results
// arrive in (workload-major, abstraction-minor) job order.
func printTable(out io.Writer, names []string, targets []core.Abstraction, results []exp.Result) {
	if len(targets) == 2 {
		fmt.Fprintf(out, "%-12s %12s %12s %7s %10s %10s %7s %7s %7s\n",
			"workload", "HSAIL cyc", "GCN3 cyc", "H/G", "H insts", "G insts", "G/H", "H util", "G util")
		for i, n := range names {
			hr, gr := results[2*i], results[2*i+1]
			if hr.Err != nil || gr.Err != nil {
				err := hr.Err
				if err == nil {
					err = gr.Err
				}
				fmt.Fprintf(out, "%-12s error [%s]: %s\n", n, exp.Classify(err), err)
				continue
			}
			h, g := hr.Run, gr.Run
			fmt.Fprintf(out, "%-12s %12d %12d %7.2f %10d %10d %7.2f %6.0f%% %6.0f%%\n",
				n, h.Cycles, g.Cycles, float64(h.Cycles)/float64(g.Cycles),
				h.TotalInsts(), g.TotalInsts(),
				float64(g.TotalInsts())/float64(h.TotalInsts()),
				100*h.SIMDUtilization(), 100*g.SIMDUtilization())
		}
		return
	}
	fmt.Fprintf(out, "%-12s %-6s %12s %10s %7s %7s\n",
		"workload", "abs", "cycles", "insts", "IPC", "util")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(out, "%-12s %-6s error [%s]: %s\n",
				r.Job.Workload, r.Job.Abs, exp.Classify(r.Err), r.Err)
			continue
		}
		fmt.Fprintf(out, "%-12s %-6s %12d %10d %7.3f %6.0f%%\n",
			r.Job.Workload, r.Job.Abs, r.Run.Cycles, r.Run.TotalInsts(),
			r.Run.IPC(), 100*r.Run.SIMDUtilization())
	}
}

// jsonRun is the machine-readable projection of one run.
type jsonRun struct {
	Abstraction      string            `json:"abstraction"`
	Workload         string            `json:"workload"`
	Cycles           uint64            `json:"cycles"`
	KernelLaunches   uint64            `json:"kernelLaunches"`
	Instructions     uint64            `json:"instructions"`
	IPC              float64           `json:"ipc"`
	Mix              map[string]uint64 `json:"mix"`
	CodeFootprint    uint64            `json:"codeFootprintBytes"`
	DataFootprint    uint64            `json:"dataFootprintBytes"`
	SIMDUtilization  float64           `json:"simdUtilization"`
	VRFBankConflicts uint64            `json:"vrfBankConflicts"`
	IBFlushes        uint64            `json:"ibFlushes"`
	Redirects        uint64            `json:"redirects"`
	FetchStallCycles uint64            `json:"fetchStallCycles"`
	L1DMisses        uint64            `json:"l1dMisses"`
	L1DAccesses      uint64            `json:"l1dAccesses"`
	L1IMisses        uint64            `json:"l1iMisses"`
	L1IAccesses      uint64            `json:"l1iAccesses"`
	L2Misses         uint64            `json:"l2Misses"`
	L2Accesses       uint64            `json:"l2Accesses"`
	ReuseMedian      uint32            `json:"reuseMedian,omitempty"`
	ReadUniqueness   float64           `json:"readUniqueness,omitempty"`
	WriteUniqueness  float64           `json:"writeUniqueness,omitempty"`
	PerKernelCycles  []uint64          `json:"perKernelCycles"`
}

func jsonReport(runs []*stats.Run, scale int) map[string]any {
	out := map[string]any{"scale": scale}
	for _, r := range runs {
		j := jsonRun{
			Abstraction: r.Abstraction, Workload: r.Workload,
			Cycles: r.Cycles, KernelLaunches: r.KernelLaunches,
			Instructions: r.TotalInsts(), IPC: r.IPC(),
			Mix:           map[string]uint64{},
			CodeFootprint: r.CodeFootprintBytes, DataFootprint: r.DataFootprintBytes,
			SIMDUtilization:  r.SIMDUtilization(),
			VRFBankConflicts: r.VRFBankConflicts, IBFlushes: r.IBFlushes,
			Redirects: r.Redirects, FetchStallCycles: r.FetchStallCycles,
			L1DMisses: r.L1DMisses, L1DAccesses: r.L1DAccesses,
			L1IMisses: r.L1IMisses, L1IAccesses: r.L1IAccesses,
			L2Misses: r.L2Misses, L2Accesses: r.L2Accesses,
			ReuseMedian:     r.Reuse.Median(),
			ReadUniqueness:  r.ReadUniqueness(),
			WriteUniqueness: r.WriteUniqueness(),
			PerKernelCycles: r.KernelCycles,
		}
		for c := 0; c < isa.NumCategories; c++ {
			if r.InstsByCategory[c] > 0 {
				j.Mix[isa.Category(c).String()] = r.InstsByCategory[c]
			}
		}
		out[r.Abstraction] = j
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printRun(out io.Writer, r *stats.Run, values, reuse bool) {
	fmt.Fprintf(out, "--- %s ---\n", r.Abstraction)
	fmt.Fprintf(out, "  cycles            %12d   (%d kernel launches)\n", r.Cycles, r.KernelLaunches)
	fmt.Fprintf(out, "  instructions      %12d   IPC %.3f\n", r.TotalInsts(), r.IPC())
	fmt.Fprint(out, "  mix              ")
	for c := 0; c < isa.NumCategories; c++ {
		if r.InstsByCategory[c] > 0 {
			fmt.Fprintf(out, " %s=%d", isa.Category(c), r.InstsByCategory[c])
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  code footprint    %12d bytes\n", r.CodeFootprintBytes)
	fmt.Fprintf(out, "  data footprint    %12d bytes\n", r.DataFootprintBytes)
	fmt.Fprintf(out, "  SIMD utilization  %11.1f%%\n", 100*r.SIMDUtilization())
	fmt.Fprintf(out, "  VRF bank conflicts%12d   (%.2f per kilo-inst)\n", r.VRFBankConflicts, r.ConflictsPerKiloInst())
	fmt.Fprintf(out, "  IB flushes        %12d   (redirects %d, fetch stalls %d)\n", r.IBFlushes, r.Redirects, r.FetchStallCycles)
	fmt.Fprintf(out, "  L1D %d/%d  L1I %d/%d  sL1 %d/%d  L2 %d/%d (miss/access)\n",
		r.L1DMisses, r.L1DAccesses, r.L1IMisses, r.L1IAccesses,
		r.ScalarL1Misses, r.ScalarL1Accesses, r.L2Misses, r.L2Accesses)
	if reuse {
		fmt.Fprintf(out, "  reuse distance    %12d median (%d samples)\n", r.Reuse.Median(), r.Reuse.N())
	}
	if values {
		fmt.Fprintf(out, "  value uniqueness  %10.1f%% reads, %.1f%% writes\n",
			100*r.ReadUniqueness(), 100*r.WriteUniqueness())
	}
	fmt.Fprintln(out)
}
