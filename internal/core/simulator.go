package core

import (
	"context"
	"fmt"
	"runtime"

	"ilsim/internal/stats"
	"ilsim/internal/timing"
)

// ErrBudgetExceeded marks a run killed by its cycle or instruction budget
// (RunOptions.MaxCycles / MaxInsts); errors.Is-compatible with the timing
// layer's sentinel.
var ErrBudgetExceeded = timing.ErrBudgetExceeded

// RunOptions control optional (more expensive) statistics and the run's
// safety bounds.
type RunOptions struct {
	// TrackValues enables VRF lane-value uniqueness sampling (Fig 10).
	TrackValues bool
	// ValueSampleEvery samples one in N VRF accesses (0/1 = every access).
	ValueSampleEvery int
	// TrackReuse enables register reuse-distance tracking (Fig 7).
	TrackReuse bool

	// CUParallelism shards each cycle's compute-unit ticks across this
	// many goroutines (the paper-visible statistics are byte-identical at
	// every setting). 0 and 1 both mean the serial loop; larger values are
	// clamped to NumCUs (ResolveCUParallelism).
	CUParallelism int

	// MemParallelism shards the phase-2 memory drain's bank waves — L1
	// banks, then L2 banks, then DRAM channels — across this many pool
	// goroutines (statistics stay byte-identical at every setting; the
	// determinism suite pins it). 0 and 1 both mean the serial drain; larger
	// values are clamped to Config.DrainWidth(). The pool is
	// shared with CU ticking and the phases never overlap, so a
	// simulation's peak concurrency is max(CUParallelism, MemParallelism),
	// not their sum.
	MemParallelism int

	// MaxCycles bounds the run's total simulated cycles (0 = unlimited);
	// exceeding it aborts with ErrBudgetExceeded. This is the defense
	// against livelocked or runaway simulations: the budget is enforced
	// inside the timing loop, not just between kernels.
	MaxCycles uint64
	// MaxInsts bounds committed wavefront instructions (0 = unlimited).
	MaxInsts uint64
	// CheckEvery is the watchdog poll period in simulated cycles
	// (0 = timing.DefaultCheckEvery).
	CheckEvery int

	// DisableCycleSkipping forces the timing core to tick every CU and
	// visit every resident wave every cycle instead of skipping the
	// provably inert ones (sleeping waves, sleeping CUs, GPU-wide idle
	// spans). Statistics are byte-identical either way; this is a
	// debugging/verification knob (the determinism regression test runs
	// both and compares fingerprints).
	DisableCycleSkipping bool
}

// ResolveCUParallelism clamps a requested per-simulation CU-parallelism
// setting to [1, numCUs]: an explicit request is honored up to the CU count
// — even if it oversubscribes the host; CLIs warn about that but defer to
// the user — and 0 (or less) means the serial loop. Parallel timing has not
// yet beaten serial on any measured host (EXPERIMENTS.md), so it is opt-in.
func ResolveCUParallelism(requested, numCUs int) int {
	return max(1, min(requested, numCUs))
}

// ResolveMemParallelism clamps a requested drain-parallelism setting to
// [1, width] (the configuration's DrainWidth — the widest bank wave, beyond
// which extra workers can never find a task); 0 means the serial drain.
func ResolveMemParallelism(requested, width int) int {
	return max(1, min(requested, width))
}

// OversubscriptionWarning returns a human-readable warning when an explicit
// intra-simulation parallelism request multiplied by the job-level worker
// pool exceeds the host's cores, or "" when the combination is fine. A simulation's peak concurrency is max(cuPar, memPar) —
// the phase-1 tick and phase-2 drain share one pool and never overlap.
// jobWorkers <= 0 means GOMAXPROCS, matching the sweep engines' -j default.
func OversubscriptionWarning(jobWorkers, cuPar, memPar int) string {
	intra := cuPar
	if memPar > intra {
		intra = memPar
	}
	if intra <= 1 {
		return ""
	}
	if jobWorkers <= 0 {
		jobWorkers = runtime.GOMAXPROCS(0)
	}
	cores := runtime.GOMAXPROCS(0)
	if total := jobWorkers * intra; total > cores {
		return fmt.Sprintf("-j %d x max(-cu-par %d, -mem-par %d) = %d goroutines oversubscribes %d cores; results are identical but wall-clock may suffer",
			jobWorkers, cuPar, memPar, total, cores)
	}
	return ""
}

// Simulator runs workloads on the timed GPU model under either abstraction.
type Simulator struct {
	Cfg Config
}

// NewSimulator creates a simulator with the given configuration.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{Cfg: cfg}, nil
}

// params maps the public configuration onto the timing model.
func (s *Simulator) params() timing.Params {
	p := timing.DefaultParams()
	c := s.Cfg
	p.NumCUs, p.SIMDsPerCU, p.WFSlots = c.NumCUs, c.SIMDsPerCU, c.WFSlots
	p.VRFBanks = c.VRFBanks
	p.IBBytes = c.IBEntries * 8
	p.FetchWidth = c.FetchWidth
	p.L1DSize, p.L1DWays = c.L1DSize, c.L1DWays
	p.L1ISize, p.L1IWays = c.L1ISize, c.L1IWays
	p.ScalarL1Size, p.ScalarL1Ways = c.ScalarL1Size, c.ScalarL1Ways
	p.L2Size, p.L2Ways, p.L2Banks = c.L2Size, c.L2Ways, c.L2Banks
	p.L1HitLatency, p.L2HitLatency = c.L1HitLatency, c.L2HitLatency
	p.ScalarHitLatency = c.ScalarHitLatency
	p.LDSLatency = c.LDSLatency
	p.DRAMChannels = c.DRAMChannels
	p.DRAMLatency, p.DRAMOccupancy = c.DRAMLatency, c.DRAMOccupancy
	return p
}

// Run executes a workload setup under one abstraction on the timed model.
// setup prepares kernels and buffers on the machine and submits every
// launch; Run then drains the queue through the packet processor and GPU.
func (s *Simulator) Run(abs Abstraction, workload string, setup func(m *Machine) error, opts RunOptions) (*stats.Run, *Machine, error) {
	return s.RunContext(context.Background(), abs, workload, setup, opts)
}

// RunContext is Run with cooperative cancellation: the timing loop polls
// ctx (and the opts budgets) every opts.CheckEvery cycles, so canceling the
// context — a per-job timeout, a ctrl-C, a fail-fast sweep — stops a
// simulation mid-kernel instead of only between jobs.
func (s *Simulator) RunContext(ctx context.Context, abs Abstraction, workload string, setup func(m *Machine) error, opts RunOptions) (*stats.Run, *Machine, error) {
	run := &stats.Run{Workload: workload, Abstraction: abs.String()}
	m := NewMachine(abs, run)
	m.Col.TrackValues = opts.TrackValues
	m.Col.ValueSampleEvery = opts.ValueSampleEvery
	m.Col.TrackReuse = opts.TrackReuse
	if err := setup(m); err != nil {
		return nil, nil, fmt.Errorf("core: %s/%s setup: %w", workload, abs, err)
	}
	gpu := timing.NewGPU(s.params(), run)
	gpu.Mem = m.Ctx.Mem
	gpu.Parallelism = ResolveCUParallelism(opts.CUParallelism, s.Cfg.NumCUs)
	gpu.MemParallelism = ResolveMemParallelism(opts.MemParallelism, s.Cfg.DrainWidth())
	defer gpu.Stop()
	wd := timing.Watchdog{
		MaxCycles:  int64(opts.MaxCycles),
		MaxInsts:   opts.MaxInsts,
		CheckEvery: int64(opts.CheckEvery),
	}
	if ctx != nil && ctx.Done() != nil {
		wd.Ctx = ctx
	}
	gpu.WD = wd
	gpu.NoSkip = opts.DisableCycleSkipping
	for {
		if ctx != nil && ctx.Err() != nil {
			return nil, nil, fmt.Errorf("core: %s/%s: run canceled: %w", workload, abs, context.Cause(ctx))
		}
		d, eng, err := m.NextDispatch()
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s/%s dispatch: %w", workload, abs, err)
		}
		if d == nil {
			break
		}
		cycles, err := gpu.RunDispatch(eng, d)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s/%s (kernel %s): %w", workload, abs, d.KernelName, err)
		}
		run.KernelCycles = append(run.KernelCycles, uint64(cycles))
		m.CompleteDispatch(d)
	}
	gpu.Finalize()
	run.DataFootprintBytes = m.Ctx.Mem.FootprintBytes()
	return run, m, nil
}

// RunBoth executes the same workload under both abstractions with identical
// inputs and returns (HSAIL run, GCN3 run).
func (s *Simulator) RunBoth(workload string, setup func(m *Machine) error, opts RunOptions) (*stats.Run, *stats.Run, error) {
	h, _, err := s.Run(AbsHSAIL, workload, setup, opts)
	if err != nil {
		return nil, nil, err
	}
	g, _, err := s.Run(AbsGCN3, workload, setup, opts)
	if err != nil {
		return nil, nil, err
	}
	return h, g, nil
}
