package core

import (
	"context"
	"fmt"
	"sync"

	"ilsim/internal/stats"
	"ilsim/internal/timing"
)

// ModelVersion names the model whose statistics a run produces. Every
// change that moves a simulated statistic (a golden of internal/report)
// bumps it. It is part of every job's identity (exp.Job.Fingerprint), so a
// -resume journal written under another version is refused instead of
// mixing two models' results, and a distributed worker built at another
// version fails the coordinator's join probe.
const ModelVersion = 2

// ErrBudgetExceeded marks a run killed by its cycle budget
// (RunOptions.MaxCycles); errors.Is-compatible with the timing layer's
// sentinel.
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

	// CUParallelism is inert (a simulation is one goroutine); it stays only because frozen bench/ sets it.
	CUParallelism int
	// MemParallelism is inert; it stays only because frozen bench/ sets it.
	MemParallelism int

	// MaxCycles bounds the run's total simulated cycles (0 = unlimited);
	// exceeding it aborts with ErrBudgetExceeded. This is the defense
	// against livelocked or runaway simulations: the budget is enforced
	// inside the timing loop, not just between kernels.
	MaxCycles uint64
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

// The free lists: devices and machines finished runs left behind, kept for
// the next runs. They live in core because core is where runs begin and end
// and where goroutines meet; a simulation itself (timing, mem, emu, stats)
// stays free of sync. Each is a plain stack — it never holds more than runs
// were ever in flight at once, and a run that finds an entry there gets it,
// on any goroutine and under the race detector, which a sync.Pool (per-P
// slots, emptied by the collector) does not promise.

// freeList is a stack of T under a mutex.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// pop removes and returns the top entry, nil when the list is empty.
func (l *freeList[T]) pop() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

func (l *freeList[T]) push(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// devices is the free list of timed devices: the cache banks, CUs and drain
// wiring of a run. A campaign is thousands of millisecond runs and building
// the hierarchy is most of a megabyte of zeroed, page-faulted allocation, so
// a run takes a device here and re-arms it (timing.GPU.Reset) where it can.
// Every run that ends cleanly puts its device back.
var devices freeList[timing.GPU]

// machines is the free list of machines (see Machine): only a run whose
// outputs were checked hands its machine back (Recycle), and a device never
// holds one.
var machines freeList[Machine]

// takeDevice returns a timed device armed for a run under cfg: the one on
// top of the free list when it has cfg's storage geometry, else a new one (a
// device of another geometry is dropped, not put back: sweeps vary the
// geometry rarely and then for good).
func takeDevice(cfg Config, run *stats.Run) *timing.GPU {
	if g := devices.pop(); g != nil && g.Reset(cfg, run) {
		return g
	}
	return timing.NewGPU(cfg, run)
}

// takeMachine returns a machine armed for a run under abs: the one on top of
// the free list, else a new one.
func takeMachine(abs Abstraction, run *stats.Run) *Machine {
	if m := machines.pop(); m != nil {
		m.arm(abs, run)
		return m
	}
	return NewMachine(abs, run)
}

// Recycle hands m back for a later run to re-arm instead of building a
// machine. Call it once a run's outputs have been read and checked, and
// never touch m again: the next run may already be using it. A machine whose
// run failed, or whose outputs did not check, is left to the collector.
func (m *Machine) Recycle() {
	m.Workload = nil
	m.Col.Run = nil
	machines.push(m)
}

// Run executes a workload setup under one abstraction on the timed model.
// setup prepares kernels and buffers on the machine and submits every
// launch; Run then drains the queue through the packet processor and GPU.
func (s *Simulator) Run(abs Abstraction, workload string, setup func(m *Machine) error, opts RunOptions) (*stats.Run, *Machine, error) {
	return s.RunContext(context.Background(), abs, workload, setup, opts)
}

// RunContext is Run with cooperative cancellation: the timing loop polls
// ctx (and the opts budget) every opts.CheckEvery cycles, so canceling the
// context — a per-job timeout, a ctrl-C, a failed journal write — stops a
// simulation mid-kernel instead of only between jobs.
func (s *Simulator) RunContext(ctx context.Context, abs Abstraction, workload string, setup func(m *Machine) error, opts RunOptions) (*stats.Run, *Machine, error) {
	run := &stats.Run{Workload: workload, Abstraction: abs.String()}
	m := takeMachine(abs, run)
	m.Col.TrackValues = opts.TrackValues
	m.Col.ValueSampleEvery = opts.ValueSampleEvery
	m.Col.TrackReuse = opts.TrackReuse
	if err := setup(m); err != nil {
		return nil, nil, fmt.Errorf("core: %s/%s setup: %w", workload, abs, err)
	}
	gpu := takeDevice(s.Cfg, run)
	wd := timing.Watchdog{
		MaxCycles:  int64(opts.MaxCycles),
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
	// Only a run that came all the way here hands its device on: an error
	// return or a panic above leaves it to the collector, so no state a
	// failure stopped halfway is ever re-armed.
	devices.push(gpu)
	run.DataFootprintBytes = m.Ctx.Mem.FootprintBytes()
	return run, m, nil
}
