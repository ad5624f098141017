package timing_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/emu"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/stats"
	"ilsim/internal/timing"
	"ilsim/internal/workloads"
)

// runWorkload executes one workload on a new device with the default
// parameters.
func runWorkload(t *testing.T, name string, abs core.Abstraction) *stats.Run {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	g := timing.NewGPU(timing.DefaultConfig(), nil)
	if err := inst.Check(runOn(t, g, abs, name, inst.Setup)); err != nil {
		t.Fatal(err)
	}
	return g.Run
}

// TestTimingDeterminism: identical runs must produce identical statistics —
// the model has no hidden nondeterminism.
func TestTimingDeterminism(t *testing.T) {
	a := runWorkload(t, "SpMV", core.AbsGCN3)
	b := runWorkload(t, "SpMV", core.AbsGCN3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic timing:\n%+v\n%+v", a, b)
	}
}

// failingEngine is an engine whose nth Execute fails: an error in the middle
// of a cycle, after the CUs before the failing one have ticked it.
type failingEngine struct {
	emu.Engine
	n int
}

var errEngineFailed = errors.New("engine failed")

func (e *failingEngine) Execute(w *emu.Wave) (emu.ExecResult, error) {
	if e.n--; e.n == 0 {
		return emu.ExecResult{}, errEngineFailed
	}
	return e.Engine.Execute(w)
}

// TestWatchdogAbortIsExact: a dispatch stopped part-way — by the cycle
// budget, the watchdog polling every few cycles, or by an engine error —
// leaves the same statistics with skipping on and off. A wave's open fetch
// stall is charged when the wave is next visited, so this holds only if
// every way out of RunDispatch, an abort included, charges what is still
// open.
func TestWatchdogAbortIsExact(t *testing.T) {
	type stop struct {
		budget int64 // cycles, or 0
		fail   int   // the Execute that fails, or 0
	}
	for _, name := range []string{"LULESH", "MD"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			for _, st := range []stop{{budget: 1601}, {budget: 1789}, {budget: 2311}, {fail: 211}, {fail: 397}} {
				var runs [2]*stats.Run
				for i, noskip := range []bool{false, true} {
					runs[i] = &stats.Run{}
					m := core.NewMachine(abs, runs[i])
					if err := inst.Setup(m); err != nil {
						t.Fatal(err)
					}
					d, eng, err := m.NextDispatch()
					if err != nil {
						t.Fatal(err)
					}
					want := timing.ErrBudgetExceeded
					if st.fail > 0 {
						eng, want = &failingEngine{Engine: eng, n: st.fail}, errEngineFailed
					}
					g := timing.NewGPU(timing.DefaultConfig(), runs[i])
					g.NoSkip = noskip
					g.WD = timing.Watchdog{MaxCycles: st.budget, CheckEvery: 7}
					if _, err := g.RunDispatch(eng, d); !errors.Is(err, want) {
						t.Fatalf("%s/%s %+v: err = %v, want %v", name, abs, st, err, want)
					}
					g.Finalize()
				}
				if a, b := runs[0].Fingerprint(), runs[1].Fingerprint(); !bytes.Equal(a, b) {
					t.Errorf("%s/%s stopped at %+v: skipped and ticked runs differ:\n%s",
						name, abs, st, diffLines(b, a))
				}
				if runs[0].FetchStallCycles == 0 {
					t.Errorf("%s/%s stopped at %+v: no fetch stall charged, nothing left open", name, abs, st)
				}
			}
		}
	}
}

// TestScoreboardCostsHSAILStalls: a kernel that is a single long dependent
// ALU chain stalls the HSAIL scoreboard on every instruction, while the
// finalizer's nop/schedule discipline gives GCN3 a fixed one-slot gap. With
// ONE wave (no latency hiding), HSAIL must burn more cycles per instruction.
func TestScoreboardCostsHSAILStalls(t *testing.T) {
	b := kernel.NewBuilder("dep_chain")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	v := b.Mov(isa.TypeU32, gid)
	for i := 0; i < 64; i++ {
		v = b.Add(isa.TypeU32, v, b.Int(isa.TypeU32, 1)) // strictly dependent chain
	}
	addr := b.Add(isa.TypeU64, b.LoadArg(outArg),
		b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2)))
	b.Store(hsail.SegGlobal, v, addr, 0)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cyclesPerInst [2]float64
	for i, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
		setup := func(m *core.Machine) error {
			out := m.Ctx.AllocBuffer(4 * 64)
			return m.Submit(core.Launch{Kernel: ks, Grid: [3]uint32{64, 1, 1},
				WG: [3]uint16{64, 1, 1}, Args: []uint64{out}})
		}
		g := timing.NewGPU(timing.DefaultConfig(), nil)
		runOn(t, g, abs, "dep_chain", setup)
		cyclesPerInst[i] = float64(g.Run.Cycles) / float64(g.Run.TotalInsts())
	}
	if cyclesPerInst[0] <= cyclesPerInst[1] {
		t.Errorf("dependent chain: HSAIL %.2f cyc/inst <= GCN3 %.2f — scoreboard stalls missing",
			cyclesPerInst[0], cyclesPerInst[1])
	}
}

// TestOccupancyLimitedByRegisters: a register-hungry HSAIL kernel must limit
// waves per CU (the 2048-register VRF bound), visible as longer runtime than
// a lean kernel doing the same memory work.
func TestOccupancyLimitedByRegisters(t *testing.T) {
	build := func(pad int) *core.KernelSource {
		b := kernel.NewBuilder("occ")
		inArg := b.ArgPtr("in")
		outArg := b.ArgPtr("out")
		gid := b.WorkItemAbsID(isa.DimX)
		off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
		// Pad register demand with long-lived values.
		vals := []kernel.Val{gid}
		for i := 0; i < pad; i++ {
			vals = append(vals, b.Add(isa.TypeU32, gid, b.Int(isa.TypeU32, int64(i))))
		}
		v := b.Load(hsail.SegGlobal, isa.TypeU32, b.Add(isa.TypeU64, b.LoadArg(inArg), off), 0)
		acc := v
		for _, p := range vals {
			acc = b.Xor(isa.TypeU32, acc, p)
		}
		b.Store(hsail.SegGlobal, acc, b.Add(isa.TypeU64, b.LoadArg(outArg), off), 0)
		b.Ret()
		k, err := b.FinishRaw() // keep the pressure (no allocation)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := core.PrepareKernel(k, finalizer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ks
	}
	lean := build(2)
	fat := build(100) // ~100+ live slots/wave: ~17 waves/CU instead of 40
	cycles := func(ks *core.KernelSource) uint64 {
		const n = 16384
		setup := func(m *core.Machine) error {
			in := m.Ctx.AllocBuffer(4 * n)
			out := m.Ctx.AllocBuffer(4 * n)
			return m.Submit(core.Launch{Kernel: ks, Grid: [3]uint32{n, 1, 1},
				WG: [3]uint16{64, 1, 1}, Args: []uint64{in, out}})
		}
		g := timing.NewGPU(timing.DefaultConfig(), nil)
		runOn(t, g, core.AbsHSAIL, "occ", setup)
		return g.Run.Cycles
	}
	leanCycles, fatCycles := cycles(lean), cycles(fat)
	if fatCycles <= leanCycles {
		t.Errorf("register pressure did not limit occupancy: lean %d, fat %d cycles",
			leanCycles, fatCycles)
	}
}

// TestBarrierSynchronizesWaves: with multiple waves per workgroup, LDS
// written before a barrier must be visible after it (already covered
// functionally); here we check the TIMED path completes and counts barriers.
func TestBarrierTimedCompletion(t *testing.T) {
	b := kernel.NewBuilder("barrier_timed")
	inArg := b.ArgPtr("in")
	outArg := b.ArgPtr("out")
	b.SetGroupSize(128 * 4)
	lid := b.WorkItemID(isa.DimX)
	gid := b.WorkItemAbsID(isa.DimX)
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
	x := b.Load(hsail.SegGlobal, isa.TypeU32, b.Add(isa.TypeU64, b.LoadArg(inArg), off), 0)
	ldsOff := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, lid), b.Int(isa.TypeU64, 2))
	b.Store(hsail.SegGroup, x, ldsOff, 0)
	b.Barrier()
	rev := b.Sub(isa.TypeU32, b.Int(isa.TypeU32, 127), lid)
	revOff := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, rev), b.Int(isa.TypeU64, 2))
	y := b.Load(hsail.SegGroup, isa.TypeU32, revOff, 0)
	b.Store(hsail.SegGlobal, y, b.Add(isa.TypeU64, b.LoadArg(outArg), off), 0)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512 // 4 workgroups x 2 waves each
	for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
		var inAddr, outAddr uint64
		setup := func(m *core.Machine) error {
			inAddr = m.Ctx.AllocBuffer(4 * n)
			outAddr = m.Ctx.AllocBuffer(4 * n)
			for i := 0; i < n; i++ {
				m.Ctx.Mem.WriteU32(inAddr+uint64(4*i), uint32(i*13))
			}
			return m.Submit(core.Launch{Kernel: ks, Grid: [3]uint32{n, 1, 1},
				WG: [3]uint16{128, 1, 1}, Args: []uint64{inAddr, outAddr}})
		}
		g := timing.NewGPU(timing.DefaultConfig(), nil)
		m := runOn(t, g, abs, "barrier_timed", setup)
		if g.Run.InstsByCategory[isa.CatMisc] == 0 {
			t.Errorf("%s: no barrier instructions counted", abs)
		}
		for i := 0; i < n; i++ {
			wg, lane := i/128, i%128
			want := uint32((wg*128 + (127 - lane)) * 13)
			if got := m.Ctx.Mem.ReadU32(outAddr + uint64(4*i)); got != want {
				t.Fatalf("%s: cross-wave barrier broken at %d: got %d want %d", abs, i, got, want)
			}
		}
	}
}

// TestIBFlushesTrackDivergence: divergent control flow must flush HSAIL's
// instruction buffer more than GCN3's on the timed model.
func TestIBFlushesTrackDivergence(t *testing.T) {
	h := runWorkload(t, "CoMD", core.AbsHSAIL)
	g := runWorkload(t, "CoMD", core.AbsGCN3)
	hRate := float64(h.IBFlushes) / float64(h.TotalInsts())
	gRate := float64(g.IBFlushes) / float64(g.TotalInsts())
	if hRate <= gRate {
		t.Errorf("divergent workload flush rates: HSAIL %.4f <= GCN3 %.4f", hRate, gRate)
	}
}

// TestSmallGPUStillCompletes: a 1-CU single-SIMD configuration must still
// drain every workgroup.
func TestSmallGPUStillCompletes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.NumCUs = 1
	cfg.SIMDsPerCU = 1
	cfg.WFSlots = 4
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("BitonicSort")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	run, m, err := sim.Run(core.AbsGCN3, "BitonicSort", inst.Setup, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(m); err != nil {
		t.Fatal(err)
	}
	if run.Cycles == 0 {
		t.Fatal("no cycles recorded")
	}
}

// TestExtremeLatencyCompletes: pathological memory latencies must not
// deadlock the pipeline, and waitcnt/scoreboard semantics must still deliver
// correct results.
func TestExtremeLatencyCompletes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.DRAMLatency = 5000
	cfg.DRAMOccupancy = 64
	cfg.L2HitLatency = 500
	cfg.L1HitLatency = 100
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("SpMV")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
		run, m, err := sim.Run(abs, "SpMV", inst.Setup, core.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", abs, err)
		}
		if err := inst.Check(m); err != nil {
			t.Fatalf("%s: %v", abs, err)
		}
		if run.Cycles == 0 {
			t.Fatalf("%s: no cycles", abs)
		}
	}
}

// TestLatencyMonotonicity: slower memory must never make a memory-bound
// workload faster.
func TestLatencyMonotonicity(t *testing.T) {
	w, err := workloads.ByName("ArrayBW")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i, lat := range []int64{80, 160, 640} {
		cfg := core.DefaultConfig()
		cfg.DRAMLatency = lat
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, m, err := sim.Run(core.AbsGCN3, "ArrayBW", inst.Setup, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Check(m); err != nil {
			t.Fatal(err)
		}
		if i > 0 && run.Cycles < prev {
			t.Fatalf("DRAM latency %d made the run FASTER: %d < %d", lat, run.Cycles, prev)
		}
		prev = run.Cycles
	}
}
