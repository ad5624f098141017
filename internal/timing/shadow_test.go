package timing_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/kernel/randkernel"
	"ilsim/internal/stats"
	"ilsim/internal/timing"
	"ilsim/internal/workloads"
)

// suiteNames is the Table 5 suite.
var suiteNames = []string{
	"ArrayBW", "BitonicSort", "CoMD", "FFT", "HPGMG",
	"LULESH", "MD", "SNAP", "SpMV", "XSBench",
}

// requireClean fails the test with the oracle's first messages if any sleep
// bound was refuted.
func requireClean(t *testing.T, sh *timing.Shadow) {
	t.Helper()
	if n, msgs := sh.Failures(); n > 0 {
		t.Errorf("%d sleep-bound violations, first:", n)
		for _, m := range msgs {
			t.Errorf("  %s", m)
		}
	}
}

// runOn runs a workload on g the way core.Simulator.RunContext does — setup
// on a new machine, then each dispatch through g, then Finalize — and
// returns the machine; the statistics are g.Run. TestNoSkipTicksEverything
// holds it to the simulator's fingerprint.
func runOn(t *testing.T, g *timing.GPU, abs core.Abstraction, name string, setup func(*core.Machine) error) *core.Machine {
	t.Helper()
	g.Run.Workload = name
	m := core.NewMachine(abs, g.Run)
	if err := setup(m); err != nil {
		t.Fatalf("%s/%s setup: %v", name, abs, err)
	}
	for {
		d, eng, err := m.NextDispatch()
		if err != nil {
			t.Fatalf("%s/%s dispatch: %v", name, abs, err)
		}
		if d == nil {
			break
		}
		cycles, err := g.RunDispatch(eng, d)
		if err != nil {
			t.Fatalf("%s/%s (kernel %s): %v", name, abs, d.KernelName, err)
		}
		g.Run.KernelCycles = append(g.Run.KernelCycles, uint64(cycles))
		m.CompleteDispatch(d)
	}
	g.Finalize()
	g.Run.DataFootprintBytes = m.Ctx.Mem.FootprintBytes()
	return m
}

// rearm re-arms g for a new run, as core's device free list does between
// runs, and attaches a fresh shadow: Reset detaches the last one.
func rearm(t *testing.T, g *timing.GPU) *timing.Shadow {
	t.Helper()
	if !g.Reset(g.Cfg, nil) {
		t.Fatal("Reset refused the device's own parameters")
	}
	return timing.AttachShadow(g)
}

// TestSleepBoundsShadow is the invariant behind the three skipping levels
// (wave wakeAt, CU sleep, GPU jump): with the shadow oracle attached, every
// wave and every CU cycle the timing core skips is re-checked against the
// unabridged fetch/issue rules, and none may have been able to act or have
// been charged a different FetchStallCycles. Every workload of the suite
// under both abstractions, on one device re-armed between them, plus random
// structured kernels on machines small enough that workgroups queue behind
// occupied slots.
func TestSleepBoundsShadow(t *testing.T) {
	names := suiteNames
	if testing.Short() {
		names = []string{"MD", "SpMV", "BitonicSort"}
	}
	g := timing.NewGPU(timing.DefaultConfig(), nil)
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			t.Run(name+"/"+abs.String(), func(t *testing.T) {
				sh := rearm(t, g)
				inst, err := w.Prepare(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := inst.Check(runOn(t, g, abs, name, inst.Setup)); err != nil {
					t.Fatal(err)
				}
				requireClean(t, sh)
				if sh.WavesAsleep == 0 || sh.CUCyclesAsleep == 0 {
					t.Errorf("nothing slept (waves %d, CU cycles %d): the oracle checked nothing",
						sh.WavesAsleep, sh.CUCyclesAsleep)
				}
			})
		}
	}

	t.Run("random", func(t *testing.T) {
		seeds := 24
		if testing.Short() {
			seeds = 6
		}
		// The grid is four one-wave workgroups: they queue two deep on two
		// single-slot CUs, share one CU's SIMDs, or spread over the default
		// machine.
		var devs []*timing.GPU
		for _, shape := range [][2]int{{2, 1}, {1, 4}, {8, 40}} {
			p := timing.DefaultConfig()
			p.NumCUs, p.WFSlots = shape[0], shape[1]
			devs = append(devs, timing.NewGPU(p, nil))
		}
		var wavesAsleep, cuCyclesAsleep int64
		for seed := int64(0); seed < int64(seeds); seed++ {
			g := devs[seed%int64(len(devs))]
			k, err := randkernel.Gen(seed, false)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ks, err := core.PrepareKernel(k, finalizer.Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var outs [2][]uint32
			for i, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
				sh := rearm(t, g)
				outs[i] = runRandomTimed(t, g, ks, abs, seed)
				requireClean(t, sh)
				wavesAsleep += sh.WavesAsleep
				cuCyclesAsleep += sh.CUCyclesAsleep
			}
			for i := range outs[0] {
				if outs[0][i] != outs[1][i] {
					t.Fatalf("seed %d: timed HSAIL and GCN3 disagree at lane %d: %#x != %#x",
						seed, i, outs[0][i], outs[1][i])
				}
			}
		}
		if wavesAsleep == 0 || cuCyclesAsleep == 0 {
			t.Error("nothing slept: the oracle checked nothing")
		}
	})
}

// randGrid is the grid generated kernels run on: four one-wave workgroups.
const randGrid = randkernel.BufWords

// randomSetup returns the setup for one generated kernel — the seeded input
// buffer, an output word per work-item, one launch — and where it put the
// output.
func randomSetup(ks *core.KernelSource, seed int64) (setup func(m *core.Machine) error, out *uint64) {
	out = new(uint64)
	return func(m *core.Machine) error {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		in := m.Ctx.AllocBuffer(4 * randkernel.BufWords)
		*out = m.Ctx.AllocBuffer(4 * randGrid)
		for i := 0; i < randkernel.BufWords; i++ {
			m.Ctx.Mem.WriteU32(in+uint64(4*i), rng.Uint32())
		}
		return m.Submit(core.Launch{Kernel: ks, Grid: [3]uint32{randGrid, 1, 1},
			WG: [3]uint16{64, 1, 1}, Args: []uint64{in, *out}})
	}, out
}

// runRandomTimed runs one generated kernel on g and returns its output.
func runRandomTimed(t *testing.T, g *timing.GPU, ks *core.KernelSource, abs core.Abstraction, seed int64) []uint32 {
	t.Helper()
	setup, out := randomSetup(ks, seed)
	return readWords(runOn(t, g, abs, fmt.Sprintf("rand_%d", seed), setup), *out, randGrid)
}

func readWords(m *core.Machine, addr uint64, n int) []uint32 {
	got := make([]uint32, n)
	for i := range got {
		got[i] = m.Ctx.Mem.ReadU32(addr + uint64(4*i))
	}
	return got
}

// TestNoSkipTicksEverything pins what DisableCycleSkipping promises the
// determinism tests that use it as their oracle: every CU really ticks every
// cycle and every tick really visits every resident wave — no level of
// sleeping left on — while the default run skips at every level and still
// ends with the same fingerprint. BitonicSort on one CU with one wavefront
// slot is the barrier-heavy single-slot schedule (and the configuration that
// used to drop workgroups); SpMV on the default machine sleeps on memory.
// Both must also match core.Simulator's run on the same Config: that pins
// runOn to RunContext's loop.
func TestNoSkipTicksEverything(t *testing.T) {
	single := timing.DefaultConfig()
	single.NumCUs, single.WFSlots = 1, 1
	for _, tc := range []struct {
		name  string
		p     timing.Config
		scale int
	}{
		{"BitonicSort", single, 2},
		{"SpMV", timing.DefaultConfig(), 1},
	} {
		w, err := workloads.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			t.Run(tc.name+"/"+abs.String(), func(t *testing.T) {
				g := timing.NewGPU(tc.p, nil)
				var fps [2][]byte
				for i, noskip := range []bool{true, false} {
					sh := rearm(t, g)
					g.NoSkip = noskip
					inst, err := w.Prepare(tc.scale)
					if err != nil {
						t.Fatal(err)
					}
					if err := inst.Check(runOn(t, g, abs, tc.name, inst.Setup)); err != nil {
						t.Fatal(err)
					}
					requireClean(t, sh)
					fps[i] = g.Run.Fingerprint()
					everyTick := int64(tc.p.NumCUs) * int64(g.Run.Cycles)
					ticks, resident, visited := sh.Ticks, sh.Resident, sh.Visited
					asleep := sh.WavesAsleep + sh.CUCyclesAsleep
					if noskip {
						if ticks != everyTick || visited != resident || asleep != 0 || resident == 0 {
							t.Errorf("noskip: %d ticks (want %d CUs x cycles), %d of %d resident waves visited, %d skips",
								ticks, everyTick, visited, resident, asleep)
						}
					} else if ticks >= everyTick || asleep == 0 {
						t.Errorf("skip: %d ticks of %d, %d of %d resident waves visited, %d skips: nothing slept",
							ticks, everyTick, visited, resident, asleep)
					}
				}
				if !bytes.Equal(fps[0], fps[1]) {
					t.Errorf("fingerprint differs between ticked and skipped runs:\n%s", diffLines(fps[0], fps[1]))
				}
				sim, err := core.NewSimulator(tc.p)
				inst, err2 := w.Prepare(tc.scale)
				if err != nil || err2 != nil {
					t.Fatal(err, err2)
				}
				if run, _, err := sim.Run(abs, tc.name, inst.Setup, core.RunOptions{}); err != nil {
					t.Fatal(err)
				} else if want := run.Fingerprint(); !bytes.Equal(want, fps[1]) {
					t.Errorf("runOn and core.Simulator differ:\n%s", diffLines(want, fps[1]))
				}
			})
		}
	}
}

// TestVisitsPerIssue holds the issue loop to its cost model, counting the
// eligibility checks per instruction issued. SpMV at scale 16 under HSAIL
// parks nearly every wave on a scoreboard dependency and used to run ~190;
// with exact wake bounds a wave is checked when it can have become ready, so
// the ratio must stay under 10. MD at scale 6 keeps its SIMDs busy: a wave
// that has just issued used to be checked again every cycle its unit stayed
// busy (3.57 under HSAIL, 2.70 under GCN3); with the issue-time bound it
// sleeps until its next instruction can go.
func TestVisitsPerIssue(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-16 and scale-6 runs")
	}
	for _, tc := range []struct {
		name  string
		scale int
		abs   core.Abstraction
		bound float64
	}{
		{"SpMV", 16, core.AbsHSAIL, 10},
		{"MD", 6, core.AbsHSAIL, 3.2},
		{"MD", 6, core.AbsGCN3, 2.45},
	} {
		t.Run(fmt.Sprintf("%s@%d/%s", tc.name, tc.scale, tc.abs), func(t *testing.T) {
			w, err := workloads.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := w.Prepare(tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			g := timing.NewGPU(timing.DefaultConfig(), nil)
			sh := timing.AttachShadow(g)
			runOn(t, g, tc.abs, tc.name, inst.Setup)
			requireClean(t, sh)
			perIssue := float64(sh.Checked) / float64(g.Run.TotalInsts())
			t.Logf("%d eligibility checks for %d instructions (%.2f per issue); %d wave visits skipped",
				sh.Checked, g.Run.TotalInsts(), perIssue, sh.WavesAsleep)
			if perIssue >= tc.bound {
				t.Errorf("%.2f eligibility checks per issued instruction, want < %g", perIssue, tc.bound)
			}
		})
	}
}

// TestDispatchLaunchesEveryWorkgroup is the regression test for the
// dispatcher dropping queued workgroups: on one CU with one wavefront slot
// every one-wave workgroup retires alone, so the cycle a workgroup finishes
// is also a cycle with nothing resident — which used to end the dispatch
// with the rest never launched. The timed run must commit exactly the
// instructions the functional reference commits.
func TestDispatchLaunchesEveryWorkgroup(t *testing.T) {
	k, err := randkernel.Gen(1, false)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := core.PrepareKernel(k, finalizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := timing.DefaultConfig()
	p.NumCUs, p.WFSlots = 1, 1
	for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
		ref := &stats.Run{}
		fm := core.NewMachine(abs, ref)
		setup, out := randomSetup(ks, 1)
		if err := setup(fm); err != nil {
			t.Fatal(err)
		}
		if err := fm.RunFunctional(); err != nil {
			t.Fatal(err)
		}
		want := readWords(fm, *out, randGrid)

		g := timing.NewGPU(p, nil)
		got := runRandomTimed(t, g, ks, abs, 1)
		if g.Run.TotalInsts() != ref.TotalInsts() {
			t.Errorf("%s: timed run committed %d instructions, functional reference %d",
				abs, g.Run.TotalInsts(), ref.TotalInsts())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: work-item %d: got %#x, want %#x (workgroup never ran?)", abs, i, got[i], want[i])
			}
		}
	}
}

// diffLines returns the fingerprint lines that differ, keeping failure
// output readable (fingerprints run to hundreds of lines).
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&out, "-%s\n+%s\n", wl, gl)
		}
	}
	return out.String()
}
