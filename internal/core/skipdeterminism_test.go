package core_test

import (
	"bytes"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// TestCycleSkippingDeterminism proves the event-driven fast path is a pure
// speedup: running with cycle skipping disabled (every CU ticked and every
// wave visited every cycle) and enabled (sleeping waves and CUs skipped,
// inert spans jumped) must produce byte-identical statistics, and outputs
// that pass the workload's check. The whole suite runs under both
// abstractions — MD is long-latency-bound (deep waitcnt/scoreboard waits),
// LULESH launch-bound (dispatch and drain edges repeat often), SpMV divergent
// — plus BitonicSort on one CU with one wavefront slot: barrier-heavy
// single-slot scheduling, where every workgroup retires on a cycle that
// leaves the CU empty (the dispatcher once ended the dispatch there, dropping
// the workgroups still queued).
//
// TestDisableCycleSkippingReachesDevice checks that the option reaches the
// device; that NoSkip really switches every level of skipping off is
// asserted where the timing core's shadow oracle is reachable
// (internal/timing TestNoSkipTicksEverything).
func TestCycleSkippingDeterminism(t *testing.T) {
	opts := core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}
	type runCase struct {
		label, workload string
		scale           int
		cfg             core.Config
	}
	var cases []runCase
	for _, name := range []string{
		"ArrayBW", "BitonicSort", "CoMD", "FFT", "HPGMG",
		"LULESH", "MD", "SNAP", "SpMV", "XSBench",
	} {
		cases = append(cases, runCase{name, name, 1, core.DefaultConfig()})
	}
	single := core.DefaultConfig()
	single.NumCUs, single.WFSlots = 1, 1
	cases = append(cases, runCase{"BitonicSort-1cu-1slot", "BitonicSort", 2, single})

	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			t.Run(tc.label+"/"+abs.String(), func(t *testing.T) {
				var fps [2][]byte
				for i, noskip := range []bool{true, false} {
					inst, err := w.Prepare(tc.scale)
					if err != nil {
						t.Fatal(err)
					}
					sim, err := core.NewSimulator(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					o := opts
					o.DisableCycleSkipping = noskip
					run, m, err := sim.Run(abs, tc.workload, inst.Setup, o)
					if err != nil {
						t.Fatal(err)
					}
					if err := inst.Check(m); err != nil {
						t.Fatal(err)
					}
					fps[i] = run.Fingerprint()
				}
				if !bytes.Equal(fps[0], fps[1]) {
					t.Errorf("fingerprint differs between ticked and skipped runs:\n-- noskip --\n%s\n-- skip --\n%s",
						fps[0], fps[1])
				}
			})
		}
	}
}

// TestDisableCycleSkippingReachesDevice: a run arms its device's NoSkip from
// RunOptions.DisableCycleSkipping, and the next run re-arms it. The device
// keeps the flag after the run until its next Reset, so the one a run hands
// back to the free list shows what the run used. Without this wiring
// TestCycleSkippingDeterminism would compare two skipped runs and pass.
func TestDisableCycleSkippingReachesDevice(t *testing.T) {
	w, err := workloads.ByName("ArrayBW")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, noskip := range []bool{true, false, true} {
		inst, err := w.Prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.RunOptions{DisableCycleSkipping: noskip}
		if _, _, err := sim.Run(core.AbsHSAIL, "ArrayBW", inst.Setup, opts); err != nil {
			t.Fatal(err)
		}
		g := core.TakeDevice()
		if g == nil {
			t.Fatal("a clean run left no device on the free list")
		}
		if g.NoSkip != noskip {
			t.Fatalf("DisableCycleSkipping %v ran on a device with NoSkip %v", noskip, g.NoSkip)
		}
		core.OfferDevice(g) // the next run re-arms this device
	}
}

// TestParallelismFieldsInert: RunOptions.CUParallelism and MemParallelism
// survive only because the frozen benchmark sets them (its mix_par workload
// and three ladder rungs), which relies on their changing nothing.
func TestParallelismFieldsInert(t *testing.T) {
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MD", "SpMV"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			var fps [2][]byte
			for i, o := range []core.RunOptions{{}, {CUParallelism: 8, MemParallelism: 44}} {
				run, _, err := sim.Run(abs, name, inst.Setup, o)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, abs, err)
				}
				fps[i] = run.Fingerprint()
			}
			if !bytes.Equal(fps[0], fps[1]) {
				t.Errorf("%s/%s: fingerprint moves with CUParallelism/MemParallelism set", name, abs)
			}
		}
	}
}
