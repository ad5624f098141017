package workloads

import (
	"sync"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/stats"
)

// TestAllWorkloadsFunctional runs every workload at unit scale under BOTH
// abstractions with the untimed reference executor and verifies outputs:
// the end-to-end semantic-equivalence gate for the whole toolchain.
func TestAllWorkloadsFunctional(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst, err := w.Prepare(1)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
				run := &stats.Run{Workload: w.Name}
				m := core.NewMachine(abs, run)
				if err := inst.Setup(m); err != nil {
					t.Fatalf("%s: Setup: %v", abs, err)
				}
				if err := m.RunFunctional(); err != nil {
					t.Fatalf("%s: run: %v", abs, err)
				}
				if err := inst.Check(m); err != nil {
					t.Fatalf("%s: check: %v", abs, err)
				}
				if run.TotalInsts() == 0 {
					t.Fatalf("%s: no instructions executed", abs)
				}
			}
		})
	}
}

// TestInstanceConcurrentReuse proves the Instance contract the experiment
// engine's cache depends on: one prepared instance's Setup and Check can
// drive several Machines in parallel (here one per abstraction) without
// cross-talk. Run under -race this is the reuse-safety gate for every
// registered workload.
func TestInstanceConcurrentReuse(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst, err := w.Prepare(1)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			abss := []core.Abstraction{core.AbsHSAIL, core.AbsGCN3}
			errs := make([]error, len(abss))
			var wg sync.WaitGroup
			for i, abs := range abss {
				i, abs := i, abs
				wg.Add(1)
				go func() {
					defer wg.Done()
					run := &stats.Run{Workload: w.Name}
					m := core.NewMachine(abs, run)
					if err := inst.Setup(m); err != nil {
						errs[i] = err
						return
					}
					if err := m.RunFunctional(); err != nil {
						errs[i] = err
						return
					}
					errs[i] = inst.Check(m)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("%s: %v", abss[i], err)
				}
			}
		})
	}
}

// TestCheckNeedsItsOwnSetup: the per-run buffers ride on the Machine, tagged
// with the instance that put them there, so Check refuses a machine it did
// not set up — a fresh one, one another preparation of the same workload set
// up, and its own a second time.
func TestCheckNeedsItsOwnSetup(t *testing.T) {
	a, err := Prepare("ArrayBW", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare("ArrayBW", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(core.AbsGCN3, &stats.Run{})
	if err := a.Check(m); err == nil {
		t.Fatal("Check passed on a machine nobody set up")
	}
	if err := a.Setup(m); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(m); err == nil {
		t.Fatal("Check passed on another instance's machine")
	}
	if err := m.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	if err := a.Check(m); err != nil {
		t.Fatalf("Check after Setup and a run: %v", err)
	}
	if err := a.Check(m); err == nil {
		t.Fatal("Check passed twice on one Setup")
	}
}

// TestWorkloadsTimed runs the suite on the timed model at unit scale and
// sanity-checks the headline cross-abstraction shapes per workload.
func TestWorkloadsTimed(t *testing.T) {
	if testing.Short() {
		t.Skip("timed suite is slow")
	}
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst, err := w.Prepare(1)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			var runs [2]*stats.Run
			for i, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
				run, m, err := sim.Run(abs, w.Name, inst.Setup, core.RunOptions{})
				if err != nil {
					t.Fatalf("%s: %v", abs, err)
				}
				if err := inst.Check(m); err != nil {
					t.Fatalf("%s: check: %v", abs, err)
				}
				runs[i] = run
			}
			h, g := runs[0], runs[1]
			ratio := float64(g.TotalInsts()) / float64(h.TotalInsts())
			if ratio <= 1.0 {
				t.Errorf("dynamic instruction ratio %.2f: GCN3 should exceed HSAIL", ratio)
			}
			su := h.SIMDUtilization() - g.SIMDUtilization()
			if su < -0.1 || su > 0.1 {
				t.Errorf("SIMD utilization diverges: HSAIL %.2f vs GCN3 %.2f",
					h.SIMDUtilization(), g.SIMDUtilization())
			}
			t.Logf("%s: insts %.2fx, cycles H=%d G=%d, IPC H=%.3f G=%.3f, util H=%.2f G=%.2f",
				w.Name, ratio, h.Cycles, g.Cycles, h.IPC(), g.IPC(),
				h.SIMDUtilization(), g.SIMDUtilization())
		})
	}
}
