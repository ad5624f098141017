// External-package test: exercises the watchdog through the public
// simulator API with a real workload, which package core's own tests
// cannot do without an import cycle on the workload registry.
package core_test

import (
	"context"
	"errors"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

func arrayBW(t *testing.T) *workloads.Instance {
	t.Helper()
	w, err := workloads.ByName("ArrayBW")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunContextPreCanceled(t *testing.T) {
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = sim.RunContext(ctx, core.AbsHSAIL, "ArrayBW", arrayBW(t).Setup, core.RunOptions{})
	if err == nil {
		t.Fatal("pre-canceled context ran to completion")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
}

func TestWatchdogCycleBudget(t *testing.T) {
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := arrayBW(t)
	for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
		_, _, err := sim.Run(abs, "ArrayBW", inst.Setup,
			core.RunOptions{MaxCycles: 100, CheckEvery: 16})
		if !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", abs, err)
		}
	}
}

// TestWatchdogBudgetAboveRunIsHarmless: a budget the run never reaches
// must not perturb the simulation — same cycles as an unwatched run.
func TestWatchdogBudgetAboveRunIsHarmless(t *testing.T) {
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := arrayBW(t)
	free, _, err := sim.Run(core.AbsHSAIL, "ArrayBW", inst.Setup, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	watched, _, err := sim.Run(core.AbsHSAIL, "ArrayBW", inst.Setup,
		core.RunOptions{MaxCycles: 1 << 40, CheckEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if free.Cycles != watched.Cycles {
		t.Fatalf("watchdog perturbed the run: %d vs %d cycles", watched.Cycles, free.Cycles)
	}
}
