package hwmodel

import (
	"slices"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/exp"
)

func TestPerturbationDeterministicAndBounded(t *testing.T) {
	for _, name := range []string{"ArrayBW", "LULESH", "FFT", "MD"} {
		for k := 0; k < 30; k++ {
			p1 := perturbation(name, k)
			p2 := perturbation(name, k)
			if p1 != p2 {
				t.Fatalf("%s/%d: nondeterministic perturbation", name, k)
			}
			if p1 < 1.0 || p1 > 2.7 {
				t.Fatalf("%s/%d: perturbation %v outside the calibrated band", name, k, p1)
			}
		}
	}
	if perturbation("ArrayBW", 0) == perturbation("LULESH", 0) {
		t.Fatal("different workloads share a perturbation")
	}
}

func TestSiliconConfigSlower(t *testing.T) {
	base := core.DefaultConfig()
	sil := SiliconConfig()
	if sil.DRAMLatency <= base.DRAMLatency || sil.L2HitLatency <= base.L2HitLatency {
		t.Fatal("silicon config must model ADDED latency")
	}
	if err := sil.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleRuntimes runs HPGMG@1's hw-oracle job (GCN3 under
// SiliconConfig) twice through the experiment engine: every perturbed
// kernel runtime is positive, and the two runs give identical runtimes.
func TestOracleRuntimes(t *testing.T) {
	job := exp.Job{Label: "hw-oracle", Workload: "HPGMG", Scale: 1, Abs: core.AbsGCN3, Config: SiliconConfig()}
	results, _, err := exp.New(1).Run([]exp.Job{job, job})
	if err != nil {
		t.Fatal(err)
	}
	var runtimes [2][]float64
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		runtimes[i] = PerturbedRuntimes(job.Workload, r.Run.KernelCycles)
	}
	times, again := runtimes[0], runtimes[1]
	if len(times) == 0 {
		t.Fatal("no kernel runtimes")
	}
	for i, v := range times {
		if v <= 0 {
			t.Fatalf("kernel %d: non-positive runtime %v", i, v)
		}
	}
	if !slices.Equal(times, again) {
		t.Fatalf("oracle nondeterministic: %v, then %v", times, again)
	}
}
