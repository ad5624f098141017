package timing_test

import (
	"bytes"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// TestBankedMemoryDeterminism is the contract of the banked phase-2 drain:
// servicing L1 banks, L2 banks, and DRAM channels on concurrent workers is a
// pure speedup. Every workload of the Table 5 suite, under both
// abstractions, must produce byte-identical run fingerprints across the
// mem-parallelism grid {1 (serial drain), 2, DrainWidth (one worker per
// widest-wave bank)} crossed with CU-parallelism {1, NumCUs} — so the two
// intra-simulation parallelism levels are exercised both independently and
// stacked. Determinism rests on the data layout, not the scheduler:
// requests are routed into per-(source, bank) buckets during phase 1,
// concatenated in fixed wiring order, replayed per bank in (CU index,
// append order), and cross-bank line completions max-reduce into each
// request's ready cycle in request order.
//
// Run under -race (make race does) this is also the data-race gate for the
// task-epoch work-stealing path.
func TestBankedMemoryDeterminism(t *testing.T) {
	names := suiteNames
	if testing.Short() {
		// ArrayBW (memory-bound streams, the drain's stress case), SpMV
		// (divergent, irregular bank spread), HPGMG (multi-kernel) cover
		// the routing regimes.
		names = []string{"ArrayBW", "SpMV", "HPGMG"}
	}
	opts := core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}
	cfg := core.DefaultConfig()
	memLevels := []int{1, 2, cfg.DrainWidth()}
	cuLevels := []int{1, cfg.NumCUs}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			t.Run(name+"/"+abs.String(), func(t *testing.T) {
				var want []byte
				for _, cuPar := range cuLevels {
					for _, memPar := range memLevels {
						inst, err := w.Prepare(1)
						if err != nil {
							t.Fatal(err)
						}
						sim, err := core.NewSimulator(cfg)
						if err != nil {
							t.Fatal(err)
						}
						o := opts
						o.CUParallelism = cuPar
						o.MemParallelism = memPar
						run, m, err := sim.Run(abs, name, inst.Setup, o)
						if err != nil {
							t.Fatalf("cu-par=%d mem-par=%d: %v", cuPar, memPar, err)
						}
						if err := inst.Check(m); err != nil {
							t.Fatalf("cu-par=%d mem-par=%d: %v", cuPar, memPar, err)
						}
						fp := run.Fingerprint()
						if want == nil {
							want = fp
							continue
						}
						if !bytes.Equal(fp, want) {
							t.Errorf("cu-par=%d mem-par=%d: fingerprint diverges from the serial baseline:\n%s",
								cuPar, memPar, diffLines(want, fp))
						}
					}
				}
			})
		}
	}
}
