package timing_test

import (
	"bytes"
	"fmt"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// TestParallelTimingDeterminism is the contract of the parallel timing core:
// sharding CU ticks across goroutines is a pure speedup. Every workload of
// the Table 5 suite, under both abstractions, with cycle skipping on and
// off, must produce byte-identical run fingerprints at CUParallelism 1
// (serial loop), 2 (partitioned pool) and NumCUs (one worker per CU). The
// statistics tracked here include the order-sensitive paths — value-
// uniqueness sampling and reuse distances — so any scheduling divergence
// between the serial interleaving and the two-phase epochs shows up.
//
// Run under -race (make race does) this is also the data-race gate for the
// phase-1 worker pool.
func TestParallelTimingDeterminism(t *testing.T) {
	names := suiteNames
	if testing.Short() {
		// MD (latency-bound), SpMV (divergent), HPGMG (multi-kernel
		// stencil) cover the scheduling regimes.
		names = []string{"MD", "SpMV", "HPGMG"}
	}
	opts := core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}
	cfg := core.DefaultConfig()
	parLevels := []int{1, 2, cfg.NumCUs}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			t.Run(name+"/"+abs.String(), func(t *testing.T) {
				var want []byte
				for _, noskip := range []bool{false, true} {
					for _, par := range parLevels {
						inst, err := w.Prepare(1)
						if err != nil {
							t.Fatal(err)
						}
						sim, err := core.NewSimulator(cfg)
						if err != nil {
							t.Fatal(err)
						}
						o := opts
						o.DisableCycleSkipping = noskip
						o.CUParallelism = par
						run, m, err := sim.Run(abs, name, inst.Setup, o)
						if err != nil {
							t.Fatalf("cu-par=%d noskip=%v: %v", par, noskip, err)
						}
						if err := inst.Check(m); err != nil {
							t.Fatalf("cu-par=%d noskip=%v: %v", par, noskip, err)
						}
						fp := run.Fingerprint()
						if want == nil {
							want = fp
							continue
						}
						if !bytes.Equal(fp, want) {
							t.Errorf("cu-par=%d noskip=%v: fingerprint diverges from cu-par=1 skip-on baseline:\n%s",
								par, noskip, diffLines(want, fp))
						}
					}
				}
			})
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
