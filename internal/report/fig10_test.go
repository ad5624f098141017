package report

import (
	"fmt"
	"math"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/stats"
	"ilsim/internal/workloads"
)

// fig10 is a run's Fig 10 counts.
type fig10 struct{ readUnique, readLanes, writeUnique, writeLanes uint64 }

func fig10Of(r *stats.Run) fig10 {
	return fig10{r.ReadUnique, r.ReadLanes, r.WriteUnique, r.WriteLanes}
}

// timedFig10 runs inst on the timed model with numCUs compute units,
// sampling one in every VRF accesses.
func timedFig10(t *testing.T, what string, inst *workloads.Instance, abs core.Abstraction, numCUs, every int) *stats.Run {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.NumCUs = numCUs
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, m, err := sim.Run(abs, what, inst.Setup, core.RunOptions{TrackValues: true, ValueSampleEvery: every})
	if err != nil {
		t.Fatalf("%s on %d CUs: %v", what, numCUs, err)
	}
	if err := inst.Check(m); err != nil {
		t.Fatalf("%s on %d CUs: %v", what, numCUs, err)
	}
	return run
}

// functionalFig10 runs inst on Machine.RunFunctional, sampling one in every
// VRF accesses.
func functionalFig10(t *testing.T, what string, inst *workloads.Instance, abs core.Abstraction, every int) *stats.Run {
	t.Helper()
	m := core.NewMachine(abs, &stats.Run{})
	m.Col.TrackValues, m.Col.ValueSampleEvery = true, every
	if err := inst.Setup(m); err != nil {
		t.Fatal(err)
	}
	if err := m.RunFunctional(); err != nil {
		t.Fatalf("%s functional: %v", what, err)
	}
	if err := inst.Check(m); err != nil {
		t.Fatalf("%s functional: %v", what, err)
	}
	return m.Col.Run
}

// sampleSigma bounds the standard error of a Fig 10 cell that samples one VRF
// access in every, over lanes sampled lanes of a run of launches kernel
// launches whose exact uniqueness is p. An access is sampled or not by its
// wave's identity within the launch and its index among the wave's
// accesses, so the same (wave, index) is sampled or not in every launch:
// the sample draws clusters of at most 64·launches lanes each. A cluster's
// uniqueness lies in [0, 1], so its lane-weighted variance about p is at
// most p(1−p), and the ratio estimator's variance under Bernoulli sampling
// at rate 1/every is at most (1 − 1/every)·64·launches·p(1−p)/lanes.
func sampleSigma(p float64, lanes, launches uint64, every int) float64 {
	return math.Sqrt((1 - 1/float64(every)) * 64 * float64(launches) * p * (1 - p) / float64(lanes))
}

// TestFig10SampleLaws holds the report's Fig 10 sample (one VRF access in 4)
// to three laws over the Table 5 suite under both abstractions at scales 1
// and 2:
//
//	(a) it is the same on the timed model with 8 compute units, with 1, and
//	    on the functional executor: which accesses are sampled is a property
//	    of the program and its data, not of the dispatch or the interleaving;
//	(b) every cell is within 4 σ of the exact value (every access), σ the
//	    most its sample's standard error can be (sampleSigma): a model
//	    change that only moves which accesses a wave makes re-draws the
//	    sample, and stays inside the bound;
//	(c) reads diverge in both directions, as in the paper: some workload's
//	    HSAIL reads are more unique than its GCN3 reads, and some other's
//	    less.
func TestFig10SampleLaws(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite four times at two scales")
	}
	const every, maxSigmas = 4, 4.0
	for _, scale := range []int{1, 2} {
		var hsailMore, gcn3More []string
		worst, worstCell, worstPoints := 0.0, "", 0.0 // worst in σ, and in points
		for _, w := range workloads.All() {
			inst, err := w.Prepare(scale)
			if err != nil {
				t.Fatal(err)
			}
			var reads [2]float64
			for i, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
				what := fmt.Sprintf("%s/%s scale %d", w.Name, abs, scale)
				got := timedFig10(t, what, inst, abs, 8, every)
				if one := timedFig10(t, what, inst, abs, 1, every); fig10Of(one) != fig10Of(got) {
					t.Errorf("%s: 8 CUs sample %+v, 1 CU %+v", what, fig10Of(got), fig10Of(one))
				}
				if fn := functionalFig10(t, what, inst, abs, every); fig10Of(fn) != fig10Of(got) {
					t.Errorf("%s: timed runs sample %+v, the functional run %+v", what, fig10Of(got), fig10Of(fn))
				}
				exact := functionalFig10(t, what, inst, abs, 1)
				for _, c := range []struct {
					name          string
					sampled, want float64
					lanes         uint64
				}{
					{"read", 100 * got.ReadUniqueness(), 100 * exact.ReadUniqueness(), got.ReadLanes},
					{"write", 100 * got.WriteUniqueness(), 100 * exact.WriteUniqueness(), got.WriteLanes},
				} {
					sigma := 100 * sampleSigma(c.want/100, c.lanes, got.KernelLaunches, every)
					d := math.Abs(c.sampled - c.want)
					worstPoints = max(worstPoints, d)
					if d/sigma > worst {
						worst, worstCell = d/sigma, fmt.Sprintf("%s %s (%.1f %% sampled, %.1f %% exact, %.2f points off, σ %.2f)",
							what, c.name, c.sampled, c.want, d, sigma)
					}
					if d > maxSigmas*sigma {
						t.Errorf("%s %s uniqueness: sampled %.1f %%, exact %.1f %%: %.2f points apart, more than %.0f σ = %.2f",
							what, c.name, c.sampled, c.want, d, maxSigmas, maxSigmas*sigma)
					}
				}
				reads[i] = got.ReadUniqueness()
			}
			switch {
			case reads[0] > reads[1]:
				hsailMore = append(hsailMore, w.Name)
			case reads[1] > reads[0]:
				gcn3More = append(gcn3More, w.Name)
			}
		}
		t.Logf("scale %d: worst cell %s: %.2f σ; worst %.2f points off", scale, worstCell, worst, worstPoints)
		if len(hsailMore) == 0 || len(gcn3More) == 0 {
			t.Errorf("scale %d: HSAIL reads are more unique on %v, GCN3 reads on %v: want both directions",
				scale, hsailMore, gcn3More)
		}
	}
}
