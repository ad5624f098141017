package report

import "fmt"

// PaperComparison renders the headline paper-vs-measured table: for every
// quantitative claim in the paper's abstract and evaluation, the value this
// reproduction measures, with the deviations discussed. Each value is the
// suite summary of the section that plots it, or Fig 1's row for SIMD
// utilization, which Table 6 shows without one.
func (r *Results) PaperComparison() string {
	insts := r.summary(find("fig5"))
	conflicts := r.summary(find("fig6"))
	reuse := r.summary(find("fig7"))
	foot := r.summary(find("fig8"))
	flushes := r.summary(find("fig9"))
	util := r.geomean(simdUtil, find("fig1").ratio)

	// Runtime extremes (Fig 12's featured pair).
	var slowHSAIL, slowGCN3 float64 = 1, 1
	var slowHSAILName, slowGCN3Name string
	fig12 := find("fig12")
	for _, name := range r.Order {
		hg, ok := fig12.ratio.of(fig12.metrics[0], r.Runs[name])
		if !ok {
			continue
		}
		if hg > slowHSAIL {
			slowHSAIL, slowHSAILName = hg, name
		}
		if 1/hg > slowGCN3 {
			slowGCN3, slowGCN3Name = 1/hg, name
		}
	}

	il := r.abstractionError()

	t := &table{}
	t.title("Paper vs measured — every headline claim")
	t.row("Claim (paper §)", "Paper", "Measured", "Notes")
	t.sep(4)
	t.row("Dynamic instructions, GCN3/HSAIL (abstract, Fig 5)", "≈2× (1.5-3×)", f2(insts)+"×",
		"per-workload spread in Fig 5 below")
	t.row("VRF bank conflicts, HSAIL/GCN3 (abstract, Fig 6)", "≈3×", f2(conflicts)+"×",
		"direction and first-order magnitude hold; our operand-collector model is coarser than gem5's")
	t.row("Median register reuse distance, GCN3/HSAIL (Fig 7)", "≈2×", f2(reuse)+"×", "")
	t.row("Instruction footprint, GCN3/HSAIL (Fig 8)", "≈2.4×", f2(foot)+"×",
		"our finalizer emits a higher share of 32-bit encodings than AMD's production codegen; LULESH still breaks the 16KB L1I (see Fig 8)")
	t.row("IB flushes, HSAIL/GCN3 (Fig 9)", ">2×", f2(flushes)+"×", "")
	t.row("SIMD utilization, GCN3/HSAIL (Table 6)", "≈1.0 (within a few %)", f2(util), "")
	t.row("Runtime: worst HSAIL-pessimistic workload (Fig 12)", "ArrayBW 1.6×",
		fmt.Sprintf("%s %.2f×", slowHSAILName, slowHSAIL), "which workload tops the list depends on contention details")
	t.row("Runtime: worst HSAIL-optimistic workload (Fig 12)", "LULESH 1.85× (GCN3 slower)",
		fmt.Sprintf("%s %.2f×", slowGCN3Name, slowGCN3), "driven by the L1I-thrashing + kernarg-register mechanisms the paper describes")
	t.row("HW correlation (Table 7)", "0.972 / 0.973", "not measured",
		fmt.Sprintf("needs silicon this repository does not have; HSAIL against the GCN3 simulation correlates at %.3f over %d launches (Table 7)", il.pearson, il.launches))
	t.row("HW absolute error, HSAIL vs GCN3 (Table 7)", "75% vs 42%", "not measured",
		fmt.Sprintf("needs silicon this repository does not have; the IL's own error against the GCN3 simulation is %s per launch, %s per workload (Table 7)", pct1(il.perLaunch), pct1(il.perWorkload)))
	t.note("")
	return t.String()
}
