package report

import (
	"fmt"

	"ilsim/internal/isa"
	"ilsim/internal/workloads"
)

// AblationTable renders the finalizer ablation study (workloads.Ablations):
// one GCN3 run of the ablation kernel per finalizer configuration, in
// configuration order.
func (r *Results) AblationTable() string {
	t := &table{}
	t.title("Ablation — finalizer design choices (GCN3 runs of the ablation kernel)")
	t.note("Each row disables one mechanism the paper credits for machine-ISA behavior; compare against the baseline. " +
		"Two honest observations: disabling scheduling trades conflicts for s_nop padding (sparser issue also means fewer same-cycle operand pulls), " +
		"and on this all-uniform-control kernel, disabling scalar kernarg loads divergence-poisons the loop bounds and converges with full de-scalarization.")
	t.row("Configuration", "insts", "cycles", "conflicts/KI", "reuse median", "scalar insts", "misc (nop/…)", "data footprint")
	t.sep(8)
	for _, w := range workloads.Ablations() {
		run := r.Runs[w.Name].GCN3
		t.row(w.Description,
			fmt.Sprintf("%d", run.TotalInsts()),
			fmt.Sprintf("%d", run.Cycles),
			f2(run.ConflictsPerKiloInst()),
			fmt.Sprintf("%d", run.Reuse.Median()),
			fmt.Sprintf("%d", run.InstsByCategory[isa.CatSALU]+run.InstsByCategory[isa.CatSMem]),
			fmt.Sprintf("%d", run.InstsByCategory[isa.CatMisc]),
			kb(run.DataFootprintBytes))
	}
	return t.String()
}
