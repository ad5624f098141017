package report

import (
	"fmt"

	"ilsim/internal/isa"
	"ilsim/internal/workloads"
)

// ablation renders the finalizer ablation study (workloads.Ablations): one
// GCN3 run of the ablation kernel per finalizer configuration, in
// configuration order.
func (r *Results) ablation(_ *section, t *table) error {
	t.row("Configuration", "insts", "cycles", "conflicts/KI", "reuse median", "scalar insts", "misc (nop/…)", "data footprint")
	t.sep(8)
	for _, w := range workloads.Ablations() {
		run := r.Runs[w.Name].GCN3
		t.row(w.Description, dynInsts.show(run), cycles.show(run), vrfConflicts.show(run), reuseDist.show(run),
			fmt.Sprintf("%d", run.InstsByCategory[isa.CatSALU]+run.InstsByCategory[isa.CatSMem]),
			fmt.Sprintf("%d", run.InstsByCategory[isa.CatMisc]),
			dataBytes.show(run))
	}
	return nil
}
