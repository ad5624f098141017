package core_test

import (
	"testing"

	"ilsim/internal/finalizer"
	"ilsim/internal/gcn3"
	"ilsim/internal/workloads"
)

// TestVerifyRejectsMutants: every suite and ablation kernel at scale 1
// passes finalizer.Verify as loaded, and fails it with one VGPR fewer
// declared or with any one s_nop or s_waitcnt removed: the finalizer
// inserts none that its own rules do not need.
func TestVerifyRejectsMutants(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.Ablations()...) {
		inst, err := w.Prepare(1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, ks := range inst.Kernels {
			co := ks.GCN3
			name := w.Name + "/" + co.Name
			if err := finalizer.Verify(co); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			short := *co
			short.NumVGPRs--
			if finalizer.Verify(&short) == nil {
				t.Errorf("%s: accepted with %d VGPRs declared", name, short.NumVGPRs)
			}
			for i := range co.Program.Insts {
				if op := co.Program.Insts[i].Op; op == gcn3.OpSNop || op == gcn3.OpSWaitcnt {
					if finalizer.Verify(without(co, i)) == nil {
						t.Errorf("%s: accepted without the %s at %d", name, op, i)
					}
				}
			}
		}
	}
}

// without returns co with instruction i removed and the branch targets past
// it moved up.
func without(co *gcn3.CodeObject, i int) *gcn3.CodeObject {
	insts := append(append([]gcn3.Inst(nil), co.Program.Insts[:i]...), co.Program.Insts[i+1:]...)
	for j := range insts {
		if insts[j].Op.IsBranch() && int(insts[j].Target) > i {
			insts[j].Target--
		}
	}
	mut := *co
	mut.Program = &gcn3.Program{Insts: insts}
	return &mut
}
