package core

import (
	"testing"

	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
)

// TestPrepareKernelRefusesRegisterOfNoWidth: a register operand whose type
// spans no slot, at the slot just past the declared demand, is an error
// from PrepareKernel. It used to pass validation and the BRIG round trip
// and then index past the uniformity analysis's slot table.
func TestPrepareKernelRefusesRegisterOfNoWidth(t *testing.T) {
	k := &hsail.Kernel{Name: "none_width", NumRegSlots: 2, Blocks: []*hsail.Block{{Insts: []hsail.Inst{
		{Op: hsail.OpMov, Type: isa.TypeNone, Dst: hsail.Reg(2), Srcs: [3]hsail.Operand{hsail.Reg(2)}, NSrc: 1},
		{Op: hsail.OpRet},
	}}}}
	if _, err := PrepareKernel(k, finalizer.Options{}); err == nil {
		t.Fatal("PrepareKernel accepted a register operand of no width")
	}
}
