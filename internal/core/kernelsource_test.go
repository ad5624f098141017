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

// TestPrepareKernelRefusesDestinationOfWrongKind: a destination is a
// register, and only cmp writes a control register. The finalizer used to
// lower an immediate, argument or control-register destination as HSAIL
// register slot 0, overwriting $s0's register.
func TestPrepareKernelRefusesDestinationOfWrongKind(t *testing.T) {
	for _, in := range []hsail.Inst{
		{Op: hsail.OpMov, Type: isa.TypeU32, Dst: hsail.Imm(5), Srcs: [3]hsail.Operand{hsail.Reg(0)}, NSrc: 1},
		{Op: hsail.OpMov, Type: isa.TypeU32, Dst: hsail.ArgSym(0), Srcs: [3]hsail.Operand{hsail.Reg(0)}, NSrc: 1},
		{Op: hsail.OpAdd, Type: isa.TypeU32, Dst: hsail.CReg(0), Srcs: [3]hsail.Operand{hsail.Reg(0), hsail.Imm(1)}, NSrc: 2},
	} {
		k := &hsail.Kernel{Name: "wrong_dst", NumRegSlots: 1, NumCRegs: 1, Args: []hsail.ArgInfo{{Name: "a", Size: 4}},
			Blocks: []*hsail.Block{{Insts: []hsail.Inst{in, {Op: hsail.OpRet}}}}}
		if err := k.Validate(); err == nil {
			t.Errorf("Validate accepted %s", &in)
		}
		if _, err := PrepareKernel(k, finalizer.Options{}); err == nil {
			t.Errorf("PrepareKernel accepted %s", &in)
		}
	}
}
