package finalizer

import (
	"fmt"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
)

// Finalizer-level register spilling.
//
// When a kernel's vector live set exceeds the VGPR budget, the overflow
// slots are homed in scratch memory (the same private-segment arena the
// ABI's s[0:1]/s2 registers describe) instead of failing. Every use of a
// spilled slot loads it into a dedicated staging register before the
// instruction and every definition stores it back after — the classic
// "spill everywhere" discipline real finalizers fall back to under extreme
// pressure, and the machinery behind the paper's observation that FFT and
// LULESH "use special segments to spill and fill because of their large
// register demands".
//
// Spill traffic is ordinary FLAT memory: the address arithmetic, vmcnt
// accounting and cache behavior all show up in the statistics, exactly as
// they do on hardware.

// spillStageRegs is the number of VGPRs reserved for staging spilled
// operands within one instruction: up to three 64-bit sources, a 64-bit
// destination, and a 64-bit address base.
const spillStageRegs = 10

// prepareSpills loads every spilled slot the instruction reads into staging
// registers and reserves staging for spilled destinations, recording the
// overlay that slotOperand consults. It returns the slots the instruction
// writes, for flushSpills.
func (f *finalizer) prepareSpills(e *emitter, in *hsail.Inst) (writes []int) {
	var reads []int
	in.Operands(func(o *hsail.Operand, t isa.DataType, def bool) {
		if o.Kind != hsail.OperReg {
			return
		}
		list := &reads
		if def {
			list = &writes
		}
		for p := 0; p < t.Regs(); p++ {
			*list = append(*list, int(o.Reg)+p)
		}
	})
	f.spillOverlay = map[int]int{}
	stage := f.vSpillBase
	alloc := func(slot int) int {
		u := f.slots[slot]
		width := 1
		if u.pairStart {
			width = 2
		}
		r := stage
		stage += width
		if stage > f.vSpillBase+spillStageRegs {
			panic(fmt.Sprintf("finalizer: spill staging overflow in kernel %q", f.k.Name))
		}
		f.spillOverlay[slot] = r
		if width == 2 {
			f.spillOverlay[slot+1] = r + 1
		}
		return r
	}
	for _, slot := range reads {
		if f.slots[slot].home != homeSpill {
			continue
		}
		if f.slots[slot].pairSecond {
			slot--
		}
		if _, done := f.spillOverlay[slot]; done {
			continue
		}
		r := alloc(slot)
		f.emitSpillAccess(e, slot, r, false)
	}
	for _, slot := range writes {
		if f.slots[slot].home != homeSpill {
			continue
		}
		s := slot
		if f.slots[s].pairSecond {
			s--
		}
		if _, done := f.spillOverlay[s]; done {
			continue
		}
		alloc(s)
	}
	return writes
}

// flushSpills stores spilled destination slots back to scratch.
func (f *finalizer) flushSpills(e *emitter, writes []int) {
	for _, slot := range writes {
		if f.slots[slot].home != homeSpill {
			continue
		}
		s := slot
		if f.slots[s].pairSecond {
			s--
		}
		r, ok := f.spillOverlay[s]
		if !ok {
			continue
		}
		f.emitSpillAccess(e, s, r, true)
		delete(f.spillOverlay, s)
		if f.slots[s].pairStart {
			delete(f.spillOverlay, s+1)
		}
	}
	f.spillOverlay = nil
}

// emitSpillAccess moves one spilled slot between scratch and staging reg r.
func (f *finalizer) emitSpillAccess(e *emitter, slot, r int, store bool) {
	width := 1
	if f.slots[slot].pairStart {
		width = 2
	}
	off := f.slots[slot].spillOff
	// addr = vPrivBase + off (offsets are small positive constants).
	at := e.vtmp(2)
	e.vop2(gcn3.OpVAdd, isa.TypeU32, gcn3.VReg(at),
		constOperand(isa.TypeU32, uint32(off)), gcn3.VReg(f.vPrivBase), gcn3.VCC())
	e.vop2(gcn3.OpVAddc, isa.TypeU32, gcn3.VReg(at+1),
		gcn3.Inline(0), gcn3.VReg(f.vPrivBase+1), gcn3.VCC())
	var op gcn3.Op
	in := gcn3.Inst{Srcs: [3]gcn3.Operand{gcn3.VReg(at)}}
	if store {
		if width == 2 {
			op = gcn3.OpFlatStoreDwordx2
		} else {
			op = gcn3.OpFlatStoreDword
		}
		in.Srcs[1] = gcn3.VReg(r)
	} else {
		if width == 2 {
			op = gcn3.OpFlatLoadDwordx2
		} else {
			op = gcn3.OpFlatLoadDword
		}
		in.Dst = gcn3.VReg(r)
	}
	in.Op = op
	e.emit(in)
}
