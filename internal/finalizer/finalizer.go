// Package finalizer compiles HSAIL kernels to GCN3 machine code — the role
// amdhsafin plays in the paper's toolchain (Figure 4). It is where every
// IL-vs-ISA difference the paper studies is introduced mechanically:
//
//   - ABI expansion: work-item IDs and kernarg addresses become real
//     instruction sequences reading registers and dispatch memory (Tables 1
//     and 2).
//   - Scalarization: uniform values move to the scalar register file and
//     scalar pipeline (§III.B.1).
//   - Control-flow linearization: structured branches become EXEC-mask
//     manipulation with bypass branches only for fully-inactive regions
//     (Figure 3c).
//   - Instruction-set lowering: floating-point division expands into the
//     Newton-Raphson sequence (Table 3); integer division expands into a
//     reciprocal-based sequence; 64-bit address arithmetic becomes explicit
//     add/addc chains (GCN3 FLAT has no immediate offset).
//   - Software dependency management: a list scheduler separates dependent
//     ALU pairs (inserting s_nop when nothing independent exists) and a
//     waitcnt pass inserts s_waitcnt before first uses of loaded values
//     (§III.B.2); Verify checks both rules on every finalized program.
package finalizer

import (
	"fmt"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// Options tune finalization.
type Options struct {
	// MaxVGPRs caps the vector registers available to this kernel
	// (default isa.MaxVGPRs). Demands beyond the cap are an error.
	MaxVGPRs int
	// UseFlatKernarg lowers kernarg loads through vector moves and a flat
	// load (the paper's Table 2 sequence) instead of a scalar load.
	UseFlatKernarg bool
	// DisableScheduling skips the list scheduler (ablation: dependent
	// instructions stay adjacent and cost s_nop padding instead).
	DisableScheduling bool
	// DisableScalarization homes every value in the VRF (ablation).
	DisableScalarization bool
}

func (o Options) withDefaults() Options {
	if o.MaxVGPRs <= 0 {
		o.MaxVGPRs = isa.MaxVGPRs
	}
	return o
}

// Finalize compiles k into a GCN3 code object.
func Finalize(k *hsail.Kernel, opts Options) (*gcn3.CodeObject, error) {
	cfg, err := kernel.AnalyzeCFG(k)
	if err != nil {
		return nil, fmt.Errorf("finalizer: %w", err)
	}
	return FinalizeWithCFG(k, cfg, opts)
}

// FinalizeWithCFG compiles k using a pre-computed CFG analysis.
func FinalizeWithCFG(k *hsail.Kernel, cfg *kernel.CFG, opts Options) (*gcn3.CodeObject, error) {
	opts = opts.withDefaults()
	if !cfg.Reducible {
		return nil, fmt.Errorf("finalizer: kernel %q has irreducible control flow", k.Name)
	}
	f := &finalizer{k: k, cfg: cfg, opts: opts}
	if err := f.run(); err != nil {
		return nil, fmt.Errorf("finalizer: kernel %q: %w", k.Name, err)
	}
	co := f.object()
	if err := Verify(co); err != nil {
		return nil, fmt.Errorf("finalizer: kernel %q: %w", k.Name, err)
	}
	return co, nil
}

// valueHome says where an HSAIL register slot lives after finalization.
type valueHome uint8

const (
	homeVector valueHome = iota // VGPR
	homeScalar                  // SGPR
	homeSpill                   // scratch memory (register-pressure overflow)
)

// slotInfo is the allocation record for one HSAIL 32-bit register slot.
type slotInfo struct {
	home valueHome
	// pairStart marks the first slot of a 64-bit value.
	pairStart bool
	// pairSecond marks the second slot of a 64-bit value.
	pairSecond bool
	// reg is the assigned VGPR or SGPR index.
	reg int
	// spillOff is the slot's scratch offset when home == homeSpill.
	spillOff int
	// used marks slots referenced by any instruction.
	used bool
}

// cregInfo is the allocation record for one HSAIL control register.
type cregInfo struct {
	// fused marks conditions computed by cmp whose only consumer is the
	// block-ending cbr AND whose operands are scalar-homed: these lower to
	// s_cmp + s_cbranch_scc with no stored mask.
	fused bool
	// sreg is the SGPR pair holding the lane mask (when not fused).
	sreg int
}

type finalizer struct {
	k    *hsail.Kernel
	cfg  *kernel.CFG
	opts Options

	uniform      []bool // per slot: value is wavefront-uniform and scalar-homed
	blockUniform []bool // per block: control reaching it is uniform
	cregUniform  []bool

	slots []slotInfo
	cregs []cregInfo

	numVGPRs int
	numSGPRs int

	// Temp registers for lowering sequences, reserved above the mapped set.
	vTempBase int
	sTempBase int
	vTempMax  int
	sTempMax  int

	// Spilling state: staging registers, per-instruction overlay, and
	// scratch bytes consumed by spilled slots.
	vSpillBase   int
	spillOverlay map[int]int
	spillBytes   int

	// Loop save registers, keyed by latch block.
	loopSave map[int]int
	// If/else save registers, keyed by branch block.
	condSave map[int]int
	// dropBr marks blocks whose unconditional terminator is replaced by
	// fall-through into an else flip prefix.
	dropBr map[int]bool

	// Cached ABI-derived values.
	idDims     int  // work-item ID VGPRs the ABI must initialize (1-3)
	useAbsID   bool // kernel needs the flat absolute work-item ID
	vAbsID     int  // VGPR holding it
	usePrivate bool // kernel accesses private/spill segments
	vPrivBase  int  // VGPR pair: per-lane scratch base address

	// Output: per HSAIL block, the lowered instruction list.
	out [][]gcn3.Inst

	// spillOffset is where the HSAIL spill segment starts within the
	// finalized per-work-item scratch allocation.
	spillOffset int
}

func (f *finalizer) run() error {
	f.analyzeUniformity()
	if err := f.allocate(); err != nil {
		return err
	}
	if err := f.lowerAll(); err != nil {
		return err
	}
	if !f.opts.DisableScheduling {
		f.scheduleAll()
	}
	f.insertWaitcnts()
	f.insertNops()
	return f.checkLimits()
}

func (f *finalizer) checkLimits() error {
	if f.numVGPRs+f.vTempMax > f.opts.MaxVGPRs {
		return fmt.Errorf("VGPR demand %d exceeds budget %d even after spilling",
			f.numVGPRs+f.vTempMax, f.opts.MaxVGPRs)
	}
	if f.numSGPRs+f.sTempMax > isa.MaxSGPRs {
		return fmt.Errorf("SGPR demand %d exceeds budget %d", f.numSGPRs+f.sTempMax, isa.MaxSGPRs)
	}
	return nil
}

// object assembles the final code object: block lists are concatenated,
// block-id branch targets resolved to instruction indexes, and the program
// laid out at its true encoded sizes.
func (f *finalizer) object() *gcn3.CodeObject {
	var prog gcn3.Program
	blockStart := make([]int, len(f.out)+1)
	for bi, insts := range f.out {
		blockStart[bi] = len(prog.Insts)
		prog.Insts = append(prog.Insts, insts...)
	}
	blockStart[len(f.out)] = len(prog.Insts)
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if in.Op.IsBranch() && in.Target < 0 {
			in.Target = int32(blockStart[-in.Target-1])
		}
	}
	prog.Layout()
	return &gcn3.CodeObject{
		Name:           f.k.Name,
		NumVGPRs:       f.numVGPRs + f.vTempMax,
		NumSGPRs:       f.numSGPRs + f.sTempMax,
		KernargSize:    f.k.KernargSize,
		GroupSize:      f.k.GroupSize,
		PrivateSize:    f.k.PrivateSize + f.k.SpillSize + f.spillBytes,
		WorkItemIDDims: f.idDims,
		Program:        &prog,
	}
}

// Verify checks a finalized program against the rules its software
// dependency management (§III.B.2) promises, which no execution shows since
// the emulator reads a load's value at issue: nothing outstanding at a
// branch, s_barrier, s_endpgm or the program's end; no instruction touching
// the destination of an outstanding memory operation; no VALU touching what
// the VALU just before it wrote. It also requires every register operand to
// lie below the declared NumVGPRs/NumSGPRs, which size the wave's register
// files and its occupancy.
//
// One linear walk is exact. Every taken edge leaves a branch, which finds
// nothing outstanding, so a branch target's state is its fallthrough state;
// and a branch is never a VALU, so a dependent pair only meets on a
// fallthrough.
func Verify(co *gcn3.CodeObject) error {
	insts := co.Program.Insts
	var o outstanding
	for i := range insts {
		in := &insts[i]
		var err error
		in.Operands(func(op gcn3.Operand, regs int, _ bool) {
			if end := int(op.Index) + regs; op.Kind == gcn3.OperVGPR && end > co.NumVGPRs ||
				op.Kind == gcn3.OperSGPR && end > co.NumSGPRs {
				err = fmt.Errorf("inst %d (%s) names a register beyond the declared %d VGPRs, %d SGPRs",
					i, in.String(), co.NumVGPRs, co.NumSGPRs)
			}
		})
		if err != nil {
			return err
		}
		if vm, lg := o.need(in); vm >= 0 || lg >= 0 {
			w := gcn3.Inst{Op: gcn3.OpSWaitcnt, VMCnt: vm, LGKMCnt: lg}
			return fmt.Errorf("inst %d (%s) needs %s first", i, in.String(), w.String())
		}
		if i > 0 && needsGap(&insts[i-1], in) {
			return fmt.Errorf("inst %d (%s) issues right after the VALU it depends on (%s)",
				i, in.String(), insts[i-1].String())
		}
		o.issue(in)
	}
	if vm, lg := o.drain(); vm >= 0 || lg >= 0 {
		return fmt.Errorf("program ends with memory operations outstanding")
	}
	return nil
}

// blockTarget encodes a block-id branch target as a negative placeholder,
// resolved by object().
func blockTarget(block int) int32 { return int32(-(block + 1)) }
