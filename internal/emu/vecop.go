package emu

import (
	"ilsim/internal/gcn3"
	"ilsim/internal/isa"
)

// srcKind says where a lowered vector source operand lives.
type srcKind uint8

const (
	// srcReg is one or two vector register slots; reading them is a VRF
	// access the collector observes.
	srcReg srcKind = iota
	// srcConst is a constant broadcast once, when the engine was loaded.
	srcConst
	// srcScalar is GCN3 scalar state (SGPR, VCC, EXEC, SCC), broadcast into
	// the engine's scratch each time the instruction executes.
	srcScalar
)

// vsrc is a source operand descriptor: everything about the operand that
// does not depend on wavefront state, resolved once at load.
type vsrc struct {
	kind srcKind
	wide bool         // a 64-bit operand: two slots, two halves
	slot uint16       // srcReg
	k    *constLanes  // srcConst
	sop  gcn3.Operand // srcScalar
}

// maskKind says which lane-mask state a maskRef names.
type maskKind uint8

const (
	maskNone maskKind = iota
	// maskCReg is an HSAIL control register. Writes merge under EXEC:
	// inactive lanes keep their old bit.
	maskCReg
	// maskScalar is a GCN3 64-bit scalar operand (VCC or an SGPR pair).
	// Writes replace the whole mask, so only active lanes can be set.
	maskScalar
)

// maskRef names the lane mask a vector instruction consumes (a select
// condition, a carry-in) or produces (a compare result, a carry-out).
type maskRef struct {
	kind   maskKind
	invert bool // read only: the kernel sees the complement
	creg   uint16
	sop    gcn3.Operand
}

func (r *maskRef) read(w *Wave) uint64 {
	var m uint64
	if r.kind == maskCReg {
		m = w.CRegs[r.creg]
	} else {
		m = readScalar(w, r.sop, 2)
	}
	if r.invert {
		m = ^m
	}
	return m
}

func (r *maskRef) write(w *Wave, m uint64) {
	if r.kind == maskCReg {
		w.CRegs[r.creg] = w.CRegs[r.creg]&^uint64(w.Exec) | m
		return
	}
	writeScalar(w, r.sop, 2, m)
}

// vecOp is a vector ALU instruction of either ISA lowered to a kernel call:
// which kernel, where its operands are, where its results go.
type vecOp struct {
	kern laneKernel
	// src lists the sources in the ISA's operand order, the order their
	// register reads are reported in. swap hands the first two to the
	// kernel exchanged (GCN3's "rev" shifts put the amount first).
	src     [3]vsrc
	nsrc    uint8
	swap    bool
	dstW    uint8 // destination width in slots; 0 when only a mask is produced
	dst     uint16
	maskIn  maskRef
	maskOut maskRef
}

// laneUnit is an engine's mutable execution scratch (everything else an
// engine holds after load is immutable): the kernel argument block, one
// broadcast buffer per source position, the per-lane addresses of the memory
// instruction in flight, and the result under construction. Nothing in it
// outlives one Execute, so every compute unit of a device shares it.
type laneUnit struct {
	x     laneArgs
	bc    [3]constLanes
	addrs [isa.WavefrontSize]uint64
	res   ExecResult
}

// tracksVRF is the one per-instruction check that gates every register-file
// hook.
func (c *Collector) tracksVRF() bool {
	return c != nil && c.Run != nil && (c.TrackValues || c.TrackReuse)
}

// vrfAccess reports one operand's register accesses, low slot then high.
// The value-sampling counter makes the order of these calls part of the
// statistics: sources in operand order before the kernel runs (so they
// observe pre-write values), the destination after.
func (c *Collector) vrfAccess(w *Wave, write bool, p lanePair, slot uint16, wide bool) {
	c.OnVRFValue(w, write, p.lo)
	c.OnVRFSlot(w, int(slot))
	if wide {
		c.OnVRFValue(w, write, p.hi)
		c.OnVRFSlot(w, int(slot)+1)
	}
}

// srcPair returns the register arrays of a source operand. A 64-bit kernel
// may read a 32-bit operand's high half: it sees zeros.
func srcPair(regs []lanes, slot uint16, wide bool) lanePair {
	p := lanePair{lo: &regs[slot], hi: &zeroLanes}
	if wide {
		p.hi = &regs[slot+1]
	}
	return p
}

// dstPair returns the register arrays of a destination. A 32-bit
// destination has no high half; lowering only pairs it with kernels that
// write none.
func dstPair(regs []lanes, slot uint16, width uint8) lanePair {
	p := lanePair{lo: &regs[slot]}
	if width == 2 {
		p.hi = &regs[slot+1]
	}
	return p
}

// operand resolves the source at position i to register arrays, reporting
// a register operand's reads when tracked.
func (u *laneUnit) operand(i int, s *vsrc, w *Wave, regs []lanes, col *Collector, tracked bool) lanePair {
	switch s.kind {
	case srcReg:
		p := srcPair(regs, s.slot, s.wide)
		if tracked {
			col.vrfAccess(w, false, p, s.slot, s.wide)
		}
		return p
	case srcConst:
		return lanePair{lo: &s.k.lo, hi: &s.k.hi}
	}
	bc := &u.bc[i]
	if s.wide {
		bc.fill(readScalar(w, s.sop, 2), true, uint64(w.Exec))
		return lanePair{lo: &bc.lo, hi: &bc.hi}
	}
	bc.fill(readScalar(w, s.sop, 1), false, uint64(w.Exec))
	return lanePair{lo: &bc.lo, hi: &zeroLanes}
}

// run executes a lowered vector instruction on the wavefront's register
// file: read hooks, kernel, write hooks, mask result.
func (u *laneUnit) run(v *vecOp, w *Wave, regs []lanes, col *Collector) {
	tracked := col.tracksVRF()
	x := &u.x
	for i := 0; i < int(v.nsrc); i++ {
		x.src[i] = u.operand(i, &v.src[i], w, regs, col, tracked)
	}
	if v.swap {
		x.src[0], x.src[1] = x.src[1], x.src[0]
	}
	if v.dstW != 0 {
		x.dst = dstPair(regs, v.dst, v.dstW)
	}
	if v.maskIn.kind != maskNone {
		x.mask = v.maskIn.read(w)
	}
	m := v.kern(x, uint64(w.Exec))
	if tracked && v.dstW != 0 {
		col.vrfAccess(w, true, x.dst, v.dst, v.dstW == 2)
	}
	if v.maskOut.kind != maskNone {
		v.maskOut.write(w, m)
	}
}
