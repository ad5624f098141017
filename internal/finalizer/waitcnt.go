package finalizer

import "ilsim/internal/gcn3"

// insertWaitcnts adds the software dependency management GCN3 relies on
// instead of a hardware scoreboard (paper §III.B.2): an s_waitcnt before the
// first consumer of every outstanding memory result, with vmcnt counted in
// order and lgkmcnt(0) for scalar memory and LDS, as production compilers
// do. Counts are conservatively drained to zero at every block exit: before
// a branch, barrier or s_endpgm, and otherwise after the block's last
// instruction.
func (f *finalizer) insertWaitcnts() {
	for bi, insts := range f.out {
		out := make([]gcn3.Inst, 0, len(insts)+4)
		var o outstanding
		wait := func(vm, lg int8) {
			if vm >= 0 || lg >= 0 {
				out = append(out, gcn3.Inst{Op: gcn3.OpSWaitcnt, VMCnt: vm, LGKMCnt: lg})
				o.issue(&out[len(out)-1])
			}
		}
		for i := range insts {
			wait(o.need(&insts[i]))
			out = append(out, insts[i])
			o.issue(&insts[i])
		}
		wait(o.drain())
		f.out[bi] = out
	}
}

// Counter capacities: with more than this outstanding on a counter, the next
// instruction waits it down.
const (
	maxVMem = 15
	maxLGKM = 31
)

// outstanding is the memory a wave has issued and not yet waited for, each
// operation as the register resources it writes on completion (none for a
// store). Vector memory completes in issue order; scalar memory and LDS in
// any order, so only lgkmcnt(0) retires any of it. The waitcnt pass asks it
// which wait each instruction needs; Verify asks the same of a finished
// program and requires the answer "none".
type outstanding struct {
	vmem [][]int // oldest first
	lgkm [][]int
}

// need returns the s_waitcnt counts (-1: no wait on that counter) that must
// precede in, unless in is a wait itself: everything at a branch, barrier or
// s_endpgm; otherwise enough to retire every operation whose destination in
// reads or writes, and to bring a counter past its capacity back under it.
func (o *outstanding) need(in *gcn3.Inst) (vm, lg int8) {
	if in.Op == gcn3.OpSWaitcnt {
		return -1, -1
	}
	if in.Op == gcn3.OpSBarrier || in.Op == gcn3.OpSEndpgm || in.Op.IsBranch() {
		return o.drain()
	}
	vm, lg = -1, -1
	if len(o.vmem)+len(o.lgkm) == 0 {
		return vm, lg
	}
	if len(o.vmem) > maxVMem {
		vm = maxVMem - 1
	}
	if len(o.lgkm) > maxLGKM {
		lg = 0
	}
	reads, writes := regUse(in)
	touches := func(dst []int) bool { return overlap(dst, reads) || overlap(dst, writes) }
	for k, dst := range o.vmem {
		if touches(dst) && (vm < 0 || int(vm) > len(o.vmem)-1-k) {
			vm = int8(len(o.vmem) - 1 - k)
		}
	}
	for _, dst := range o.lgkm {
		if touches(dst) {
			lg = 0
		}
	}
	return vm, lg
}

// drain returns the counts that retire everything outstanding.
func (o *outstanding) drain() (vm, lg int8) {
	vm, lg = -1, -1
	if len(o.vmem) > 0 {
		vm = 0
	}
	if len(o.lgkm) > 0 {
		lg = 0
	}
	return vm, lg
}

// issue records in: an s_waitcnt retires what it waits for, and a memory
// operation becomes outstanding.
func (o *outstanding) issue(in *gcn3.Inst) {
	var dst []int
	if !in.Op.IsStore() && (in.Op.IsVMem() || in.Op.IsLGKM()) {
		_, dst = regUse(in)
	}
	switch {
	case in.Op == gcn3.OpSWaitcnt:
		if n := int(in.VMCnt); n >= 0 && n < len(o.vmem) {
			o.vmem = o.vmem[len(o.vmem)-n:]
		}
		if in.LGKMCnt == 0 {
			o.lgkm = nil
		}
	case in.Op.IsVMem():
		o.vmem = append(o.vmem, dst)
	case in.Op.IsLGKM():
		o.lgkm = append(o.lgkm, dst)
	}
}

func overlap(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
