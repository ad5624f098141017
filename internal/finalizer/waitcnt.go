package finalizer

import "ilsim/internal/gcn3"

// insertWaitcnts adds the software dependency management GCN3 relies on
// instead of a hardware scoreboard (paper §III.B.2): an s_waitcnt before the
// first consumer of every outstanding memory result.
//
// Vector memory (vmcnt) completes in order, so a consumer of the k-th oldest
// outstanding operation waits with vmcnt(outstanding-1-k). Scalar memory and
// LDS (lgkmcnt) may complete out of order, so consumers wait with lgkmcnt(0),
// matching production compiler behavior. Counts are conservatively drained
// to zero at block boundaries, before barriers, and at kernel end.
func (f *finalizer) insertWaitcnts() {
	for bi, insts := range f.out {
		f.out[bi] = insertWaitcntsBlock(insts)
	}
}

type pendingOp struct {
	// writes are the register resources the operation will write on
	// completion (nil for stores).
	writes []int
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

func insertWaitcntsBlock(insts []gcn3.Inst) []gcn3.Inst {
	out := make([]gcn3.Inst, 0, len(insts)+4)
	var vmem []pendingOp // issue order; completes in order
	var lgkm []pendingOp // may complete out of order

	emitWait := func(vm, lg int8) {
		if n := len(out); n > 0 && out[n-1].Op == gcn3.OpSWaitcnt {
			w := &out[n-1]
			if vm >= 0 && (w.VMCnt < 0 || w.VMCnt > vm) {
				w.VMCnt = vm
			}
			if lg >= 0 && (w.LGKMCnt < 0 || w.LGKMCnt > lg) {
				w.LGKMCnt = lg
			}
			return
		}
		out = append(out, gcn3.Inst{Op: gcn3.OpSWaitcnt, VMCnt: vm, LGKMCnt: lg})
	}
	drainVM := func(upto int) {
		if len(vmem) > upto {
			emitWait(int8(upto), -1)
			vmem = vmem[len(vmem)-upto:]
		}
	}
	drainLGKM := func() {
		if len(lgkm) > 0 {
			emitWait(-1, 0)
			lgkm = nil
		}
	}

	for i := range insts {
		in := insts[i]
		reads, writes := regUse(&in)
		touches := func(p pendingOp) bool {
			return overlap(p.writes, reads) || overlap(p.writes, writes)
		}

		// Wait for any outstanding result this instruction depends on.
		need := -1
		for k := range vmem {
			if touches(vmem[k]) {
				need = k
			}
		}
		if need >= 0 {
			drainVM(len(vmem) - 1 - need)
		}
		for k := range lgkm {
			if touches(lgkm[k]) {
				drainLGKM()
				break
			}
		}

		// Full drains at synchronization and block-exit points.
		if in.Op == gcn3.OpSBarrier || in.Op == gcn3.OpSEndpgm ||
			in.Op.IsBranch() || i == len(insts)-1 {
			drainVM(0)
			drainLGKM()
		}

		out = append(out, in)

		// Record newly outstanding operations.
		switch {
		case in.Op.IsVMem():
			var w []int
			if !in.Op.IsStore() {
				_, w = regUse(&in)
			}
			vmem = append(vmem, pendingOp{writes: w})
			if len(vmem) > 15 {
				drainVM(14)
			}
		case in.Op.IsLGKM():
			var w []int
			if !in.Op.IsStore() {
				_, w = regUse(&in)
			}
			lgkm = append(lgkm, pendingOp{writes: w})
			if len(lgkm) > 31 {
				drainLGKM()
			}
		}
	}
	return out
}
