package finalizer

import (
	"ilsim/internal/gcn3"
	"ilsim/internal/isa"
)

// Resource numbering for dependence analysis: VGPRs, then SGPRs, then the
// special registers and a single memory token.
const (
	resSGPRBase = 1000
	resVCC      = 2000
	resEXEC     = 2001
	resSCC      = 2002
	resMEM      = 2003
)

// regUse extracts the resources an instruction reads and writes: its
// explicit operands, then the state it touches implicitly.
func regUse(in *gcn3.Inst) (reads, writes []int) {
	reads, writes = make([]int, 0, 8), make([]int, 0, 4)
	in.Operands(func(o gcn3.Operand, width int, def bool) {
		list := &reads
		if def {
			list = &writes
		}
		switch o.Kind {
		case gcn3.OperVGPR:
			for i := 0; i < width; i++ {
				*list = append(*list, int(o.Index)+i)
			}
		case gcn3.OperSGPR:
			for i := 0; i < width; i++ {
				*list = append(*list, resSGPRBase+int(o.Index)+i)
			}
		case gcn3.OperVCC:
			*list = append(*list, resVCC)
		case gcn3.OperEXEC:
			*list = append(*list, resEXEC)
		case gcn3.OperSCC:
			*list = append(*list, resSCC)
		}
	})

	cat := in.Op.Category()
	switch {
	case cat == isa.CatVALU || cat == isa.CatVMem || cat == isa.CatLDS:
		// Vector operations execute under the mask.
		reads = append(reads, resEXEC)
	}
	switch in.Op {
	case gcn3.OpVAddc:
		reads = append(reads, resVCC)
	case gcn3.OpVDivFmas:
		reads = append(reads, resVCC)
	case gcn3.OpSAddc, gcn3.OpSCbranchSCC0, gcn3.OpSCbranchSCC1:
		reads = append(reads, resSCC)
	case gcn3.OpSCbranchVCCZ, gcn3.OpSCbranchVCCNZ:
		reads = append(reads, resVCC)
	case gcn3.OpSCbranchExecZ, gcn3.OpSCbranchExecNZ:
		reads = append(reads, resEXEC)
	case gcn3.OpSCmp:
		writes = append(writes, resSCC)
	case gcn3.OpSAndSaveexec, gcn3.OpSOrSaveexec:
		reads = append(reads, resEXEC)
		writes = append(writes, resEXEC, resSCC)
	}
	// Scalar ALU ops set SCC in this ISA model.
	if cat == isa.CatSALU && in.Op != gcn3.OpSMov {
		writes = append(writes, resSCC)
	}
	// Memory ordering: loads read the memory token, stores/atomics write it.
	switch cat {
	case isa.CatVMem, isa.CatSMem, isa.CatLDS:
		if in.Op.IsStore() || in.Op == gcn3.OpFlatAtomicAdd {
			writes = append(writes, resMEM)
		} else {
			reads = append(reads, resMEM)
		}
	}
	return reads, writes
}

// isSchedBarrier reports instructions that must not move.
func isSchedBarrier(op gcn3.Op) bool {
	return op == gcn3.OpSBarrier || op == gcn3.OpSWaitcnt || op.IsBranch() || op == gcn3.OpSEndpgm
}

// scheduleAll list-schedules every block: dependence-legal reordering that
// prefers NOT issuing an instruction directly dependent on its predecessor,
// the finalizer behavior the paper credits for GCN3's lower VRF contention
// and longer register reuse distance (§V.B).
func (f *finalizer) scheduleAll() {
	for bi := range f.out {
		f.out[bi] = scheduleBlock(f.out[bi])
	}
}

func scheduleBlock(insts []gcn3.Inst) []gcn3.Inst {
	n := len(insts)
	if n < 3 {
		return insts
	}
	// Build the dependence graph.
	succs := make([][]int, n)
	npreds := make([]int, n)
	lastWriter := map[int]int{}
	readersSince := map[int][]int{}
	var barrier = -1 // last scheduling-barrier instruction
	addEdge := func(from, to int) {
		if from == to {
			return
		}
		succs[from] = append(succs[from], to)
		npreds[to]++
	}
	for i := 0; i < n; i++ {
		in := &insts[i]
		reads, writes := regUse(in)
		if barrier >= 0 {
			addEdge(barrier, i)
		}
		if isSchedBarrier(in.Op) {
			// Order against everything before it.
			for j := 0; j < i; j++ {
				addEdge(j, i)
			}
			barrier = i
		}
		for _, r := range reads {
			if w, ok := lastWriter[r]; ok {
				addEdge(w, i) // RAW
			}
			readersSince[r] = append(readersSince[r], i)
		}
		for _, r := range writes {
			if w, ok := lastWriter[r]; ok {
				addEdge(w, i) // WAW
			}
			for _, rd := range readersSince[r] {
				addEdge(rd, i) // WAR
			}
			lastWriter[r] = i
			readersSince[r] = nil
		}
	}
	// Deduplicate edge counts.
	for i := range succs {
		seen := map[int]bool{}
		var uniq []int
		for _, s := range succs[i] {
			if !seen[s] {
				seen[s] = true
				uniq = append(uniq, s)
			} else {
				npreds[s]--
			}
		}
		succs[i] = uniq
	}

	// Greedy list scheduling: among ready instructions, prefer the lowest
	// original index that does NOT depend on the just-issued instruction.
	ready := make([]bool, n)
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		ready[i] = npreds[i] == 0
	}
	dependsOnPrev := func(prev, i int) bool {
		if prev < 0 {
			return false
		}
		for _, s := range succs[prev] {
			if s == i {
				return true
			}
		}
		return false
	}
	out := make([]gcn3.Inst, 0, n)
	prev := -1
	for len(out) < n {
		pick := -1
		fallback := -1
		for i := 0; i < n; i++ {
			if !ready[i] || done[i] {
				continue
			}
			if fallback < 0 {
				fallback = i
			}
			if !dependsOnPrev(prev, i) {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = fallback
		}
		done[pick] = true
		out = append(out, insts[pick])
		for _, s := range succs[pick] {
			npreds[s]--
			if npreds[s] == 0 {
				ready[s] = true
			}
		}
		prev = pick
	}
	return out
}

// insertNops pads the remaining adjacent VALU register dependences with
// s_nop — "for deterministic latencies, the finalizer will insert
// independent or NOP instructions between dependent instructions" (§III.B.2).
// The shared timing model gives VALU results a one-issue-slot shadow; GCN3
// code must therefore never issue a dependent VALU back-to-back, also across
// a block exit: the previous instruction carries over in layout order.
func (f *finalizer) insertNops() {
	var prev *gcn3.Inst
	for bi, insts := range f.out {
		var out []gcn3.Inst
		for i := range insts {
			if prev != nil && needsGap(prev, &insts[i]) {
				out = append(out, gcn3.Inst{Op: gcn3.OpSNop, VMCnt: -1, LGKMCnt: -1})
			}
			out = append(out, insts[i])
			prev = &insts[i]
		}
		f.out[bi] = out
	}
}

// needsGap reports a VALU→VALU register dependence between adjacent
// instructions.
func needsGap(prev, cur *gcn3.Inst) bool {
	if prev.Op.Category() != isa.CatVALU || cur.Op.Category() != isa.CatVALU {
		return false
	}
	_, writes := regUse(prev)
	reads, curWrites := regUse(cur)
	for _, w := range writes {
		if w == resEXEC {
			continue
		}
		for _, r := range reads {
			if r == w {
				return true
			}
		}
		for _, r := range curWrites {
			if r == w {
				return true
			}
		}
	}
	return false
}
