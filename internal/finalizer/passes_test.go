package finalizer

import (
	"math/rand"
	"testing"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
)

// randomStream builds a random legal straight-line GCN3 block mixing vector
// ALU, scalar ALU and memory operations over a small register set.
func randomStream(rng *rand.Rand, n int) []gcn3.Inst {
	var out []gcn3.Inst
	v := func() gcn3.Operand { return gcn3.VReg(rng.Intn(12)) }
	s := func() gcn3.Operand { return gcn3.SReg(12 + rng.Intn(8)) }
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			out = append(out, gcn3.Inst{Op: gcn3.OpVAdd, Type: isa.TypeU32,
				Dst: v(), SDst: gcn3.VCC(), Srcs: [3]gcn3.Operand{v(), v()}})
		case 1:
			out = append(out, gcn3.Inst{Op: gcn3.OpVMul, Type: isa.TypeF32,
				Dst: v(), Srcs: [3]gcn3.Operand{v(), v()}})
		case 2:
			out = append(out, gcn3.Inst{Op: gcn3.OpSAdd, Type: isa.TypeU32,
				Dst: s(), Srcs: [3]gcn3.Operand{s(), gcn3.Inline(uint32(rng.Intn(32)))}})
		case 3:
			out = append(out, gcn3.Inst{Op: gcn3.OpFlatLoadDword,
				Dst: v(), Srcs: [3]gcn3.Operand{gcn3.VReg(2 * rng.Intn(5))}})
		case 4:
			out = append(out, gcn3.Inst{Op: gcn3.OpFlatStoreDword,
				Srcs: [3]gcn3.Operand{gcn3.VReg(2 * rng.Intn(5)), v()}})
		default:
			out = append(out, gcn3.Inst{Op: gcn3.OpSLoadDword,
				Dst: s(), Srcs: [3]gcn3.Operand{gcn3.SReg(4)}, Offset: int32(4 * rng.Intn(8))})
		}
	}
	out = append(out, gcn3.Inst{Op: gcn3.OpSEndpgm})
	return out
}

// TestSchedulerPreservesDependencesRandomized: for random blocks, every
// RAW/WAR/WAW pair must keep its order after scheduling.
func TestSchedulerPreservesDependencesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		block := randomStream(rng, 3+rng.Intn(30))
		sched := scheduleBlock(append([]gcn3.Inst(nil), block...))
		if len(sched) != len(block) {
			t.Fatalf("iter %d: scheduler dropped instructions: %d != %d", iter, len(sched), len(block))
		}
		// Oracle: walk the SCHEDULED order maintaining last-writer and
		// readers-since maps keyed by ORIGINAL index; verify that for
		// every instruction, all its original-order dependence
		// predecessors already executed.
		origIdx := map[string][]int{}
		for i := range block {
			key := block[i].String()
			origIdx[key] = append(origIdx[key], i)
		}
		// Map scheduled instructions back to original indexes (stable for
		// duplicates).
		taken := map[string]int{}
		schedOrig := make([]int, len(sched))
		for i := range sched {
			key := sched[i].String()
			schedOrig[i] = origIdx[key][taken[key]]
			taken[key]++
		}
		// Build dependence pairs from the original order.
		type pair struct{ a, b int }
		var deps []pair
		lastWriter := map[int]int{}
		readers := map[int][]int{}
		for i := range block {
			reads, writes := regUse(&block[i])
			for _, r := range reads {
				if w, ok := lastWriter[r]; ok {
					deps = append(deps, pair{w, i})
				}
				readers[r] = append(readers[r], i)
			}
			for _, r := range writes {
				if w, ok := lastWriter[r]; ok {
					deps = append(deps, pair{w, i})
				}
				for _, rd := range readers[r] {
					deps = append(deps, pair{rd, i})
				}
				lastWriter[r] = i
				readers[r] = nil
			}
		}
		pos := make([]int, len(block))
		for schedPos, oi := range schedOrig {
			pos[oi] = schedPos
		}
		for _, d := range deps {
			if d.a == d.b {
				continue
			}
			if pos[d.a] >= pos[d.b] {
				t.Fatalf("iter %d: dependence %d->%d violated (%s before %s)",
					iter, d.a, d.b, block[d.b].String(), block[d.a].String())
			}
		}
	}
}

// randomBlocks cuts a random stream into up to four blocks that fall
// through one into the next.
func randomBlocks(rng *rand.Rand, n int) [][]gcn3.Inst {
	insts := randomStream(rng, n)
	var blocks [][]gcn3.Inst
	for len(blocks) < 3 && len(insts) > 1 {
		cut := 1 + rng.Intn(len(insts)-1)
		blocks = append(blocks, insts[:cut])
		insts = insts[cut:]
	}
	return append(blocks, insts)
}

// passesVerify runs the waitcnt and s_nop passes over blocks, scheduled
// first if asked, lays them out as one program, and verifies it.
// randomStream's registers lie below v12 and s20.
func passesVerify(blocks [][]gcn3.Inst, schedule bool) error {
	f := &finalizer{k: &hsail.Kernel{}, out: blocks, numVGPRs: 12, numSGPRs: 20}
	if schedule {
		f.scheduleAll()
	}
	f.insertWaitcnts()
	f.insertNops()
	return Verify(f.object())
}

// TestWaitcntInsertionRandomized: random unscheduled blocks pass Verify
// after the waitcnt and s_nop passes, across their block exits too.
func TestWaitcntInsertionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		if err := passesVerify(randomBlocks(rng, 3+rng.Intn(40)), false); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestNopInsertionRandomized: the same for scheduled blocks, where the
// scheduler has already separated what dependent VALU pairs it could.
func TestNopInsertionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 200; iter++ {
		if err := passesVerify(randomBlocks(rng, 3+rng.Intn(30)), true); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}
