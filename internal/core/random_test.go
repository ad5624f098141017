package core

import (
	"math/rand"
	"slices"
	"testing"

	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/kernel/randkernel"
	"ilsim/internal/stats"
)

// This file is the toolchain's adversarial property suite: it takes random
// structured kernels (package randkernel: arithmetic, predication,
// data-dependent control flow, memory gathers) and requires THREE
// independent executions to agree bit-for-bit:
//
//	1. HSAIL before register allocation (the semantic reference),
//	2. HSAIL after register allocation (checks the allocator's liveness),
//	3. finalized GCN3 machine code (checks the whole finalizer).
//
// Floating-point ops in the generator are restricted to add/mul/fma, whose
// semantics are identical under both ISAs, so comparison stays exact;
// division's Newton-Raphson expansion is covered by dedicated tolerance
// tests elsewhere.

// runRandom executes a kernel functionally under one abstraction, returning
// its output buffer. The input buffer is followed by a guard of one word per
// work-item holding poison, which a kernel that stays in its buffer never
// reads.
func runRandom(t *testing.T, k *hsail.Kernel, abs Abstraction, seed int64, grid int, poison uint32) []uint32 {
	t.Helper()
	ks, err := PrepareKernel(k, finalizer.Options{})
	if err != nil {
		t.Fatalf("seed %d: PrepareKernel: %v", seed, err)
	}
	m := NewMachine(abs, &stats.Run{})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := m.Ctx.AllocBuffer(4 * randkernel.BufWords)
	guard := m.Ctx.AllocBuffer(uint64(4 * grid))
	out := m.Ctx.AllocBuffer(uint64(4 * grid))
	for i := 0; i < randkernel.BufWords; i++ {
		m.Ctx.Mem.WriteU32(in+uint64(4*i), rng.Uint32())
	}
	for i := 0; i < grid; i++ {
		m.Ctx.Mem.WriteU32(guard+uint64(4*i), poison)
	}
	err = m.Submit(Launch{Kernel: ks, Grid: [3]uint32{uint32(grid), 1, 1},
		WG: [3]uint16{64, 1, 1}, Args: []uint64{in, out}})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := m.RunFunctional(); err != nil {
		t.Fatalf("seed %d (%s): %v", seed, abs, err)
	}
	got := make([]uint32, grid)
	for i := range got {
		got[i] = m.Ctx.Mem.ReadU32(out + uint64(4*i))
	}
	return got
}

// TestRandomKernelTripleEquivalence is the toolchain's main property test.
// The larger grid has four work-items per input word, and a rerun with the
// guard poisoned proves that every load stays in the input buffer.
func TestRandomKernelTripleEquivalence(t *testing.T) {
	for _, grid := range []int{128, 4 * randkernel.BufWords} {
		tripleEquivalence(t, grid)
	}
}

func tripleEquivalence(t *testing.T, grid int) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		raw, err := randkernel.Gen(seed, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		alloc, err := randkernel.Gen(seed, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if alloc.NumRegSlots > raw.NumRegSlots {
			t.Fatalf("seed %d: allocation grew registers: %d > %d", seed, alloc.NumRegSlots, raw.NumRegSlots)
		}
		ref := runRandom(t, raw, AbsHSAIL, seed, grid, 0)
		hsailAlloc := runRandom(t, alloc, AbsHSAIL, seed, grid, 0)
		gcn3Alloc := runRandom(t, alloc, AbsGCN3, seed, grid, 0)
		if poisoned := runRandom(t, alloc, AbsGCN3, seed, grid, 0xdeadbeef); !slices.Equal(poisoned, gcn3Alloc) {
			t.Fatalf("seed %d grid %d: the kernel reads past its input buffer\n%s", seed, grid, alloc.Disassemble())
		}
		for i := 0; i < grid; i++ {
			if hsailAlloc[i] != ref[i] {
				t.Fatalf("seed %d grid %d: register allocation changed semantics at lane %d: %#x != %#x\n%s",
					seed, grid, i, hsailAlloc[i], ref[i], alloc.Disassemble())
			}
			if gcn3Alloc[i] != ref[i] {
				t.Fatalf("seed %d grid %d: finalization changed semantics at lane %d: %#x != %#x\n%s",
					seed, grid, i, gcn3Alloc[i], ref[i], alloc.Disassemble())
			}
		}
	}
}

// TestRandomKernelsUnderAblations re-runs a subset of seeds through the
// finalizer's ablation modes, which must also preserve semantics.
func TestRandomKernelsUnderAblations(t *testing.T) {
	const grid = 64
	for seed := int64(0); seed < 12; seed++ {
		k, err := randkernel.Gen(seed, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := runRandomOpts(t, k, seed, grid, finalizer.Options{})
		for name, opts := range map[string]finalizer.Options{
			"no-sched":    {DisableScheduling: true},
			"no-scalar":   {DisableScalarization: true},
			"flatkernarg": {UseFlatKernarg: true},
		} {
			got := runRandomOpts(t, k, seed, grid, opts)
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("seed %d: ablation %s changed semantics at %d", seed, name, i)
				}
			}
		}
	}
}

func runRandomOpts(t *testing.T, k *hsail.Kernel, seed int64, grid int, opts finalizer.Options) []uint32 {
	t.Helper()
	ks, err := PrepareKernel(k, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	m := NewMachine(AbsGCN3, &stats.Run{})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := m.Ctx.AllocBuffer(4 * randkernel.BufWords)
	out := m.Ctx.AllocBuffer(uint64(4 * grid))
	for i := 0; i < randkernel.BufWords; i++ {
		m.Ctx.Mem.WriteU32(in+uint64(4*i), rng.Uint32())
	}
	if err := m.Submit(Launch{Kernel: ks, Grid: [3]uint32{uint32(grid), 1, 1},
		WG: [3]uint16{64, 1, 1}, Args: []uint64{in, out}}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunFunctional(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	got := make([]uint32, grid)
	for i := range got {
		got[i] = m.Ctx.Mem.ReadU32(out + uint64(4*i))
	}
	return got
}
