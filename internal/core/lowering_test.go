package core

import (
	"ilsim/internal/emu"
	"testing"

	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/stats"
)

// runKernelBoth builds, runs under both abstractions with the given setup,
// and compares a u32 output buffer, returning the GCN3 machine.
func runKernelBoth(t *testing.T, k *hsail.Kernel, grid, wg, outWords int,
	args func(out uint64, m *Machine) []uint64, init func(m *Machine)) ([]uint32, []uint32) {
	t.Helper()
	ks, err := PrepareKernel(k, finalizer.Options{})
	if err != nil {
		t.Fatalf("PrepareKernel: %v", err)
	}
	var results [2][]uint32
	for i, abs := range []Abstraction{AbsHSAIL, AbsGCN3} {
		m := NewMachine(abs, &stats.Run{})
		if init != nil {
			init(m)
		}
		out := m.Ctx.AllocBuffer(uint64(4 * outWords))
		if err := m.Submit(Launch{Kernel: ks, Grid: [3]uint32{uint32(grid), 1, 1},
			WG: [3]uint16{uint16(wg), 1, 1}, Args: args(out, m)}); err != nil {
			t.Fatal(err)
		}
		if err := m.RunFunctional(); err != nil {
			t.Fatalf("%s: %v", abs, err)
		}
		results[i] = make([]uint32, outWords)
		for j := range results[i] {
			results[i][j] = m.Ctx.Mem.ReadU32(out + uint64(4*j))
		}
	}
	return results[0], results[1]
}

// TestU32DivRemLowering: the reciprocal-based integer divide sequence must
// be exact for every tested dividend/divisor pair.
func TestU32DivRemLowering(t *testing.T) {
	b := kernel.NewBuilder("u32divrem")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	// Exercise interesting pairs derived from the lane ID.
	a := b.Mad(isa.TypeU32, gid, b.Int(isa.TypeU32, 2654435761), b.Int(isa.TypeU32, 977))
	d := b.Add(isa.TypeU32, b.And(isa.TypeU32, gid, b.Int(isa.TypeU32, 31)), b.Int(isa.TypeU32, 1))
	q := b.Div(isa.TypeU32, a, d)
	r := b.Rem(isa.TypeU32, a, d)
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 3))
	addr := b.Add(isa.TypeU64, b.LoadArg(outArg), off)
	b.Store(hsail.SegGlobal, q, addr, 0)
	b.Store(hsail.SegGlobal, r, addr, 4)
	b.Ret()
	k := b.MustFinish()
	const n = 256
	h, g := runKernelBoth(t, k, n, 64, 2*n,
		func(out uint64, m *Machine) []uint64 { return []uint64{out} }, nil)
	for i := 0; i < n; i++ {
		av := uint32(i)*2654435761 + 977
		dv := uint32(i)&31 + 1
		wantQ, wantR := av/dv, av%dv
		if h[2*i] != wantQ || h[2*i+1] != wantR {
			t.Fatalf("HSAIL[%d]: %d/%d = (%d,%d), want (%d,%d)", i, av, dv, h[2*i], h[2*i+1], wantQ, wantR)
		}
		if g[2*i] != wantQ || g[2*i+1] != wantR {
			t.Fatalf("GCN3[%d]: %d/%d = (%d,%d), want (%d,%d)", i, av, dv, g[2*i], g[2*i+1], wantQ, wantR)
		}
	}
}

// TestCmov64AndIntUnaryLowering: 64-bit conditional moves and integer
// abs/neg sequences.
func TestCmov64AndIntUnaryLowering(t *testing.T) {
	b := kernel.NewBuilder("misc_lowering")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	big := b.Mul(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 0x100000001))
	c := b.Cmp(isa.CmpLt, isa.TypeU32, gid, b.Int(isa.TypeU32, 16))
	sel := b.Cmov(isa.TypeU64, c, big, b.Int(isa.TypeU64, 0x1234567890))
	folded := b.Xor(isa.TypeU32, b.Cvt(isa.TypeU32, sel),
		b.Cvt(isa.TypeU32, b.Shr(isa.TypeU64, sel, b.Int(isa.TypeU64, 32))))
	sgid := b.Cvt(isa.TypeS32, gid)
	neg := b.Neg(isa.TypeS32, sgid)
	abs := b.Abs(isa.TypeS32, neg)
	out := b.Add(isa.TypeU32, folded, b.Add(isa.TypeU32, neg, abs))
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
	b.Store(hsail.SegGlobal, out, b.Add(isa.TypeU64, b.LoadArg(outArg), off), 0)
	b.Ret()
	k := b.MustFinish()
	const n = 64
	h, g := runKernelBoth(t, k, n, 64, n,
		func(out uint64, m *Machine) []uint64 { return []uint64{out} }, nil)
	for i := 0; i < n; i++ {
		var sel uint64
		if i < 16 {
			sel = uint64(i) * 0x100000001
		} else {
			sel = 0x1234567890
		}
		folded := uint32(sel) ^ uint32(sel>>32)
		neg := uint32(-int32(i))
		abs := uint32(i)
		want := folded + neg + abs
		if h[i] != want || g[i] != want {
			t.Fatalf("[%d]: HSAIL %#x GCN3 %#x want %#x", i, h[i], g[i], want)
		}
	}
}

// TestLdaLowering: materialized segment addresses must be loadable.
func TestLdaLowering(t *testing.T) {
	b := kernel.NewBuilder("lda")
	outArg := b.ArgPtr("out")
	b.SetPrivateSize(8)
	gid := b.WorkItemAbsID(isa.DimX)
	// Store through the private segment, reload through a materialized
	// address (lda + flat load).
	v := b.Mul(isa.TypeU32, gid, b.Int(isa.TypeU32, 5))
	b.Store(hsail.SegPrivate, v, kernel.NoBase, 0)
	pa := b.Lda(hsail.SegPrivate, kernel.NoBase, 0)
	got := b.Load(hsail.SegGlobal, isa.TypeU32, pa, 0) // flat access to private memory
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
	b.Store(hsail.SegGlobal, got, b.Add(isa.TypeU64, b.LoadArg(outArg), off), 0)
	b.Ret()
	k := b.MustFinish()
	const n = 128
	h, g := runKernelBoth(t, k, n, 64, n,
		func(out uint64, m *Machine) []uint64 { return []uint64{out} }, nil)
	for i := 0; i < n; i++ {
		want := uint32(i * 5)
		if h[i] != want || g[i] != want {
			t.Fatalf("[%d]: HSAIL %d GCN3 %d want %d", i, h[i], g[i], want)
		}
	}
}

// TestLDSAtomicLowering: ds_add must serialize same-address lanes under
// both abstractions.
func TestLDSAtomicLowering(t *testing.T) {
	b := kernel.NewBuilder("lds_atomic")
	outArg := b.ArgPtr("out")
	b.SetGroupSize(16 * 4)
	lid := b.WorkItemID(isa.DimX)
	// All 64 lanes of a workgroup bump bin (lid & 3): 16 increments per bin.
	bin := b.And(isa.TypeU32, lid, b.Int(isa.TypeU32, 3))
	binOff := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, bin), b.Int(isa.TypeU64, 2))
	old := b.AtomicAdd(hsail.SegGroup, isa.TypeU32, b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 1)), binOff, 0)
	_ = old
	b.Barrier()
	// Lane 0..3 publish the bins.
	gid := b.WorkItemAbsID(isa.DimX)
	b.IfCmp(isa.CmpLt, isa.TypeU32, lid, b.Int(isa.TypeU32, 4), func() {
		v := b.Load(hsail.SegGroup, isa.TypeU32, binOff, 0)
		off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
		b.Store(hsail.SegGlobal, v, b.Add(isa.TypeU64, b.LoadArg(outArg), off), 0)
	}, nil)
	b.Ret()
	k := b.MustFinish()
	const wgs = 2
	h, g := runKernelBoth(t, k, 64*wgs, 64, 64*wgs,
		func(out uint64, m *Machine) []uint64 { return []uint64{out} }, nil)
	for wg := 0; wg < wgs; wg++ {
		for bin := 0; bin < 4; bin++ {
			i := wg*64 + bin
			if h[i] != 16 || g[i] != 16 {
				t.Fatalf("wg %d bin %d: HSAIL %d GCN3 %d, want 16", wg, bin, h[i], g[i])
			}
		}
	}
}

// TestMachinePlumbing: Submit validation and kernel-load deduplication.
func TestMachinePlumbing(t *testing.T) {
	b := kernel.NewBuilder("plumb")
	_ = b.ArgPtr("p")
	b.Ret()
	ks, err := PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(AbsGCN3, &stats.Run{})
	// Wrong arg count.
	if err := m.Submit(Launch{Kernel: ks, Grid: [3]uint32{64, 1, 1}, WG: [3]uint16{64, 1, 1}}); err == nil {
		t.Fatal("wrong arg count accepted")
	}
	// Loading the same kernel twice must not duplicate code.
	b1 := m.Load(ks)
	b2 := m.Load(ks)
	if b1 != b2 {
		t.Fatal("kernel loaded twice")
	}
	// Two valid submits, both dispatchable.
	for i := 0; i < 2; i++ {
		if err := m.Submit(Launch{Kernel: ks, Grid: [3]uint32{64, 1, 1},
			WG: [3]uint16{64, 1, 1}, Args: []uint64{0}}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Pending() != 2 {
		t.Fatalf("pending %d, want 2", m.Pending())
	}
	if err := m.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestCompletionSignals: every dispatch's completion signal must reach zero
// after the queue drains, under both the functional and timed paths.
func TestCompletionSignals(t *testing.T) {
	b := kernel.NewBuilder("signals")
	_ = b.ArgPtr("unused")
	b.Ret()
	ks, err := PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(AbsGCN3, &stats.Run{})
	for i := 0; i < 3; i++ {
		if err := m.Submit(Launch{Kernel: ks, Grid: [3]uint32{64, 1, 1},
			WG: [3]uint16{64, 1, 1}, Args: []uint64{0}}); err != nil {
			t.Fatal(err)
		}
	}
	var sigs []uint64
	for {
		d, eng, err := m.NextDispatch()
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			break
		}
		if d.Packet.CompletionSignal == 0 {
			t.Fatal("dispatch has no completion signal")
		}
		if m.Ctx.Mem.ReadU64(d.Packet.CompletionSignal) != 1 {
			t.Fatal("signal not initialized to 1")
		}
		sigs = append(sigs, d.Packet.CompletionSignal)
		if err := emu.RunFunctional(eng, d); err != nil {
			t.Fatal(err)
		}
		m.CompleteDispatch(d)
	}
	if len(sigs) != 3 {
		t.Fatalf("dispatched %d, want 3", len(sigs))
	}
	for i, s := range sigs {
		if v := m.Ctx.Mem.ReadU64(s); v != 0 {
			t.Fatalf("signal %d not completed: %d", i, int64(v))
		}
	}
}

// TestPartialWaveEquivalence: workgroups that do not fill the last wavefront
// must mask the tail lanes identically under both abstractions.
func TestPartialWaveEquivalence(t *testing.T) {
	b := kernel.NewBuilder("partial")
	outArg := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	v := b.Mad(isa.TypeU32, gid, gid, b.Int(isa.TypeU32, 3))
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
	b.Store(hsail.SegGlobal, v, b.Add(isa.TypeU64, b.LoadArg(outArg), off), 0)
	b.Ret()
	k := b.MustFinish()
	const wg, grid = 80, 160 // 2 waves per workgroup, second has 16 lanes
	h, g := runKernelBoth(t, k, grid, wg, grid+8,
		func(out uint64, m *Machine) []uint64 { return []uint64{out} }, nil)
	for i := 0; i < grid; i++ {
		want := uint32(i*i + 3)
		if h[i] != want || g[i] != want {
			t.Fatalf("[%d]: HSAIL %d GCN3 %d want %d", i, h[i], g[i], want)
		}
	}
	// Lanes beyond the grid must never have stored.
	for i := grid; i < grid+8; i++ {
		if h[i] != 0 || g[i] != 0 {
			t.Fatalf("tail lane %d stored: HSAIL %d GCN3 %d", i, h[i], g[i])
		}
	}
}
