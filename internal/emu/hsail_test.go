package emu

import (
	"testing"

	"ilsim/internal/hsa"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// hsailEngineFor builds a single-wave HSAIL engine for a builder-produced
// kernel.
func hsailEngineFor(t testing.TB, k *hsail.Kernel) (*HSAILEngine, *Wave) {
	t.Helper()
	cfg, err := kernel.AnalyzeCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	ctx := hsa.NewContext()
	pkt := &hsa.AQLPacket{WorkgroupSize: [3]uint16{64, 1, 1}, GridSize: [3]uint32{64, 1, 1}}
	pktAddr := ctx.AllocQueueSlot(hsa.PacketSize)
	b := pkt.Encode()
	ctx.Mem.Write(pktAddr, b[:])
	d, err := hsa.ExpandDispatch(pkt, pktAddr)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewHSAILEngine(ctx, k, cfg, 0x1000, &Collector{})
	wg := NewWGState(d, &d.Workgroups[0], k.GroupSize)
	return eng, eng.NewWave(wg, 0)
}

// runWave executes to completion, returning redirect count and max RS depth.
func runWave(t *testing.T, eng *HSAILEngine, w *Wave) (int, int) {
	t.Helper()
	redirects, maxDepth := 0, 0
	for !w.Done {
		r, err := eng.Execute(w)
		if err != nil {
			t.Fatal(err)
		}
		if r.Redirected {
			redirects++
		}
		if len(w.RS) > maxDepth {
			maxDepth = len(w.RS)
		}
	}
	return redirects, maxDepth
}

// TestRSNestedDivergenceDepth: nested divergent ifs grow the reconvergence
// stack and drain it fully by kernel end.
func TestRSNestedDivergenceDepth(t *testing.T) {
	b := kernel.NewBuilder("nested_rs")
	gid := b.WorkItemAbsID(isa.DimX)
	x := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
	// Each level does work AFTER its inner join so the join blocks have
	// distinct PCs (empty adjacent joins would collapse to one
	// reconvergence point and share a single restore entry).
	b.IfCmp(isa.CmpLt, isa.TypeU32, gid, b.Int(isa.TypeU32, 48), func() {
		b.IfCmp(isa.CmpLt, isa.TypeU32, gid, b.Int(isa.TypeU32, 32), func() {
			b.IfCmp(isa.CmpLt, isa.TypeU32, gid, b.Int(isa.TypeU32, 16), func() {
				b.MovTo(x, b.Int(isa.TypeU32, 3))
			}, nil)
			b.BinaryTo(hsail.OpAdd, x, x, b.Int(isa.TypeU32, 10))
		}, nil)
		b.BinaryTo(hsail.OpAdd, x, x, b.Int(isa.TypeU32, 100))
	}, nil)
	b.Ret()
	eng, w := hsailEngineFor(t, b.MustFinish())
	_, maxDepth := runWave(t, eng, w)
	if maxDepth < 3 {
		t.Errorf("nested divergence reached RS depth %d, want >= 3", maxDepth)
	}
	if len(w.RS) != 0 {
		t.Errorf("RS not drained: %d entries left", len(w.RS))
	}
	if w.Exec != isa.FullMask(64) {
		t.Errorf("exec not restored: %#x", w.Exec)
	}
}

// TestRSUniformPathsNoStack: when every lane agrees, the RS must stay empty.
func TestRSUniformPathsNoStack(t *testing.T) {
	b := kernel.NewBuilder("uniform_rs")
	gid := b.WorkItemAbsID(isa.DimX)
	zero := b.And(isa.TypeU32, gid, b.Int(isa.TypeU32, 0))
	x := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
	b.IfCmp(isa.CmpEq, isa.TypeU32, zero, b.Int(isa.TypeU32, 0), func() {
		b.MovTo(x, b.Int(isa.TypeU32, 1))
	}, func() {
		b.MovTo(x, b.Int(isa.TypeU32, 2))
	})
	b.Ret()
	eng, w := hsailEngineFor(t, b.MustFinish())
	_, maxDepth := runWave(t, eng, w)
	if maxDepth != 0 {
		t.Errorf("uniform branch engaged the RS (depth %d)", maxDepth)
	}
}

// TestRSDivergentLoopBounded: a loop with per-lane trip counts must keep the
// RS bounded (one restore entry) regardless of iteration count.
func TestRSDivergentLoopBounded(t *testing.T) {
	b := kernel.NewBuilder("div_loop_rs")
	gid := b.WorkItemAbsID(isa.DimX)
	limit := b.And(isa.TypeU32, gid, b.Int(isa.TypeU32, 15))
	i := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
	b.WhileCmp(isa.CmpLt, isa.TypeU32, i, limit, func() {
		b.BinaryTo(hsail.OpAdd, i, i, b.Int(isa.TypeU32, 1))
	})
	b.Ret()
	eng, w := hsailEngineFor(t, b.MustFinish())
	_, maxDepth := runWave(t, eng, w)
	// Guard restore + latch restore: depth must NOT grow with iterations.
	if maxDepth > 2 {
		t.Errorf("divergent loop grew the RS to depth %d", maxDepth)
	}
	if w.Exec != isa.FullMask(64) {
		t.Errorf("exec not restored after loop: %#x", w.Exec)
	}
}

// TestHSAILGeometryQueries: all dispatch-geometry ops are serviced from
// simulator state.
func TestHSAILGeometryQueries(t *testing.T) {
	b := kernel.NewBuilder("geom")
	g0 := b.WorkItemAbsID(isa.DimX)
	g1 := b.WorkItemID(isa.DimX)
	g2 := b.WorkGroupID(isa.DimX)
	g3 := b.WorkGroupSize(isa.DimX)
	g4 := b.GridSize(isa.DimX)
	_ = b.Add(isa.TypeU32, b.Add(isa.TypeU32, g0, g1),
		b.Add(isa.TypeU32, g2, b.Add(isa.TypeU32, g3, g4)))
	b.Ret()
	eng, w := hsailEngineFor(t, b.MustFinish())
	// Step the five geometry queries and verify lane values.
	checks := []func(lane int) uint32{
		func(l int) uint32 { return uint32(l) }, // absid (wg 0)
		func(l int) uint32 { return uint32(l) }, // workitemid
		func(l int) uint32 { return 0 },         // workgroupid
		func(l int) uint32 { return 64 },        // workgroupsize
		func(l int) uint32 { return 64 },        // gridsize
	}
	for qi, want := range checks {
		in := eng.flat[(w.PC-eng.Base)/hsail.InstBytes]
		if _, err := eng.Execute(w); err != nil {
			t.Fatal(err)
		}
		slot := int(in.Dst.Reg)
		for lane := 0; lane < 64; lane += 17 {
			if got := w.VRegs[slot][lane]; got != want(lane) {
				t.Fatalf("query %d lane %d: got %d want %d", qi, lane, got, want(lane))
			}
		}
	}
}

// TestHSAILKernargNoMemoryTraffic: kernarg loads are serviced from the
// simulator's dispatch state and must not produce memory-system requests
// (paper Table 2 discussion).
func TestHSAILKernargNoMemoryTraffic(t *testing.T) {
	b := kernel.NewBuilder("kernarg_traffic")
	p := b.ArgPtr("p")
	v := b.LoadArg(p)
	_ = b.Add(isa.TypeU64, v, b.Int(isa.TypeU64, 1))
	b.Ret()
	k := b.MustFinish()
	eng, w := hsailEngineFor(t, k)
	for !w.Done {
		r, err := eng.Execute(w)
		if err != nil {
			t.Fatal(err)
		}
		if r.MemKind != MemNone && len(r.Lines) > 0 {
			t.Fatalf("kernarg kernel produced memory traffic: %v", r.Lines)
		}
	}
}
