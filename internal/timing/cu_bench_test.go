package timing

import (
	"testing"

	"ilsim/internal/emu"
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// stubEngine feeds the CU an endless stream of vector-ALU instructions with
// a little VRF operand traffic — the steady-state issue workload, with
// functional execution reduced to a PC bump so the measurement isolates the
// timing pipeline itself.
type stubEngine struct {
	info emu.InstInfo
}

func newStubEngine() *stubEngine {
	e := &stubEngine{info: emu.InstInfo{
		SizeBytes: 4,
		Category:  isa.CatVALU,
		LatClass:  emu.LatALU,
		WaitVM:    -1,
		WaitLGKM:  -1,
	}}
	e.info.VRFReads.Add(0, 2)
	e.info.VRFWrites.Add(2, 1)
	return e
}

func (e *stubEngine) Abstraction() string { return "GCN3" }
func (e *stubEngine) NewWave(wg *emu.WGState, waveID int) *emu.Wave {
	return &emu.Wave{WG: wg, WaveID: waveID, NumLanes: isa.WavefrontSize,
		Exec: isa.FullMask(isa.WavefrontSize)}
}
func (e *stubEngine) Peek(w *emu.Wave) (*emu.InstInfo, error) { return &e.info, nil }
func (e *stubEngine) InstString(pc uint64) string             { return "stub" }
func (e *stubEngine) Execute(w *emu.Wave) (emu.ExecResult, error) {
	w.PC += 4
	return emu.ExecResult{ActiveLanes: isa.WavefrontSize}, nil
}
func (e *stubEngine) CodeBytes() uint64     { return 0 }
func (e *stubEngine) LDSBytes() int         { return 0 }
func (e *stubEngine) RegDemand() (int, int) { return 8, 8 }

// benchCU builds one CU populated with waves that never finish.
func benchCU(waves int) *cu {
	g := NewGPU(DefaultParams(), &stats.Run{})
	eng := newStubEngine()
	d := &hsa.Dispatch{Workgroups: make([]hsa.WorkgroupInfo, 1)}
	d.Workgroups[0] = hsa.WorkgroupInfo{
		Size: waves * isa.WavefrontSize, NumWaves: waves,
	}
	wg := emu.NewWGState(d, &d.Workgroups[0], 0)
	c := g.cus[0]
	c.place(wg, eng)
	return c
}

// cycle runs one CU through a full two-phase cycle: the phase-1 tick plus
// the phase-2 drain that replays its deferred shared-cache accesses as bank
// waves.
func cycle(c *cu, now int64) error {
	if _, err := c.tick(now); err != nil {
		return err
	}
	c.g.drainFlush(now)
	return nil
}

// memStubEngine is stubEngine with the functional work swapped for an
// endless global-load stream over twice the L1D capacity: every data access
// misses L1 and routes down into the banked L2/DRAM buckets, which makes it
// the steady-state workload for the drain's routing path.
type memStubEngine struct {
	stubEngine
	cursor uint64
	lines  [4]uint64
}

func newMemStubEngine() *memStubEngine {
	e := &memStubEngine{stubEngine: *newStubEngine()}
	e.info.Category = isa.CatVMem
	return e
}

func (e *memStubEngine) Execute(w *emu.Wave) (emu.ExecResult, error) {
	w.PC += 4
	const region = 32 << 10 // 2x the default L1D: a cyclic sweep never hits L1
	for i := range e.lines {
		e.lines[i] = e.cursor % region
		e.cursor += 64
	}
	return emu.ExecResult{ActiveLanes: isa.WavefrontSize,
		MemKind: emu.MemGlobal, Lines: e.lines[:]}, nil
}

// benchMemCU builds one CU whose waves stream global loads forever.
func benchMemCU(waves int) *cu {
	g := NewGPU(DefaultParams(), &stats.Run{})
	eng := newMemStubEngine()
	d := &hsa.Dispatch{Workgroups: make([]hsa.WorkgroupInfo, 1)}
	d.Workgroups[0] = hsa.WorkgroupInfo{
		Size: waves * isa.WavefrontSize, NumWaves: waves,
	}
	wg := emu.NewWGState(d, &d.Workgroups[0], 0)
	c := g.cus[0]
	c.place(wg, eng)
	return c
}

// TestDrainRoutingNoAllocs extends the zero-alloc contract to the bucketed
// routing path: a steady stream of L1-missing global loads — append-time
// bank routing, L1→L2→DRAM down-bucket traffic, pending-fill bookkeeping,
// completion reduction — must allocate nothing once the buckets have grown
// to their working size.
func TestDrainRoutingNoAllocs(t *testing.T) {
	c := benchMemCU(8)
	now := int64(0)
	for ; now < 512; now++ {
		if err := cycle(c, now); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := cycle(c, now); err != nil {
			t.Fatal(err)
		}
		now++
	})
	if avg != 0 {
		t.Fatalf("steady-state routed cycle allocates: %v allocs/op, want 0", avg)
	}
	// Sanity: the stream really exercised multiple L2 banks.
	banked := 0
	for b := 0; b < c.g.l2.NumBanks(); b++ {
		if c.g.l2.BankStats(b).Accesses > 0 {
			banked++
		}
	}
	if banked < 2 {
		t.Fatalf("routing exercised %d L2 banks, want >= 2", banked)
	}

	// The sparse steady state of a compute-bound kernel: one or two lines a
	// flush, from a different source each time, each missing all the way to
	// DRAM on a different L2 bank and channel. The per-flush active lists,
	// input wiring and touched-bucket clearing must reuse their storage too.
	p := DefaultParams()
	dram := mem.NewDRAM(p.DRAMChannels, mem.LineSize, p.DRAMLatency, p.DRAMOccupancy)
	l2 := mem.NewCache("L2", p.L2Size, mem.LineSize, p.L2Ways, p.L2HitLatency, true, dram, p.L2Banks)
	var l1s []*mem.Cache
	var srcs []mem.DrainSource
	bufs := make([]mem.RequestBuffer, 4)
	for i := range bufs {
		l1 := mem.NewCache("L1D", p.L1DSize, mem.LineSize, p.L1DWays, p.L1HitLatency, false, l2, 1)
		l1s = append(l1s, l1)
		bufs[i].Register(l1)
		srcs = append(srcs, mem.DrainSource{Buf: &bufs[i], Complete: func(int, int64) {}})
	}
	drain := mem.NewDrain(l1s, srcs, l2, dram)
	flush := int64(0)
	sparse := func() {
		buf := &bufs[flush%4]
		line := uint64(flush) * 3 * mem.LineSize
		buf.AppendLine(0, line, flush%5 == 0, 0)
		if flush%2 == 1 {
			buf.AppendLine(0, line+mem.LineSize, false, 1)
		}
		drain.Flush(flush, nil)
		flush++
	}
	// Warm until every L2 set has evicted, so victim bookkeeping is warm too.
	for flush < 3*int64(p.L2Size/mem.LineSize) {
		sparse()
	}
	if avg := testing.AllocsPerRun(2000, sparse); avg != 0 {
		t.Fatalf("steady-state sparse flush allocates: %v allocs/op, want 0", avg)
	}
	if l2.Stats().Evictions == 0 {
		t.Fatal("sparse stream never evicted from L2")
	}
}

// TestIssueStageNoAllocs pins the allocation invariant the parallel timing
// core inherits from the serial one: once a CU is in steady state, a full
// two-phase cycle — tick (fetch + issue + execute + retire into the request
// buffer) plus drain (deferred cache accesses) — allocates nothing. This is
// exactly the per-worker scratch contract: every buffer involved (order
// scratch, request buffer, pending metadata) is CU-owned and reused.
func TestIssueStageNoAllocs(t *testing.T) {
	c := benchCU(8)
	now := int64(0)
	// Warm past cold-start growth (order scratch, request buffers, cache
	// compulsory misses).
	for ; now < 512; now++ {
		if err := cycle(c, now); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := cycle(c, now); err != nil {
			t.Fatal(err)
		}
		now++
	})
	if avg != 0 {
		t.Fatalf("steady-state cycle allocates: %v allocs/op, want 0", avg)
	}
}

// BenchmarkIssueStage measures the per-cycle cost of one CU's pipeline in
// steady state (8 resident waves issuing vector-ALU work), including the
// phase-2 drain.
func BenchmarkIssueStage(b *testing.B) {
	c := benchCU(8)
	now := int64(0)
	for ; now < 512; now++ {
		if err := cycle(c, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(c, now); err != nil {
			b.Fatal(err)
		}
		now++
	}
}
