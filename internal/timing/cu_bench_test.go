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
func (e *stubEngine) LDSBytes() int         { return 0 }
func (e *stubEngine) RegDemand() (int, int) { return 8, 8 }
func (e *stubEngine) FreeWave(*emu.Wave)    {}

// benchCU builds one CU populated with waves that never finish.
func benchCU(waves int) *cu {
	g := NewGPU(DefaultConfig(), &stats.Run{})
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

// cycle runs one CU through a full two-phase cycle: the phase-1 step
// RunDispatch takes (a tick, or nothing for a sleeping CU) plus the phase-2
// drain that replays its deferred shared-cache accesses level by level.
func cycle(c *cu, now int64) error {
	if _, err := c.step(now); err != nil {
		return err
	}
	c.g.drainFlush(now)
	return nil
}

// memStubEngine is stubEngine with the functional work swapped for an
// endless global-load stream over twice the L1D capacity: every data access
// misses L1 and goes down into the L2 banks' and DRAM channels' queues, which
// makes it the steady-state workload for the drain's replay.
type memStubEngine struct {
	stubEngine
	// region is the span the loads sweep cyclically: twice a cache's
	// capacity never hits in it.
	region uint64
	cursor uint64
	lines  [4]uint64
}

func newMemStubEngine() *memStubEngine {
	e := &memStubEngine{stubEngine: *newStubEngine(), region: 2 * uint64(DefaultConfig().L1DSize)}
	e.info.Category = isa.CatVMem
	return e
}

func (e *memStubEngine) Execute(w *emu.Wave) (emu.ExecResult, error) {
	w.PC += 4
	for i := range e.lines {
		e.lines[i] = e.cursor % e.region
		e.cursor += 64
	}
	return emu.ExecResult{ActiveLanes: isa.WavefrontSize,
		MemKind: emu.MemGlobal, Lines: e.lines[:]}, nil
}

// benchMemCU builds one CU whose waves stream global loads forever.
func benchMemCU(waves int) *cu {
	g := NewGPU(DefaultConfig(), &stats.Run{})
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

// TestDrainRoutingNoAllocs extends the zero-alloc contract to the drain: a
// steady stream of L1-missing global loads — per-destination line lists, the
// L2 banks' and DRAM channels' input queues, pending-fill bookkeeping,
// completion reduction — must allocate nothing once the queues have grown
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
	// DRAM on a different L2 bank and channel. The per-flush lists of queues
	// that received work and the pending-fill lists must reuse their storage
	// too.
	p := DefaultConfig()
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

// blockedStubEngine is the mostly-blocked steady state of a memory-bound
// kernel: waves below ready stream vector-ALU work as under stubEngine; every
// other wave alternates a global load that misses all the way to DRAM with
// the s_waitcnt vmcnt(0) that waits for it, so it spends nearly all its
// cycles parked on the load's completion.
type blockedStubEngine struct {
	memStubEngine
	ready      int
	load, wait emu.InstInfo
}

func newBlockedStubEngine(ready int) *blockedStubEngine {
	e := &blockedStubEngine{ready: ready, memStubEngine: memStubEngine{
		stubEngine: *newStubEngine(), region: 2 * uint64(DefaultConfig().L2Size)}}
	e.load = emu.InstInfo{SizeBytes: 4, Category: isa.CatVMem, IsVMem: true, WaitVM: -1, WaitLGKM: -1}
	e.load.VRFWrites.Add(2, 1)
	e.wait = emu.InstInfo{SizeBytes: 4, Category: isa.CatWaitcnt, LatClass: emu.LatScalar, WaitVM: 0, WaitLGKM: -1}
	return e
}

func (e *blockedStubEngine) loads(w *emu.Wave) bool {
	return w.WaveID >= e.ready && (w.PC/4)%2 == 0
}

func (e *blockedStubEngine) Peek(w *emu.Wave) (*emu.InstInfo, error) {
	switch {
	case w.WaveID < e.ready:
		return &e.info, nil
	case e.loads(w):
		return &e.load, nil
	}
	return &e.wait, nil
}

func (e *blockedStubEngine) Execute(w *emu.Wave) (emu.ExecResult, error) {
	if e.loads(w) {
		return e.memStubEngine.Execute(w)
	}
	return e.stubEngine.Execute(w)
}

// benchBlockedCU builds one CU with a full complement of 40 waves, ready of
// them streaming vector-ALU work and the rest parked on loads.
func benchBlockedCU(ready int) *cu {
	const waves = 40
	g := NewGPU(DefaultConfig(), &stats.Run{})
	d := &hsa.Dispatch{Workgroups: make([]hsa.WorkgroupInfo, 1)}
	d.Workgroups[0] = hsa.WorkgroupInfo{Size: waves * isa.WavefrontSize, NumWaves: waves}
	c := g.cus[0]
	c.place(emu.NewWGState(d, &d.Workgroups[0], 0), newBlockedStubEngine(ready))
	return c
}

// benchInertCU builds one CU whose 40 waves all wait on a load that never
// lands: once their instruction buffers have filled, every tick is a sleeping
// CU's.
func benchInertCU() *cu {
	c := benchBlockedCU(0)
	for _, wv := range c.waves {
		wv.w.PC = 4 // the waiting instruction
		wv.vmemDone = append(wv.vmemDone, 1<<40)
	}
	return c
}

// warm runs c through its first 2048 cycles: cold-start growth (request
// buffers, dependency lists, cache compulsory misses) and, for the blocked
// shapes, several load round trips per wave.
func warm(tb testing.TB, c *cu) (now int64) {
	for ; now < 2048; now++ {
		if err := cycle(c, now); err != nil {
			tb.Fatal(err)
		}
	}
	return now
}

// TestIssueStageNoAllocs pins the timing core's allocation invariant: once
// a CU is in steady state, a full two-phase cycle — tick (fetch + issue +
// execute + retire into the request buffer) plus drain (deferred cache
// accesses) — allocates nothing: every buffer involved (the device's request
// buffer and pending table) is reused. The contract covers every shape a
// tick takes: all waves issuing, most waves asleep and waking as their loads
// land (park, wake, re-park), and a CU asleep as a whole.
func TestIssueStageNoAllocs(t *testing.T) {
	for _, shape := range []struct {
		name string
		c    *cu
	}{
		{"all-ready", benchCU(8)},
		{"mostly-blocked", benchBlockedCU(2)},
		{"inert", benchInertCU()},
	} {
		c := shape.c
		now := warm(t, c)
		// The stub engines commit nothing to the run; operand traffic
		// counts issues and the L1D counts the loads among them.
		issues, loads := c.g.Run.VRFAccesses, c.l1d.Stats().Accesses
		avg := testing.AllocsPerRun(4000, func() {
			if err := cycle(c, now); err != nil {
				t.Fatal(err)
			}
			now++
		})
		if avg != 0 {
			t.Errorf("%s: steady-state cycle allocates: %v allocs/op, want 0", shape.name, avg)
		}
		// Sanity: the shape is what its name says.
		issued, loaded := c.g.Run.VRFAccesses > issues, c.l1d.Stats().Accesses > loads
		switch shape.name {
		case "inert":
			if issued || c.nextEvent != 1<<40 {
				t.Errorf("inert: issued=%v and the CU wakes at %d (now %d)", issued, c.nextEvent, now)
			}
		case "mostly-blocked":
			if !issued || !loaded {
				t.Errorf("mostly-blocked: issued=%v loaded=%v: nothing slept and woke", issued, loaded)
			}
		default:
			if !issued {
				t.Errorf("%s: nothing issued", shape.name)
			}
		}
	}
}

// BenchmarkIssueStage measures the per-cycle cost (ns/op is ns per tick) of
// one CU's pipeline in steady state, including the phase-2 drain, in the two
// shapes that bracket real kernels: ready is 8 resident waves all issuing
// vector-ALU work, blocked is 40 resident waves of which 2 issue and 38 sit
// parked on loads.
func BenchmarkIssueStage(b *testing.B) {
	for _, shape := range []struct {
		name  string
		build func() *cu
	}{
		{"ready", func() *cu { return benchCU(8) }},
		{"blocked", func() *cu { return benchBlockedCU(2) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			c := shape.build()
			now := warm(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cycle(c, now); err != nil {
					b.Fatal(err)
				}
				now++
			}
		})
	}
}
