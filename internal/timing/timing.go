// Package timing implements the shared compute-unit timing model of the
// paper's Figure 2 / Table 4: per-CU wavefront slots feeding four 16-lane
// SIMD engines, one scalar unit, a banked vector register file with an
// operand-collector conflict model, per-wavefront instruction buffers fed by
// a shared instruction cache, and local/global memory pipelines into a
// two-level cache hierarchy with channeled DRAM.
//
// One model times BOTH abstractions. The ISA-visible differences live in the
// engines (package emu) and in two mode-dependent mechanisms the paper calls
// out explicitly:
//
//   - HSAIL needs a hardware scoreboard: issue stalls until every operand
//     register's pending write has completed, "even though the logic does
//     not exist in the actual GPU" (§III.B.2).
//   - GCN3 relies on finalizer-inserted s_waitcnt/s_nop: issue stalls only
//     at explicit waitcnt bounds, tracked by in-order vmcnt/lgkmcnt counters.
package timing

import (
	"context"
	"errors"
	"fmt"

	"ilsim/internal/emu"
	"ilsim/internal/hsa"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// ErrBudgetExceeded marks a run aborted because it exhausted its cycle or
// instruction budget (Watchdog.MaxCycles / Watchdog.MaxInsts). It is the
// mechanism that bounds a runaway or livelocked simulation; core and the
// experiment engine re-export it so callers can classify the failure with
// errors.Is at any layer.
var ErrBudgetExceeded = errors.New("simulation budget exceeded")

// DefaultCheckEvery is the watchdog check period in simulated cycles when
// Watchdog.CheckEvery is unset. The check is a context poll plus two integer
// comparisons, so even the default keeps overhead far below the per-cycle
// model cost while bounding kill latency to ~1k cycles.
const DefaultCheckEvery = 1024

// Watchdog bounds a GPU run cooperatively: every CheckEvery simulated
// cycles (and once at each dispatch entry) the timing loop polls the
// context and the budgets instead of running open-loop. A zero Watchdog
// disables all checks.
type Watchdog struct {
	// Ctx, when non-nil, cancels the run: the first check after the
	// context ends aborts the dispatch with the context's cause.
	Ctx context.Context
	// MaxCycles bounds total simulated cycles since the device was built
	// or last Reset (0 = unlimited).
	MaxCycles int64
	// MaxInsts bounds committed wavefront instructions (0 = unlimited).
	MaxInsts uint64
	// CheckEvery is the check period in cycles (0 = DefaultCheckEvery).
	CheckEvery int64
}

func (w Watchdog) enabled() bool {
	return w.Ctx != nil || w.MaxCycles > 0 || w.MaxInsts > 0
}

func (w Watchdog) every() int64 {
	if w.CheckEvery > 0 {
		return w.CheckEvery
	}
	return DefaultCheckEvery
}

// check reports why the run must stop, or nil to continue. insts is the
// committed-instruction total (only consulted when MaxInsts is set; callers
// may pass 0 otherwise).
func (w Watchdog) check(now int64, insts uint64) error {
	if w.Ctx != nil && w.Ctx.Err() != nil {
		return fmt.Errorf("timing: run canceled at cycle %d: %w", now, context.Cause(w.Ctx))
	}
	if w.MaxCycles > 0 && now >= w.MaxCycles {
		return fmt.Errorf("timing: %w: %d cycles >= budget %d", ErrBudgetExceeded, now, w.MaxCycles)
	}
	if w.MaxInsts > 0 && insts >= w.MaxInsts {
		return fmt.Errorf("timing: %w: %d instructions >= budget %d", ErrBudgetExceeded, insts, w.MaxInsts)
	}
	return nil
}

// Params configures the timing model (core.Config maps onto it).
type Params struct {
	NumCUs     int
	SIMDsPerCU int
	WFSlots    int
	VRFBanks   int
	// IBBytes is the per-wavefront instruction-buffer capacity in bytes.
	IBBytes int
	// FetchWidth is the number of wavefront fetch requests a CU may start
	// per cycle.
	FetchWidth int
	// LDSLatency is the LDS access latency, cycles, before bank conflicts.
	LDSLatency int64

	// Cache geometry.
	L1DSize, L1DWays           int
	L1ISize, L1IWays           int
	ScalarL1Size, ScalarL1Ways int
	L2Size, L2Ways             int
	// L2Banks set-interleaves the shared L2 into independent banks, each
	// with its own request port (DRAM channels are banks of their own
	// already).
	L2Banks          int
	L1HitLatency     int64
	L2HitLatency     int64
	ScalarHitLatency int64
	DRAMChannels     int
	DRAMLatency      int64
	DRAMOccupancy    int64
}

// The model's fixed parameters, which no configuration changes.
const (
	// vrfRegsPerCU / srfRegsPerCU bound occupancy (Table 4: 2048/800).
	vrfRegsPerCU = 2048
	srfRegsPerCU = 800

	// Execution latencies (cycles from issue to result availability).
	aluLatency    = 8
	alu64Latency  = 12
	transLatency  = 16
	scalarLatency = 1
	branchLatency = 4

	// Issue occupancies (cycles a unit stays busy per instruction).
	simdIssueCycles   = 4
	vmemIssueCycles   = 4
	scalarIssueCycles = 1

	// launchOverhead is the packet-processor cost per dispatch, cycles.
	launchOverhead = 1500
)

// DefaultParams returns the Table 4 machine with this model's latencies.
func DefaultParams() Params {
	return Params{
		NumCUs: 8, SIMDsPerCU: 4, WFSlots: 40, VRFBanks: 16,
		IBBytes: 64, FetchWidth: 1,
		LDSLatency: 8,
		L1DSize:    16 << 10, L1DWays: 0,
		L1ISize: 16 << 10, L1IWays: 8,
		ScalarL1Size: 32 << 10, ScalarL1Ways: 8,
		L2Size: 512 << 10, L2Ways: 16, L2Banks: 8,
		L1HitLatency: 16, L2HitLatency: 64, ScalarHitLatency: 16,
		DRAMChannels: 32, DRAMLatency: 160, DRAMOccupancy: 4,
	}
}

// GPU is the timed device: CUs plus the shared memory system.
type GPU struct {
	P   Params
	Run *stats.Run
	// WD bounds the run (cancellation and budgets); set it before the
	// first RunDispatch. The zero value runs unbounded.
	WD Watchdog
	// NoSkip switches every level of skipping off — sleeping waves, sleeping
	// CUs, GPU-wide jumps over inert spans: every CU ticks every cycle and
	// every tick visits every resident wave. Results are byte-identical
	// either way (the determinism tests assert it); the flag exists for
	// debugging and as those tests' oracle.
	NoSkip bool

	cus  []*cu
	l2   *mem.Cache
	dram *mem.DRAM
	// iCaches / sCaches are shared per 4 CUs (Table 4).
	iCaches []*mem.Cache
	sCaches []*mem.Cache

	// reqs/pend hold the cycle's deferred shared-cache accesses of every CU,
	// in tick order: the lines, routed by level-1 cache, and per request
	// what its completion feeds (indexed by the request's tag). drain
	// replays them through the banked hierarchy in level order (see
	// mem.Drain) and completes them through complete.
	reqs  mem.RequestBuffer
	pend  []pendReq
	drain *mem.Drain

	now int64
	// wdTick counts cycles toward the next watchdog check; it persists
	// across dispatches so short kernels cannot starve the watchdog.
	wdTick int64
	// events, when set, is told what the timing loop did. Only tests set
	// it (export_test.go); Reset clears it.
	events sink
}

// sink receives the timing loop's events: a wave a tick skipped as asleep,
// a CU's sleep as the span of cycles [from, until) that cu.settle charges,
// and what each real tick visited (waves its pass visited, and how many of
// them went through the issue stage's eligibility checks). With no sink set
// each event costs a nil check.
type sink interface {
	waveAsleep(c *cu, wv *waveCtx, now int64)
	cuAsleep(c *cu, from, until int64)
	ticked(c *cu, visited, checked int)
}

// NewGPU builds the device: it allocates the storage p sizes — cache banks,
// DRAM channels, CUs, the drain's wiring — and arms it with Reset.
func NewGPU(p Params, run *stats.Run) *GPU {
	g := &GPU{P: p}
	g.dram = mem.NewDRAM(p.DRAMChannels, mem.LineSize, p.DRAMLatency, p.DRAMOccupancy)
	g.l2 = mem.NewCache("L2", p.L2Size, mem.LineSize, p.L2Ways, p.L2HitLatency, true, g.dram, p.L2Banks)
	nShared := (p.NumCUs + 3) / 4
	for i := 0; i < nShared; i++ {
		g.iCaches = append(g.iCaches, mem.NewCache(fmt.Sprintf("L1I%d", i),
			p.L1ISize, mem.LineSize, p.L1IWays, p.L1HitLatency, false, g.l2, 1))
		g.sCaches = append(g.sCaches, mem.NewCache(fmt.Sprintf("sL1%d", i),
			p.ScalarL1Size, mem.LineSize, p.ScalarL1Ways, p.ScalarHitLatency, false, g.l2, 1))
	}
	for i := 0; i < p.NumCUs; i++ {
		c := &cu{g: g, id: i}
		c.l1d = mem.NewCache(fmt.Sprintf("L1D%d", i),
			p.L1DSize, mem.LineSize, p.L1DWays, p.L1HitLatency, false, g.l2, 1)
		c.l1i = g.iCaches[i/4]
		c.sl1 = g.sCaches[i/4]
		c.l1dDest = g.reqs.Register(c.l1d)
		c.l1iDest = g.reqs.Register(c.l1i)
		c.sl1Dest = g.reqs.Register(c.sl1)
		g.cus = append(g.cus, c)
	}
	// Wire the drain: level-1 caches in replay order (per-CU L1Ds, then the
	// shared I- and scalar caches). This order, and the CUs ticking in index
	// order, define each bank's replay sequence.
	l1s := make([]*mem.Cache, 0, p.NumCUs+2*nShared)
	for _, c := range g.cus {
		l1s = append(l1s, c.l1d)
	}
	l1s = append(l1s, g.iCaches...)
	l1s = append(l1s, g.sCaches...)
	g.drain = mem.NewDrain(l1s, []mem.DrainSource{{Buf: &g.reqs, Complete: g.complete}}, g.l2, g.dram)
	g.Reset(p, run)
	return g
}

// Reset re-arms the device for a new run under p, collecting into run (a
// private record when run is nil), and reports whether it could: false, with
// the device untouched, when p sizes storage differently from what NewGPU
// allocated (a cache's size or ways, the L2's banks, the DRAM channels, the
// CU count). Everything else in p — VRF banks, SIMDs, wavefront slots, the
// instruction buffer, every latency — is rearmed in place. After a true
// return the device is what NewGPU(p, run) returns, down to the fingerprint
// of whatever runs on it, and holds nothing of the runs before: it is the
// only list of the state a run leaves behind (NewGPU arms through it), and
// TestResetMatchesFresh polices it.
func (g *GPU) Reset(p Params, run *stats.Run) bool {
	if o := &g.P; p.NumCUs != o.NumCUs || p.DRAMChannels != o.DRAMChannels ||
		p.L1DSize != o.L1DSize || p.L1DWays != o.L1DWays ||
		p.L1ISize != o.L1ISize || p.L1IWays != o.L1IWays ||
		p.ScalarL1Size != o.ScalarL1Size || p.ScalarL1Ways != o.ScalarL1Ways ||
		p.L2Size != o.L2Size || p.L2Ways != o.L2Ways || p.L2Banks != o.L2Banks {
		return false
	}
	if run == nil {
		run = &stats.Run{}
	}
	g.P, g.Run = p, run
	g.WD, g.NoSkip = Watchdog{}, false
	g.now, g.wdTick = 0, 0
	g.events = nil

	g.dram.Reset()
	g.dram.Latency, g.dram.Occupancy = p.DRAMLatency, p.DRAMOccupancy
	rearm := func(c *mem.Cache, hitLatency int64) {
		c.Reset()
		c.SetHitLatency(hitLatency)
	}
	rearm(g.l2, p.L2HitLatency)
	for i := range g.iCaches {
		rearm(g.iCaches[i], p.L1HitLatency)
		rearm(g.sCaches[i], p.ScalarHitLatency)
	}
	g.drain.Reset() // the request buffer included
	g.release()
	for _, c := range g.cus {
		rearm(c.l1d, p.L1HitLatency)
		c.reset()
	}
	return true
}

// release drops what the device holds of the run that ended: the
// pending-request table and the CUs' wave lists, cleared to their capacity —
// the slots past their length still point at the run's waves, and through
// them at its engine and memory image.
func (g *GPU) release() {
	clear(g.pend[:cap(g.pend)])
	g.pend = g.pend[:0]
	for _, c := range g.cus {
		c.release()
	}
}

// drainFlush replays the cycle's deferred cache accesses through the
// banked hierarchy (see mem.Drain) and empties the pending-request table
// the completions indexed into.
func (g *GPU) drainFlush(now int64) {
	g.drain.Flush(now, nil)
	g.pend = g.pend[:0]
}

// wdInsts returns the instruction total for a watchdog check, skipping the
// count when no instruction budget is set.
func (g *GPU) wdInsts() uint64 {
	if g.WD.MaxInsts == 0 {
		return 0
	}
	return g.Run.TotalInsts()
}

// RunDispatch executes one dispatch to completion on the timed model and
// returns the cycles it took.
//
// Each cycle is two phases. Phase 1 ticks the CUs in index order — fetch
// scheduling, issue, functional execution on eng — each CU appending its
// accesses to the shared cache hierarchy to the device's request buffer
// instead of applying them: no CU consumes a cache result in the cycle that
// requested it. Phase 2 replays the buffer level by level (L1 caches, then
// L2 banks in ascending order, then DRAM channels, then the cycle's
// dirty-victim write-backs — see mem.Drain); that order is the memory
// model's semantics.
//
// A cycle costs what the waves that can act in it cost: a wave sleeps until
// its wakeAt, a CU until the earliest of its waves' (cu.step), and when every
// CU is asleep the loop jumps to the earliest of theirs (below). NoSkip turns
// all three off. A sleeping CU's stall charge is taken in bulk when it next
// ticks or receives a workgroup, and for every CU on every way out of here,
// errors included (cu.settle).
func (g *GPU) RunDispatch(eng emu.Engine, d *hsa.Dispatch) (int64, error) {
	watched := g.WD.enabled()
	if watched {
		if err := g.WD.check(g.now, g.wdInsts()); err != nil {
			return 0, err
		}
	}
	start := g.now
	g.now += launchOverhead

	// Fig 10's value sampling counts each CU's VRF accesses from zero at
	// every dispatch (the waves cu.place creates point at their CU's
	// counter).
	for _, c := range g.cus {
		c.valueCounter = 0
		c.asleepFrom = g.now
	}
	defer func() {
		for _, c := range g.cus {
			c.settle(g.now)
		}
	}()

	// Occupancy: waves per CU limited by WF slots and register files.
	vregs, sregs := eng.RegDemand()
	wavesByVRF := g.P.WFSlots
	if vregs > 0 {
		wavesByVRF = vrfRegsPerCU / vregs
	}
	wavesBySRF := g.P.WFSlots
	if sregs > 0 {
		wavesBySRF = srfRegsPerCU / sregs
	}
	maxWaves := min3(g.P.WFSlots, wavesByVRF, wavesBySRF)
	if maxWaves < 1 {
		maxWaves = 1
	}

	pending := make([]*emu.WGState, 0, len(d.Workgroups))
	for i := range d.Workgroups {
		pending = append(pending, emu.NewWGState(d, &d.Workgroups[i], eng.LDSBytes()))
	}
	next := 0
	active := 0

	// dispatchMore launches queued workgroups, in order, for as long as the
	// next one fits on some CU. With nothing resident every CU is empty, so
	// a workgroup that does not fit then never will.
	dispatchMore := func() error {
		for next < len(pending) {
			wg := pending[next]
			placed := false
			for _, c := range g.cus {
				if c.canPlace(wg, maxWaves) {
					c.place(wg, eng)
					next++
					active++
					placed = true
					break
				}
			}
			if !placed {
				break
			}
		}
		if active == 0 && next < len(pending) {
			return fmt.Errorf("timing: workgroup does not fit on any CU")
		}
		return nil
	}
	if err := dispatchMore(); err != nil {
		return 0, err
	}

	// advance moves time n cycles on, ticked or jumped alike: the cycle
	// counters, and the watchdog's poll once a check period has passed.
	advance := func(n int64) error {
		g.now += n
		g.Run.Cycles += uint64(n)
		if watched {
			if g.wdTick += n; g.wdTick >= g.WD.every() {
				g.wdTick = 0
				return g.WD.check(g.now, g.wdInsts())
			}
		}
		return nil
	}

	for active > 0 {
		// Phase 1: tick CUs against private state; phase 2: replay the
		// cache accesses they deferred.
		for i, c := range g.cus {
			fin, err := c.step(g.now)
			if err != nil {
				// The CUs before c are through this cycle.
				for _, b := range g.cus[:i] {
					b.settle(g.now + 1)
				}
				return 0, err
			}
			active -= fin
		}
		g.drainFlush(g.now)
		// Placement follows the move to the next cycle: a CU that slept
		// through this one settles it before its new waves arrive.
		if err := advance(1); err != nil {
			return 0, err
		}
		if err := dispatchMore(); err != nil {
			return 0, err
		}

		// The GPU-wide jump is the CU sleep with every CU asleep at once:
		// no CU can act before the earliest nextEvent (fill completions
		// lowered the bounds during the drain, placements reset them), so
		// advance now straight there; each CU settles the span when it
		// next ticks. Jumps are capped at the watchdog's next check
		// boundary so budget and cancellation polls fire at the same
		// cycles a ticked run polls.
		if g.NoSkip || active == 0 {
			continue
		}
		wake := noEvent
		for _, c := range g.cus {
			if c.nextEvent < wake {
				wake = c.nextEvent
			}
		}
		if wake != noEvent && wake > g.now {
			skip := wake - g.now
			if watched {
				if room := g.WD.every() - g.wdTick; skip > room {
					skip = room
				}
			}
			if err := advance(skip); err != nil {
				return 0, err
			}
		}
	}
	return g.now - start, nil
}

// Finalize ends the run: it copies the hierarchy counters into the run
// record and lets go of the run's waves, so a device kept for reuse does
// not keep the run's memory image alive. Call it once, after the last
// dispatch.
func (g *GPU) Finalize() {
	for _, c := range g.cus {
		st := c.l1d.Stats()
		g.Run.L1DAccesses += st.Accesses
		g.Run.L1DMisses += st.Misses
	}
	for _, ic := range g.iCaches {
		st := ic.Stats()
		g.Run.L1IAccesses += st.Accesses
		g.Run.L1IMisses += st.Misses
	}
	for _, sc := range g.sCaches {
		st := sc.Stats()
		g.Run.ScalarL1Accesses += st.Accesses
		g.Run.ScalarL1Misses += st.Misses
	}
	l2 := g.l2.Stats()
	g.Run.L2Accesses = l2.Accesses
	g.Run.L2Misses = l2.Misses
	g.release()
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
