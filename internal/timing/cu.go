package timing

import (
	"math"

	"ilsim/internal/emu"
	"ilsim/internal/isa"
	"ilsim/internal/mem"
)

// noEvent marks "no future cycle at which this CU's state can change on its
// own"; the GPU loop never skips toward it.
const noEvent = int64(math.MaxInt64)

// waveCtx is a wavefront's timing state in a CU wavefront slot.
type waveCtx struct {
	w    *emu.Wave
	eng  emu.Engine
	wg   *wgRun
	seq  int64 // dispatch age for oldest-job-first scheduling
	simd int
	// regBase is the wave's physical base register in the CU's VRF:
	// architectural slot s of this wave lives in bank (regBase+s)%banks.
	regBase int

	// Instruction buffer: bytes buffered ahead of the wave's PC.
	ibBytes      int
	fetchBusy    bool
	fetchDone    int64
	fetchBytes   int
	fetchEpoch   int // increments on flush; cancels in-flight fetches
	fetchInEpoch int

	// Next instruction's scheduling metadata (points into the engine's
	// per-PC decode cache; nil until peeked, reset on issue).
	info *emu.InstInfo

	// HSAIL hardware scoreboard: per-register-slot result-ready cycle.
	vregReady []int64

	// GCN3 software dependency state: completion cycles of outstanding
	// memory operations (vmcnt is in-order, lgkmcnt may be unordered).
	vmemDone []int64
	lgkmDone []int64

	nextIssue int64
	barrier   bool
	done      bool

	// wakeAt is the first cycle at which visiting the wave can do anything:
	// until then no fill of its can land or start and its next instruction
	// cannot issue, so tick skips it (see park). stalled marks a sleeping
	// wave that charges FetchStallCycles every cycle it sleeps through.
	wakeAt  int64
	stalled bool
}

// outstanding returns how many completion cycles are still in the future,
// compacting the slice.
func outstanding(list *[]int64, now int64) int {
	l := *list
	keep := l[:0]
	for _, c := range l {
		if c > now {
			keep = append(keep, c)
		}
	}
	*list = keep
	return len(keep)
}

// kthSmallest returns the k-th smallest element (1-indexed) of a small
// unsorted list. Lists here are a wave's outstanding memory completions, so
// the quadratic scan is cheaper than sorting and never allocates.
func kthSmallest(list []int64, k int) int64 {
	best := noEvent
	for _, v := range list {
		rank := 0
		for _, u := range list {
			if u <= v {
				rank++
			}
		}
		if rank >= k && v < best {
			best = v
		}
	}
	return best
}

// wgRun tracks one workgroup resident on a CU.
type wgRun struct {
	wg        *emu.WGState
	waves     []*waveCtx
	remaining int
}

// pendReq is the metadata of one deferred cache access (the line set itself
// lives in the GPU's request buffer): which CU and wave to complete and, for
// data accesses, the instruction whose dependency state the completion
// feeds. A nil info marks an instruction-fetch fill.
type pendReq struct {
	c    *cu
	wv   *waveCtx
	info *emu.InstInfo
}

// cu is one compute unit.
//
// Each cycle is split into two phases:
//
//	phase 1 (tick)  — fetch scheduling, issue, execute and every
//	                  CU-private state transition, touching only this
//	                  CU's waves and units; statistics go to the GPU's
//	                  run. Accesses to the shared cache hierarchy are
//	                  appended to the GPU's request buffer, by
//	                  destination cache, instead of applied.
//	phase 2 (drain) — the GPU's drain replays every cache's deferred
//	                  requests in (CU index, append order), level by
//	                  level (mem.Drain), and completes them through
//	                  GPU.complete.
type cu struct {
	g  *GPU
	id int

	l1d *mem.Cache
	l1i *mem.Cache
	sl1 *mem.Cache
	// Destination handles of the three caches in the GPU's request buffer
	// (mem routing).
	l1dDest int
	l1iDest int
	sl1Dest int

	// valueCounter is the value-sampling counter of the CU's waves
	// (emu.Wave.ValueCounter), zeroed at every dispatch.
	valueCounter int

	// waves is kept permanently ordered by seq: place appends waves with
	// monotonically increasing seq and releaseWG compacts stably, so the
	// issue stage never needs to sort.
	waves     []*waveCtx
	usedSlots int
	seq       int64
	// vrfCursor assigns physical VRF regions to incoming waves.
	vrfCursor int

	simdBusy   []int64
	scalarBusy int64
	vmemBusy   int64
	ldsBusy    int64

	// bankFree models each VRF bank as a single-ported resource: the
	// cycle at which the bank can accept its next operand access. The
	// operand collector queues accesses, so contention accumulates across
	// cycles rather than resetting every cycle.
	bankFree []int64

	// order is the issue stage's reusable scheduling scratch: the awake
	// waves eligible at the start of the cycle, oldest first. Keeping it on
	// the CU makes the steady-state issue loop allocation-free.
	order []*waveCtx

	// Sleep bookkeeping, left behind by the last real tick:
	//   nextEvent  — the minimum of the waves' wakeAt: the CU's ticks before
	//                it are inert and are skipped (step), and the GPU jumps
	//                to the minimum over CUs. place resets it to wake the CU
	//                for an incoming workgroup.
	//   stallers   — waves that charged FetchStallCycles in that tick and
	//                would charge it again in every cycle slept through.
	//   asleepFrom — the first cycle since then whose charge settle has not
	//                taken yet.
	stallers   int
	nextEvent  int64
	asleepFrom int64
}

// release clears the CU's wave lists to their capacity (see GPU.release).
func (c *cu) release() {
	clear(c.waves[:cap(c.waves)])
	clear(c.order[:cap(c.order)])
	c.waves, c.order = c.waves[:0], c.order[:0]
}

// reset returns the CU's private state (its caches are the GPU's to reset,
// its wave lists the GPU's to release) to what a new CU under g.P starts
// with.
func (c *cu) reset() {
	p := &c.g.P
	c.valueCounter = 0
	c.usedSlots, c.seq, c.vrfCursor = 0, 0, 0
	c.simdBusy = zeroed(c.simdBusy, p.SIMDsPerCU)
	c.bankFree = zeroed(c.bankFree, p.VRFBanks)
	c.scalarBusy, c.vmemBusy, c.ldsBusy = 0, 0, 0
	c.stallers, c.nextEvent, c.asleepFrom = 0, 0, 0
}

// zeroed returns s as n zeros, reusing its storage when that is enough.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// wake lowers the CU's next-event bound to cycle at.
func (c *cu) wake(at int64) {
	if at < c.nextEvent {
		c.nextEvent = at
	}
}

// canPlace reports whether a workgroup fits beside the resident waves under
// maxWaves, the dispatch's bound on waves per CU (slots and register files).
func (c *cu) canPlace(wg *emu.WGState, maxWaves int) bool {
	return c.usedSlots+wg.Info.NumWaves <= maxWaves
}

// place creates the workgroup's wavefronts in this CU and wakes it. The
// cycles the CU slept through so far are settled first, against the waves
// that slept through them.
func (c *cu) place(wg *emu.WGState, eng emu.Engine) {
	c.settle(c.g.now)
	run := &wgRun{wg: wg, remaining: wg.Info.NumWaves}
	vregs, _ := eng.RegDemand()
	if vregs < 1 {
		vregs = 1
	}
	for i := 0; i < wg.Info.NumWaves; i++ {
		w := eng.NewWave(wg, i)
		w.ValueCounter = &c.valueCounter
		ctx := &waveCtx{
			w: w, eng: eng, wg: run,
			seq:     c.seq,
			simd:    c.usedSlots % c.g.P.SIMDsPerCU,
			regBase: c.vrfCursor,
		}
		c.vrfCursor = (c.vrfCursor + vregs) % vrfRegsPerCU
		c.seq++
		if eng.Abstraction() == "HSAIL" {
			nSlots, _ := eng.RegDemand()
			ctx.vregReady = make([]int64, nSlots)
		}
		c.waves = append(c.waves, ctx)
		run.waves = append(run.waves, ctx)
		c.usedSlots++
	}
	c.nextEvent = 0
}

// step is the CU's share of cycle now, in RunDispatch and in the tests
// alike; it returns how many workgroups finished. A CU whose nextEvent lies
// ahead sleeps: the cycle costs it one compare, and what its tick would have
// charged is taken in bulk when it next ticks (settle). GPU.NoSkip ticks it
// every cycle. (Written to stay under the inliner's budget, so a sleeping
// CU costs RunDispatch no call.)
func (c *cu) step(now int64) (finished int, err error) {
	if now >= c.nextEvent || c.g.NoSkip {
		finished, err = c.tick(now)
	}
	return
}

// settle charges the cycles from asleepFrom up to until that the CU slept
// through with what each of their ticks would have charged: FetchStallCycles
// once per stalled wave. One product is exact because stallers changes only
// in a real tick.
func (c *cu) settle(until int64) {
	n := until - c.asleepFrom
	if n <= 0 {
		return
	}
	c.g.Run.FetchStallCycles += uint64(c.stallers) * uint64(n)
	if ev := c.g.events; ev != nil {
		ev.cuAsleep(c, c.asleepFrom, until)
	}
	c.asleepFrom = until
}

// tick advances the CU one cycle; it returns how many workgroups finished.
//
// A tick costs what the waves that can act cost. One pass over c.waves skips
// every wave still asleep (now < wakeAt: one compare), completes and starts
// instruction-buffer fills for the rest, and collects those that may issue;
// the issue stage then visits only them. Every visited wave leaves with a
// new wakeAt (park), and their minimum is c.nextEvent, before which the CU
// is not ticked at all (step). GPU.NoSkip switches both levels off: every
// tick then visits every wave, which is the oracle the skipping runs are
// compared against.
func (c *cu) tick(now int64) (int, error) {
	c.settle(now)
	c.asleepFrom = now + 1
	skip := !c.g.NoSkip
	c.nextEvent = noEvent
	p := &c.g.P
	ev := c.g.events

	// c.waves is seq-ordered by construction; filtering into the reusable
	// scratch snapshots eligibility at the start of the cycle (a barrier
	// released mid-cycle must not issue until the next cycle).
	order := c.order[:0]
	visited, started := 0, 0
	sleepers, firstWake := 0, noEvent // stalled sleepers; earliest sleeper's wakeAt
	for _, wv := range c.waves {
		if at := wv.wakeAt; skip && now < at {
			if at < firstWake {
				firstWake = at
			}
			if wv.stalled {
				sleepers++
			}
			if ev != nil {
				ev.waveAsleep(c, wv, now)
			}
			continue
		}
		visited++
		if wv.fetchBusy && now >= wv.fetchDone {
			wv.fetchBusy = false
			if wv.fetchInEpoch == wv.fetchEpoch {
				wv.ibBytes += wv.fetchBytes
			}
		}
		if !wv.done && !wv.fetchBusy && wv.ibBytes < p.IBBytes && started < p.FetchWidth {
			addr := wv.w.PC + uint64(wv.ibBytes)
			line := addr &^ (mem.LineSize - 1)
			// The shared (per-4-CU) I-cache lookup is deferred to the drain
			// phase; until then the fill's completion cycle is unknown, which
			// noEvent encodes (it cannot satisfy the completion check above,
			// and waking at it is a no-op).
			wv.fetchBusy = true
			wv.fetchDone = noEvent
			wv.fetchBytes = int(line + mem.LineSize - addr)
			wv.fetchInEpoch = wv.fetchEpoch
			c.g.reqs.AppendLine(c.l1iDest, line, false, c.tag(wv, nil))
			started++
		}
		if wv.done || wv.barrier {
			c.park(wv, noEvent, now)
		} else {
			order = append(order, wv)
		}
	}
	c.order = order
	c.wake(firstWake)
	c.stallers = sleepers
	c.g.Run.FetchStallCycles += uint64(sleepers)
	if ev != nil {
		ev.ticked(c, visited, len(order))
	}
	return c.issueStage(now)
}

// park records when wv next needs visiting: at, the issue stage's bound
// (noEvent when only a fill or a barrier release can unblock the wave),
// folded with the wave's own fetch needs. The bound may be early — the visit
// then changes nothing and parks the wave again — but never late, and that
// is exact: a wave's instruction buffer and dependency state change only
// through its own issue, its own fill landing, or the drain completing its
// own requests in the cycle it issued them (which can only delay a bound
// taken at issue, before the drain), and unit-busy times only grow.
func (c *cu) park(wv *waveCtx, at, now int64) {
	if !wv.done {
		if wv.fetchBusy {
			// A fill deferred this tick lands its true completion cycle
			// during drain (complete), lowering wakeAt then.
			if wv.fetchDone < at {
				at = wv.fetchDone
			}
		} else if wv.ibBytes < c.g.P.IBBytes {
			// Lost fetch-width arbitration: contend again next cycle.
			at = now + 1
		}
	}
	wv.wakeAt = at
	wv.stalled = false
	c.wake(at)
}

// tag enters an access of wv's that the CU defers to the drain in the GPU's
// pending-request table — with info, the instruction its completion feeds
// (nil for an instruction fetch) — and returns the access's tag there.
func (c *cu) tag(wv *waveCtx, info *emu.InstInfo) int {
	g := c.g
	g.pend = append(g.pend, pendReq{c: c, wv: wv, info: info})
	return len(g.pend) - 1
}

// complete is the drain callback: it lands one deferred access's completion
// cycle. Fetch fills (nil info) record the fill time and wake the wave and
// its CU then. Data accesses feed the wave's dependency state.
func (g *GPU) complete(tag int, ready int64) {
	p := &g.pend[tag]
	if p.info == nil {
		p.wv.fetchDone = ready
		if ready < p.wv.wakeAt {
			p.wv.wakeAt = ready
		}
		p.c.wake(ready)
		return
	}
	p.c.finishMem(p.wv, p.info, ready)
}

// issueStage picks ready wavefronts oldest-first from c.order and issues at
// most one instruction per execution unit. A wave blocked this cycle parks
// until the exact cycle its blocking condition can next change.
func (c *cu) issueStage(now int64) (int, error) {
	finished := 0
	run := c.g.Run
	for _, wv := range c.order {
		if now < wv.nextIssue {
			c.park(wv, wv.nextIssue, now)
			continue
		}
		if wv.info == nil {
			info, err := wv.eng.Peek(wv.w)
			if err != nil {
				return finished, err
			}
			wv.info = info
		}
		info := wv.info
		if wv.ibBytes < info.SizeBytes {
			// The stall repeats every cycle until a fill lands, asleep or
			// awake; settle bulk-charges it across cycles the CU sleeps
			// through.
			run.FetchStallCycles++
			c.stallers++
			c.park(wv, noEvent, now)
			wv.stalled = true
			continue
		}
		// Dependency checks.
		if wv.vregReady != nil {
			if at := scoreboardReadyAt(wv, info); at > now {
				c.park(wv, at, now)
				continue
			}
		} else {
			if info.WaitVM >= 0 && outstanding(&wv.vmemDone, now) > int(info.WaitVM) {
				// vmcnt completes in order (vmemDone is non-decreasing):
				// the counter reaches WaitVM exactly when the
				// (n-WaitVM)-th oldest operation lands.
				c.park(wv, wv.vmemDone[len(wv.vmemDone)-1-int(info.WaitVM)], now)
				continue
			}
			if info.WaitLGKM >= 0 && outstanding(&wv.lgkmDone, now) > int(info.WaitLGKM) {
				c.park(wv, kthSmallest(wv.lgkmDone, len(wv.lgkmDone)-int(info.WaitLGKM)), now)
				continue
			}
		}
		// Execution-unit availability.
		busy, occ := c.unit(wv, info)
		if *busy > now {
			c.park(wv, *busy, now)
			continue
		}

		res, err := wv.eng.Execute(wv.w)
		if err != nil {
			return finished, err
		}
		*busy = now + occ
		wv.nextIssue = now + 1
		wv.ibBytes -= info.SizeBytes
		wv.info = nil

		// VRF operand-collector traffic: each bank accepts one operand
		// access per cycle; accesses that find their bank booked queue
		// behind it and stall the issuing unit — the contention the
		// paper shows HSAIL triples (Fig 6). Backlog carries across
		// cycles, so sustained operand pressure compounds.
		conflicts := int64(0)
		bookBank := func(r uint16) {
			b := (wv.regBase + int(r)) % len(c.bankFree)
			if c.bankFree[b] > now {
				conflicts++
				c.bankFree[b]++
			} else {
				c.bankFree[b] = now + 1
			}
		}
		for _, r := range info.VRFReads.Slice() {
			bookBank(r)
		}
		for _, r := range info.VRFWrites.Slice() {
			bookBank(r)
		}
		if conflicts > 0 {
			*busy += conflicts
			run.VRFBankConflicts += uint64(conflicts)
		}
		run.VRFAccesses += uint64(info.VRFReads.N) + uint64(info.VRFWrites.N)

		c.retire(wv, info, &res, now)
		if res.IsEndPgm {
			wv.done = true
			wv.wg.remaining--
			if wv.wg.remaining == 0 {
				c.releaseWG(wv.wg)
				finished++
			}
		}
		at := noEvent
		if !wv.done && !wv.barrier {
			at = c.issueBound(wv)
		}
		c.park(wv, at, now)
	}
	return finished, nil
}

// issueBound is where a wave that has just issued parks: the first cycle its
// next instruction can issue, as far as the CU can tell now. That is
// nextIssue, or later while the instruction's unit is busy or, under HSAIL,
// its registers are pending. It stays nextIssue when the instruction buffer
// does not hold the instruction yet — its fetch stall is charged per cycle
// from that visit on — and when Peek fails, whose error that visit reports.
// Waitcnt bounds are not used: a request issued this cycle learns its
// completion cycle only in the drain. The bound may be early, never late
// (see park).
func (c *cu) issueBound(wv *waveCtx) int64 {
	at := wv.nextIssue
	info, err := wv.eng.Peek(wv.w)
	if err != nil {
		return at
	}
	wv.info = info
	if wv.ibBytes < info.SizeBytes {
		return at
	}
	if wv.vregReady != nil {
		at = max(at, scoreboardReadyAt(wv, info))
	}
	busy, _ := c.unit(wv, info)
	return max(at, *busy)
}

// unit returns the execution unit an instruction issues to — the cycle it
// is busy until — and how many cycles an issue occupies it.
func (c *cu) unit(wv *waveCtx, info *emu.InstInfo) (busy *int64, occ int64) {
	switch info.Category {
	case isa.CatVALU:
		return &c.simdBusy[wv.simd], simdIssueCycles
	case isa.CatVMem:
		return &c.vmemBusy, vmemIssueCycles
	case isa.CatLDS:
		return &c.ldsBusy, vmemIssueCycles
	default: // scalar ALU, scalar memory, branch, waitcnt, misc
		return &c.scalarBusy, scalarIssueCycles
	}
}

// scoreboardReadyAt implements the HSAIL hardware scoreboard: it returns the
// cycle at which every register the instruction touches has its pending
// write complete, and the instruction may issue no earlier. Pending writes
// only move on the wave's own issue, so for a blocked wave the bound is
// exact.
func scoreboardReadyAt(wv *waveCtx, info *emu.InstInfo) int64 {
	var at int64
	for _, r := range info.VRFReads.Slice() {
		if wv.vregReady[r] > at {
			at = wv.vregReady[r]
		}
	}
	for _, r := range info.VRFWrites.Slice() {
		if wv.vregReady[r] > at {
			at = wv.vregReady[r]
		}
	}
	return at
}

// retire charges latencies for an issued instruction and updates dependency
// state, branch redirects and barriers. Global and scalar memory accesses go
// through the shared hierarchy, so their completion cycles are deferred to
// the drain phase; everything else completes with a CU-private latency and
// lands immediately. Both paths feed finishMem, and each wave issues at most
// one instruction per cycle, so the wave's dependency lists grow in the same
// order the serial loop grew them.
func (c *cu) retire(wv *waveCtx, info *emu.InstInfo, res *emu.ExecResult, now int64) {
	p := &c.g.P
	// Completion time of the instruction's result.
	switch {
	case res.MemKind == emu.MemGlobal && len(res.Lines) > 0:
		// res.Lines is the wave's coalescing scratch; Append routes and
		// copies the lines, so the scratch may be reused immediately.
		c.g.reqs.Append(c.l1dDest, res.Lines, res.MemWrite, c.tag(wv, info))
	case res.MemKind == emu.MemScalar && len(res.Lines) > 0:
		c.g.reqs.Append(c.sl1Dest, res.Lines, false, c.tag(wv, info))
	case res.MemKind == emu.MemGlobal || res.MemKind == emu.MemScalar:
		// Fully masked access: no lines, completes immediately.
		c.finishMem(wv, info, now)
	case res.MemKind == emu.MemLDS || info.Category == isa.CatLDS:
		if res.LDSBankConflicts > 0 {
			c.ldsBusy += int64(res.LDSBankConflicts)
		}
		c.finishMem(wv, info, now+p.LDSLatency+int64(res.LDSBankConflicts))
	default:
		var ready int64
		switch info.LatClass {
		case emu.LatALU:
			ready = now + aluLatency
		case emu.LatALU64:
			ready = now + alu64Latency
		case emu.LatTrans:
			ready = now + transLatency
		case emu.LatScalar:
			ready = now + scalarLatency
		case emu.LatBranch:
			ready = now + branchLatency
		default:
			ready = now + 1
		}
		c.finishMem(wv, info, ready)
	}

	if res.Redirected {
		c.g.Run.Redirects++
		if wv.ibBytes > 0 || wv.fetchBusy {
			c.g.Run.IBFlushes++
		}
		wv.ibBytes = 0
		wv.fetchEpoch++ // cancel any in-flight fill
		wv.nextIssue = now + branchLatency
	}

	if res.IsBarrier {
		wv.barrier = true
		c.checkBarrier(wv.wg)
	}
}

// finishMem lands an instruction's completion cycle in the wave's dependency
// state. It runs inline from retire for CU-private latencies and from the
// drain callback for shared-hierarchy accesses.
func (c *cu) finishMem(wv *waveCtx, info *emu.InstInfo, ready int64) {
	if wv.vregReady != nil {
		// HSAIL scoreboard: destination registers become ready when the
		// instruction completes.
		for _, r := range info.VRFWrites.Slice() {
			wv.vregReady[r] = ready
		}
		return
	}
	// GCN3 waitcnt counters.
	if info.IsVMem {
		// In-order completion: never earlier than the previous one.
		if n := len(wv.vmemDone); n > 0 && wv.vmemDone[n-1] > ready {
			ready = wv.vmemDone[n-1]
		}
		wv.vmemDone = append(wv.vmemDone, ready)
	}
	if info.IsLGKM {
		wv.lgkmDone = append(wv.lgkmDone, ready)
	}
}

// checkBarrier releases a workgroup barrier once every unfinished wave has
// arrived, waking the released waves and the CU.
func (c *cu) checkBarrier(run *wgRun) {
	for _, wv := range run.waves {
		if !wv.done && !wv.barrier {
			return
		}
	}
	for _, wv := range run.waves {
		wv.barrier = false
		wv.wakeAt = 0
	}
	c.nextEvent = 0
}

// releaseWG frees the workgroup's slots and hands its waves back to their
// engine (emu.Engine.FreeWave): completions still due this cycle feed the
// waves' timing state, never the emu.Wave. The compaction is stable, so
// c.waves stays seq-ordered.
func (c *cu) releaseWG(run *wgRun) {
	for _, wv := range run.waves {
		wv.eng.FreeWave(wv.w)
		wv.w = nil
	}
	keep := c.waves[:0]
	for _, wv := range c.waves {
		if wv.wg != run {
			keep = append(keep, wv)
		}
	}
	c.waves = keep
	c.usedSlots -= len(run.waves)
}
