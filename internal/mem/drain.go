package mem

import (
	"fmt"
	"slices"
)

// downJob is one access descending into a lower level: appended to the lower
// bank's input queue instead of calling through, which is what makes the
// replay level-ordered. done starts at the arrival cycle and is raised to the
// completion cycle by the level that services the job.
type downJob struct {
	addr  uint64
	write bool
	at    int64
	done  int64
}

// pendFill is a cache level's bookkeeping for one miss it sent below: the
// bank that missed (its shard is charged the latency), where the fill's
// completion lands (sink), which lower queue holds the fill's job (queue/idx
// — indices, not a pointer, because the queue may still grow while this
// level replays), the request's arrival cycle and a dirty victim to write
// back once the fill completes.
type pendFill struct {
	sink       *int64
	bank       *cacheBank
	queue      int32
	idx        int32
	at         int64
	victimAddr uint64
	victimWB   bool
}

// drainLevel is one cache level's share of a flush: the input queues it
// fills for the level below, one per lower bank (active lists the non-empty
// ones, in first-append order), and the fills it is waiting on, in the order
// it issued them.
type drainLevel struct {
	lower interface {
		Level
		Banked
	}
	down   [][]downJob
	active []int32
	pend   []pendFill
	// out receives each replayed access's outcome.
	out access
}

// feed is one source's line list for one level-1 cache.
type feed struct {
	cache *Cache
	buf   *RequestBuffer
	dest  int
}

// DrainSource is one request producer (the timing core has one, its device's
// buffer): its routed buffer and the callback that receives each request's
// (tag, ready) completion.
type DrainSource struct {
	Buf      *RequestBuffer
	Complete func(tag int, ready int64)
}

// Drain replays deferred cache accesses through a two-level hierarchy in
// level order, in one serial pass:
//
//	level 1 — every level-1 cache (per-CU L1D, shared L1I/sL1), in NewDrain
//	          order, replays the lines routed to it in (source, append)
//	          order, appending misses and posted writes to the input queue
//	          of the L2 bank they map to;
//	L2      — every L2 bank that received work, in ascending order, replays
//	          its queue, appending misses to per-DRAM-channel queues;
//	DRAM    — every channel that received work services its queue.
//
// Then two finalize passes (L2 first, then level 1) resolve miss completions
// upward in the order the fills were issued, charge miss latency and apply
// dirty-victim write-backs, and each source's completion callback fires in
// (source, request) order. This order — an L2 bank sees a cycle's L1D misses
// of every source before any L1I/sL1 miss, and victim write-backs reach the
// level below after all of the cycle's fills — is not the order a
// call-through hierarchy would produce; it is the memory model's semantics,
// pinned by TestDrainLevel1ReplayOrder and TestDrainVictimWriteBackOrder.
//
// One goroutine replays the caches of a level one after another, so a queue
// that is only appended to while the level above runs is already in the
// pinned order, and so is a level's pending-fill list: nothing is wired per
// flush, and the one thing sorted is the list of L2 banks that received work.
// The invariant that pays for this is that every queue, active list,
// pending-fill list and buffer is empty between flushes
// (TestDrainMatchesReference holds the whole replay against the level-wave
// drain it replaced). A steady-state Flush allocates nothing once the queues
// have grown to their working size.
type Drain struct {
	l2   *Cache
	dram *DRAM
	srcs []DrainSource
	// feeds lists every (level-1 cache, source) pair with a route between
	// them, level-1 caches in replay order, sources in order within a cache.
	feeds []feed
	// up is the level-1 caches' share of a flush (its queues are the L2
	// banks' inputs), lo the L2's (the DRAM channels' inputs).
	up, lo drainLevel
}

// NewDrain wires the pipeline. l1s lists every level-1 cache in replay
// order (this order, with source order within a cache, defines the
// deterministic L2 replay order); srcs lists the request producers in
// completion order. Every l1 must be single-banked and sit
// directly above l2, and l2 directly above dram; every destination
// registered in a source buffer must appear in l1s. Buffers must have all
// destinations registered before NewDrain.
func NewDrain(l1s []*Cache, srcs []DrainSource, l2 *Cache, dram *DRAM) *Drain {
	if l2.lower != Level(dram) {
		panic("mem: NewDrain: l2 is not directly above dram")
	}
	d := &Drain{l2: l2, dram: dram, srcs: srcs,
		up: drainLevel{lower: l2, down: make([][]downJob, l2.NumBanks())},
		lo: drainLevel{lower: dram, down: make([][]downJob, dram.NumBanks())}}
	for _, s := range srcs {
		for _, dst := range s.Buf.dests {
			if !slices.Contains(l1s, dst.cache) {
				panic(fmt.Sprintf("mem: NewDrain: destination %s not in level-1 list", dst.cache.Name))
			}
		}
	}
	for _, c := range l1s {
		if c.lower != Level(l2) {
			panic(fmt.Sprintf("mem: NewDrain: %s is not directly above %s", c.Name, l2.Name))
		}
		if c.NumBanks() != 1 {
			panic(fmt.Sprintf("mem: NewDrain: level-1 cache %s is banked", c.Name))
		}
		for _, s := range srcs {
			for di := range s.Buf.dests {
				if s.Buf.dests[di].cache == c {
					d.feeds = append(d.feeds, feed{cache: c, buf: s.Buf, dest: di})
				}
			}
		}
	}
	return d
}

// apply replays one access on bank b of cache c. A completion that is
// already known is max-reduced into sink; a miss is queued for the level
// below and remembered in pend, a posted write only queued. A sink starts no
// later than any completion it can receive — a request's ready at zero (cycles
// are non-negative: a port is free from cycle 0), a job's done at its arrival
// cycle — so it ends at the latest one.
func (lv *drainLevel) apply(c *Cache, b *cacheBank, addr uint64, write bool, at int64, sink *int64) {
	a := &lv.out
	c.bankAccess(b, addr, write, at, a)
	if !a.fill {
		*sink = max(*sink, a.done)
		if !a.post {
			return
		}
	}
	q := lv.lower.BankOf(a.downAddr)
	if len(lv.down[q]) == 0 {
		lv.active = append(lv.active, int32(q))
	}
	if a.fill {
		lv.pend = append(lv.pend, pendFill{sink: sink, bank: b, queue: int32(q), idx: int32(len(lv.down[q])),
			at: at, victimAddr: a.victimAddr, victimWB: a.victimWB})
	}
	lv.down[q] = append(lv.down[q], downJob{addr: a.downAddr, write: a.post, at: a.downAt, done: a.downAt})
}

// finalize resolves the level's pending fills after the levels below ran, in
// issue order — ascending (cache or bank, fill): max-reduce each fill's
// completion into its sink, charge the miss latency to the bank's shard and
// write a dirty victim back (posted at the fill's completion) — then empties
// the level's queues.
func (lv *drainLevel) finalize() {
	for _, p := range lv.pend {
		done := lv.down[p.queue][p.idx].done
		p.bank.stats.LatencySum += uint64(done - p.at)
		*p.sink = max(*p.sink, done)
		if p.victimWB {
			lv.lower.Access(p.victimAddr, true, done)
		}
	}
	lv.pend = lv.pend[:0]
	for _, q := range lv.active {
		lv.down[q] = lv.down[q][:0]
	}
	lv.active = lv.active[:0]
}

// Reset empties every queue, list and source buffer, whatever an abandoned
// flush or an unflushed tick left in them. A Flush that returned leaves them
// empty already.
func (d *Drain) Reset() {
	for _, lv := range []*drainLevel{&d.up, &d.lo} {
		for q := range lv.down {
			lv.down[q] = lv.down[q][:0]
		}
		lv.active, lv.pend = lv.active[:0], lv.pend[:0]
	}
	for _, s := range d.srcs {
		s.Buf.Reset()
	}
}

// Flush drains every pending request at cycle now. The second parameter is
// ignored; it is kept only because frozen bench/ladder.go passes nil for the
// executor it once selected.
func (d *Drain) Flush(now int64, _ any) {
	nreq := 0
	for _, s := range d.srcs {
		nreq += len(s.Buf.reqs)
	}
	if nreq == 0 {
		return
	}
	for _, f := range d.feeds {
		reqs, b := f.buf.reqs, &f.cache.banks[0]
		for _, lr := range f.buf.dests[f.dest].lines {
			d.up.apply(f.cache, b, lr.line, lr.write, now, &reqs[lr.req].ready)
		}
	}
	// L2 banks share the channels' queues and the L2's pending-fill list, so
	// they run in ascending order; DRAM channels share nothing, so they run
	// in whatever order they received work.
	slices.Sort(d.up.active)
	for _, bank := range d.up.active {
		jobs, b := d.up.down[bank], &d.l2.banks[bank]
		for j := range jobs {
			jb := &jobs[j]
			d.lo.apply(d.l2, b, jb.addr, jb.write, jb.at, &jb.done)
		}
	}
	for _, ch := range d.lo.active {
		jobs := d.lo.down[ch]
		for j := range jobs {
			jb := &jobs[j]
			jb.done = d.dram.bankAccess(int(ch), jb.write, jb.at)
		}
	}
	d.lo.finalize()
	d.up.finalize()
	for _, s := range d.srcs {
		if len(s.Buf.reqs) == 0 {
			continue
		}
		for _, q := range s.Buf.reqs {
			s.Complete(q.tag, max(q.ready, now))
		}
		s.Buf.Reset()
	}
}
