package mem

// The level-wave drain and the per-(destination, bank) request buffer as they
// stood before the serial rewrite (PR 20), kept verbatim — identifiers
// prefixed ref, nothing else changed — as the differential oracle for
// Drain: TestDrainMatchesReference and FuzzDrainReplay (drain_diff_test.go)
// require the serial drain to reproduce every completion and every per-bank
// counter of this one. Never "fix" this file.

import (
	"fmt"
	"slices"
)

// refLineReq is one routed line access sitting in a destination bank's bucket:
// the line address, the write flag, the index of the owning request in the
// buffer's request table, and — written by the drain — its completion cycle.
type refLineReq struct {
	line  uint64
	write bool
	req   int32
	done  int64
}

// dest is one cache a buffer routes into: per-bank buckets so that routing
// happens at append time and the drain can hand each bank its inputs without
// any further sorting.
type refDest struct {
	cache   *Cache
	buckets [][]refLineReq
}

// refBucketRef names one (destination, bank) bucket of a buffer.
type refBucketRef struct {
	dest, bank int32
}

// request is the buffer-side record of one deferred access: the caller's
// tag and the max-reduced completion cycle of its lines.
type refRequest struct {
	tag   int
	ready int64
}

// refRequestBuffer is an append-only, replayable queue of deferred cache
// accesses, routed to destination banks as it is appended. The timing core
// gives each compute unit one buffer: phase 1 of a cycle appends the CU's
// requests in issue order, bucketing each line by (destination cache, bank);
// phase 2 (refDrain.Flush) replays every bank's bucket sequence in (CU index,
// append order). The buffer lists the buckets it made non-empty
// (touched), so the drain and Reset visit only those: an idle destination
// costs nothing. Reset keeps capacity, so a steady-state tick/drain cycle
// allocates nothing.
//
// All Register calls must precede refDrain construction (the drain captures
// pointers to the per-bank buckets).
type refRequestBuffer struct {
	dests []refDest
	reqs  []refRequest
	// touched lists the non-empty buckets in first-append order.
	touched []refBucketRef
}

// Register adds a destination cache and returns its handle for AppendLine/
// Append. Registering the same cache twice returns the same handle.
func (b *refRequestBuffer) Register(c *Cache) int {
	for i := range b.dests {
		if b.dests[i].cache == c {
			return i
		}
	}
	b.dests = append(b.dests, refDest{cache: c, buckets: make([][]refLineReq, c.NumBanks())})
	return len(b.dests) - 1
}

// route appends one line of request ri to its bank's bucket of destination d.
func (b *refRequestBuffer) route(d int, line uint64, write bool, ri int32) {
	dst := &b.dests[d]
	bank := dst.cache.BankOf(line)
	if len(dst.buckets[bank]) == 0 {
		b.touched = append(b.touched, refBucketRef{dest: int32(d), bank: int32(bank)})
	}
	dst.buckets[bank] = append(dst.buckets[bank], refLineReq{line: line, write: write, req: ri})
}

// AppendLine defers a single-line access to destination d.
func (b *refRequestBuffer) AppendLine(d int, line uint64, write bool, tag int) {
	b.route(d, line, write, int32(len(b.reqs)))
	b.reqs = append(b.reqs, refRequest{tag: tag})
}

// Append defers a multi-line access to destination d. Lines are copied into
// the per-bank buckets, so the caller's slice (typically coalescing scratch)
// may be reused immediately. Cross-bank lines of one request max-reduce
// their completion cycles back into a single ready cycle at drain time.
func (b *refRequestBuffer) Append(d int, lines []uint64, write bool, tag int) {
	ri := int32(len(b.reqs))
	for _, line := range lines {
		b.route(d, line, write, ri)
	}
	b.reqs = append(b.reqs, refRequest{tag: tag})
}

// Len returns the number of deferred requests.
func (b *refRequestBuffer) Len() int { return len(b.reqs) }

// Reset empties the buffer, keeping its capacity.
func (b *refRequestBuffer) Reset() {
	b.reqs = b.reqs[:0]
	for _, r := range b.touched {
		bucket := &b.dests[r.dest].buckets[r.bank]
		*bucket = (*bucket)[:0]
	}
	b.touched = b.touched[:0]
}

// refDownJob is one access descending into a lower level: enqueued by an upper
// bank's wave into the lower bank's input bucket instead of calling through,
// which is what makes the replay level-ordered. done is written by the level
// that services the job.
type refDownJob struct {
	addr  uint64
	write bool
	at    int64
	done  int64
}

// refPendFill is an upper bank's bookkeeping for one miss it sent below:
// where the fill's completion lands (sink), which down bucket holds the
// fill's job (bank/idx — indices, not pointers, because the bucket may
// still grow while this level's wave runs), the request's arrival cycle
// (for latency accounting) and a dirty victim to write back once the fill
// completes.
type refPendFill struct {
	sink       *int64
	bank       int32
	idx        int32
	at         int64
	victimAddr uint64
	victimWB   bool
}

// refDrainTask is one bank of one level. A task's inputs (srcs or jobs) are
// wired per flush from the buckets that actually hold work, and every
// per-flush field is empty between flushes.
type refDrainTask struct {
	cache *Cache // nil for DRAM-channel tasks
	bank  int
	lower Banked
	// srcs are level-1 inputs: the non-empty request-buffer buckets for
	// (cache, bank), in source order (CU order).
	srcs []*[]refLineReq
	// jobs are lower-level inputs: the non-empty down buckets upper tasks
	// filled for this bank, in upper-task order.
	jobs []*[]refDownJob
	// down holds this task's per-lower-bank output buckets; touched lists
	// the ones this flush made non-empty, in first-deposit order.
	down    [][]refDownJob
	touched []int32
	pend    []refPendFill
}

// refDrainSource is one request producer (a CU): its routed buffer and the
// callback that receives each request's (tag, ready) completion.
type refDrainSource struct {
	Buf      *refRequestBuffer
	Complete func(tag int, ready int64)
}

// refDrainWave is one level's share of a flush: its tasks, and the ones that
// have input (active, in ascending task order once wired).
type refDrainWave struct {
	tasks  []refDrainTask
	active []int32
}

// refDrain replays deferred cache accesses through a banked two-level
// hierarchy in level order, one wave per level:
//
//	wave 1 — every level-1 (per-CU L1D, shared L1I/sL1) bank replays its
//	         bucketed requests in (source, append) order, depositing
//	         misses and posted writes into per-L2-bank output buckets;
//	wave 2 — every L2 bank, in ascending order, replays its deposited jobs
//	         in (level-1 task, append) order, depositing misses into
//	         per-DRAM-channel buckets;
//	wave 3 — every DRAM channel replays its jobs.
//
// After the waves, two finalize passes (L2 first, then level 1) resolve miss
// completions upward, charge miss latency, and apply dirty-victim
// write-backs; a final reduction folds per-line completions into
// per-request ready cycles and invokes each source's completion callback in
// (source, request) order. This order — an L2 bank sees a cycle's L1D misses
// of every source before any L1I/sL1 miss, and victim write-backs reach the
// level below after all of the cycle's fills — is not the order a
// call-through hierarchy would produce; it is the memory model's semantics,
// pinned by TestDrainLevel1ReplayOrder and TestDrainVictimWriteBackOrder.
//
// The waves are sparse: a flush visits only banks that received work. Each
// request buffer and each task lists the buckets it made non-empty, a wave's
// active list is built from the lists of the wave above and sorted into
// ascending task order — the order lower banks replay their inputs in and
// finalize issues victim write-backs in, so results do not depend on which
// banks happened to be idle — and the end of the flush empties exactly what
// was touched. A steady-state Flush allocates nothing once the buckets have
// grown to their working size.
type refDrain struct {
	dram *DRAM
	srcs []refDrainSource
	// l1Base[src][dest] is the level-1 task index of bank 0 of the cache
	// behind that source's destination handle.
	l1Base                 [][]int32
	waveL1, waveL2, waveDR refDrainWave
}

// newRefDrain wires the pipeline. l1s lists every level-1 cache in replay
// order (this order, with source order within a bank, defines the
// deterministic L2 replay order); srcs lists the request producers in
// completion order (CU index order). Every l1 must sit directly above l2,
// and l2 directly above dram; every destination registered in a source
// buffer must appear in l1s. Buffers must have all destinations registered
// before newRefDrain (the drain captures bucket pointers).
func newRefDrain(l1s []*Cache, srcs []refDrainSource, l2 *Cache, dram *DRAM) *refDrain {
	if l2.lower != Level(dram) {
		panic("mem: newRefDrain: l2 is not directly above dram")
	}
	d := &refDrain{dram: dram, srcs: srcs}
	base := make(map[*Cache]int32, len(l1s))
	for _, c := range l1s {
		if c.lower != Level(l2) {
			panic(fmt.Sprintf("mem: newRefDrain: %s is not directly above %s", c.Name, l2.Name))
		}
		base[c] = int32(len(d.waveL1.tasks))
		for bank := 0; bank < c.NumBanks(); bank++ {
			d.waveL1.tasks = append(d.waveL1.tasks, refDrainTask{cache: c, bank: bank, lower: l2,
				down: make([][]refDownJob, l2.NumBanks())})
		}
	}
	for _, s := range srcs {
		bases := make([]int32, len(s.Buf.dests))
		for di := range s.Buf.dests {
			c := s.Buf.dests[di].cache
			b, ok := base[c]
			if !ok {
				panic(fmt.Sprintf("mem: newRefDrain: destination %s not in level-1 list", c.Name))
			}
			bases[di] = b
		}
		d.l1Base = append(d.l1Base, bases)
	}
	for bank := 0; bank < l2.NumBanks(); bank++ {
		d.waveL2.tasks = append(d.waveL2.tasks, refDrainTask{cache: l2, bank: bank, lower: dram,
			down: make([][]refDownJob, dram.NumBanks())})
	}
	for ch := 0; ch < dram.NumBanks(); ch++ {
		d.waveDR.tasks = append(d.waveDR.tasks, refDrainTask{bank: ch})
	}
	return d
}

// activate returns task i for the caller to wire an input to, putting it on
// the wave's list if this is its first input of the flush.
func (w *refDrainWave) activate(i int32) *refDrainTask {
	t := &w.tasks[i]
	if len(t.srcs)+len(t.jobs) == 0 {
		w.active = append(w.active, i)
	}
	return t
}

// wireSources builds wave 1's inputs from the buckets the sources filled:
// sources in order, so each task's srcs end up in source order.
func (d *refDrain) wireSources() {
	for si, s := range d.srcs {
		buf := s.Buf
		for _, r := range buf.touched {
			t := d.waveL1.activate(d.l1Base[si][r.dest] + r.bank)
			t.srcs = append(t.srcs, &buf.dests[r.dest].buckets[r.bank])
		}
	}
	slices.Sort(d.waveL1.active)
}

// refWireJobs builds the lower wave's inputs from the down buckets the upper
// wave filled: upper tasks in ascending order, so each lower task's jobs
// end up in upper-task order.
func refWireJobs(upper, lower *refDrainWave) {
	for _, ui := range upper.active {
		ut := &upper.tasks[ui]
		for _, lb := range ut.touched {
			lt := lower.activate(lb)
			lt.jobs = append(lt.jobs, &ut.down[lb])
		}
	}
	slices.Sort(lower.active)
}

// clear empties everything the flush touched on the wave's active tasks.
// Idle tasks hold nothing, so the next flush finds every bucket empty
// whichever tasks it wakes.
func (w *refDrainWave) clear() {
	for _, i := range w.active {
		t := &w.tasks[i]
		for _, lb := range t.touched {
			t.down[lb] = t.down[lb][:0]
		}
		t.touched = t.touched[:0]
		t.pend = t.pend[:0]
		t.srcs = t.srcs[:0]
		t.jobs = t.jobs[:0]
	}
	w.active = w.active[:0]
}

// runCaches replays the inputs of every active cache bank of the wave, in
// ascending task order: level-1 buckets first (only level-1 tasks have any),
// then lower-level job buckets, both in wiring order. Misses and posted
// writes are deposited into the lower bank's bucket; completions that are
// already known land immediately.
func (w *refDrainWave) runCaches(now int64) {
	for _, i := range w.active {
		t := &w.tasks[i]
		c := t.cache
		b := &c.banks[t.bank]
		for _, sp := range t.srcs {
			src := *sp
			for j := range src {
				lr := &src[j]
				t.apply(c, b, lr.line, lr.write, now, &lr.done)
			}
		}
		for _, jp := range t.jobs {
			js := *jp
			for j := range js {
				jb := &js[j]
				t.apply(c, b, jb.addr, jb.write, jb.at, &jb.done)
			}
		}
	}
}

// deposit queues a job for the lower level and returns its (bank, index).
func (t *refDrainTask) deposit(j refDownJob) (int32, int32) {
	lb := int32(t.lower.BankOf(j.addr))
	if len(t.down[lb]) == 0 {
		t.touched = append(t.touched, lb)
	}
	t.down[lb] = append(t.down[lb], j)
	return lb, int32(len(t.down[lb]) - 1)
}

func (t *refDrainTask) apply(c *Cache, b *cacheBank, addr uint64, write bool, at int64, sink *int64) {
	var a access
	c.bankAccess(b, addr, write, at, &a)
	if a.fill {
		lb, idx := t.deposit(refDownJob{addr: a.downAddr, at: a.downAt})
		t.pend = append(t.pend, refPendFill{sink: sink, bank: lb, idx: idx, at: at,
			victimAddr: a.victimAddr, victimWB: a.victimWB})
		return
	}
	*sink = a.done
	if a.post {
		t.deposit(refDownJob{addr: a.downAddr, write: true, at: a.downAt, done: a.downAt})
	}
}

// runDRAM services the jobs of every active channel of the DRAM wave.
func (w *refDrainWave) runDRAM(dram *DRAM) {
	for _, i := range w.active {
		t := &w.tasks[i]
		for _, jp := range t.jobs {
			js := *jp
			for j := range js {
				jb := &js[j]
				jb.done = dram.bankAccess(t.bank, jb.write, jb.at)
			}
		}
	}
}

// finalize resolves the wave's pending fills after the lower waves ran:
// copy each fill's completion into its sink, charge the miss latency to the
// bank shard, and apply dirty-victim write-backs (posted at the fill's
// completion, replayed here in ascending task, then pend, order).
func (w *refDrainWave) finalize() {
	for _, i := range w.active {
		t := &w.tasks[i]
		b := &t.cache.banks[t.bank]
		for _, p := range t.pend {
			done := t.down[p.bank][p.idx].done
			b.stats.LatencySum += uint64(done - p.at)
			*p.sink = done
			if p.victimWB {
				t.cache.lower.Access(p.victimAddr, true, done)
			}
		}
	}
}

// reduce folds per-line completions back into per-request ready cycles and
// invokes each source's completion callback in (source, request) order,
// then resets the buffers.
func (d *refDrain) reduce(now int64) {
	for _, s := range d.srcs {
		buf := s.Buf
		if len(buf.reqs) == 0 {
			continue
		}
		for i := range buf.reqs {
			buf.reqs[i].ready = now
		}
		for _, r := range buf.touched {
			bucket := buf.dests[r.dest].buckets[r.bank]
			for j := range bucket {
				lr := &bucket[j]
				if q := &buf.reqs[lr.req]; lr.done > q.ready {
					q.ready = lr.done
				}
			}
		}
		for i := range buf.reqs {
			s.Complete(buf.reqs[i].tag, buf.reqs[i].ready)
		}
		buf.Reset()
	}
}

// Flush drains every pending request at cycle now: three level waves
// (level 1, L2, DRAM), then the finalize and reduction passes. The second
// parameter is ignored; it is kept only because frozen bench/ladder.go
// passes nil for the executor it once selected.
func (d *refDrain) Flush(now int64, _ any) {
	nreq := 0
	for _, s := range d.srcs {
		nreq += len(s.Buf.reqs)
	}
	if nreq == 0 {
		return
	}
	d.wireSources()
	d.waveL1.runCaches(now)
	refWireJobs(&d.waveL1, &d.waveL2)
	d.waveL2.runCaches(now)
	refWireJobs(&d.waveL2, &d.waveDR)
	d.waveDR.runDRAM(d.dram)
	d.waveL2.finalize()
	d.waveL1.finalize()
	d.reduce(now)
	d.waveL1.clear()
	d.waveL2.clear()
	d.waveDR.clear()
}
