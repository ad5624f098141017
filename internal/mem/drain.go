package mem

import (
	"fmt"
	mathbits "math/bits"
	"slices"
)

// l2Job is one level-1 miss or posted write on its way to an L2 bank:
// appended to the bank's input queue instead of calling through, which is
// what makes the replay level-ordered. A fill names the feed and request
// whose completion it raises (feed is noFeed for a posted write); done is
// written when the L2 services the job.
type l2Job struct {
	addr      uint64
	at, done  int64
	feed, req int32
	write     bool
}

// noFeed marks an l2Job nobody waits on.
const noFeed = -1

// l1Victim is a dirty line a level-1 fill evicted: written back to the L2,
// posted at the completion of the fill that is job idx of bank queue's input.
type l1Victim struct {
	addr       uint64
	queue, idx int32
}

// l2Victim is a dirty line an L2 fill evicted: written back to DRAM, posted
// at the fill's completion.
type l2Victim struct {
	addr uint64
	at   int64
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
//	          its queue; a miss or posted write calls through to its DRAM
//	          channel, so each channel services its requests in (L2 bank,
//	          issue) order, and a fill's completion reaches the level-1
//	          request waiting on it at once.
//
// Then the dirty victims are written back, posted at their fills'
// completions: the L2's to DRAM, then level 1's to the L2, each level's in
// the order its fills were issued; and each source's completion callback
// fires in (source, request) order. This order — an L2 bank sees a cycle's
// L1D misses of every source before any L1I/sL1 miss, and victim write-backs
// reach the level below after all of the cycle's fills — is not the order a
// call-through hierarchy would produce; it is the memory model's semantics,
// pinned by TestDrainLevel1ReplayOrder and TestDrainVictimWriteBackOrder.
// Resolving a fill is a max into the request's ready cycle and a sum into the
// missing bank's latency counter, so the order fills resolve in is free.
//
// One goroutine replays the caches of a level one after another, so a queue
// that is only appended to while the level above runs is already in the
// pinned order, and so is a victim list: nothing is wired or sorted per
// flush. The invariant that pays for this is that every queue, victim list
// and buffer is empty between flushes (TestDrainMatchesReference holds the
// whole replay against the level-wave drain it replaced). A steady-state
// Flush allocates nothing once the queues have grown to their working size.
type Drain struct {
	l2   *Cache
	dram *DRAM
	srcs []DrainSource
	// feeds lists every (level-1 cache, source) pair with a route between
	// them, level-1 caches in replay order, sources in order within a cache.
	feeds []feed
	// queues[b] is L2 bank b's input; bit b of active is set while it is
	// non-empty.
	queues [][]l2Job
	active []uint64
	// l1Victims and l2Victims wait for the end of the L2's replay.
	l1Victims []l1Victim
	l2Victims []l2Victim
	// out receives each replayed access's outcome.
	out access
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
		queues: make([][]l2Job, l2.NumBanks()), active: make([]uint64, (l2.NumBanks()+63)/64)}
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

// Reset empties every queue, list and source buffer, whatever an abandoned
// flush or an unflushed tick left in them. A Flush that returned leaves them
// empty already.
func (d *Drain) Reset() {
	d.clear()
	for _, s := range d.srcs {
		s.Buf.Reset()
	}
}

// clear empties the L2 queues and the victim lists.
func (d *Drain) clear() {
	for w, bits := range d.active {
		for ; bits != 0; bits &= bits - 1 {
			q := w<<6 | mathbits.TrailingZeros64(bits)
			d.queues[q] = d.queues[q][:0]
		}
		d.active[w] = 0
	}
	d.l1Victims, d.l2Victims = d.l1Victims[:0], d.l2Victims[:0]
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
	a, l2, dram := &d.out, d.l2, d.dram
	for fi := range d.feeds {
		f := &d.feeds[fi]
		lines := f.buf.dests[f.dest].lines
		if len(lines) == 0 {
			continue
		}
		c, reqs := f.cache, f.buf.reqs
		b := &c.banks[0]
		for _, lr := range lines {
			c.bankAccess(b, lr.line, lr.write, now, a)
			if !a.fill {
				r := &reqs[lr.req]
				r.ready = max(r.ready, a.done)
				if !a.post {
					continue
				}
			}
			q, _ := l2.route(a.downAddr >> l2.lineBits)
			d.active[q>>6] |= 1 << (q & 63)
			// The job is written in place: a literal built on the stack and
			// copied in would reload its fields across store boundaries.
			jobs := append(d.queues[q], l2Job{})
			d.queues[q] = jobs
			jb := &jobs[len(jobs)-1]
			jb.addr, jb.at, jb.feed, jb.req, jb.write = a.downAddr, a.downAt, noFeed, lr.req, a.post
			if a.fill {
				jb.feed = int32(fi)
				if a.victimWB {
					d.l1Victims = append(d.l1Victims, l1Victim{addr: a.victimAddr, queue: int32(q), idx: int32(len(jobs) - 1)})
				}
			}
		}
	}
	// L2 banks share the DRAM channels, so they run in ascending order.
	for w, bits := range d.active {
		for ; bits != 0; bits &= bits - 1 {
			bank := w<<6 | mathbits.TrailingZeros64(bits)
			jobs, b := d.queues[bank], &l2.banks[bank]
			for j := range jobs {
				jb := &jobs[j]
				l2.bankAccess(b, jb.addr, jb.write, jb.at, a)
				done := a.done
				if a.fill || a.post {
					ch := dram.bankAccess(dram.BankOf(a.downAddr), a.post, a.downAt)
					if a.fill {
						done = ch
						b.stats.LatencySum += uint64(done - jb.at)
						if a.victimWB {
							d.l2Victims = append(d.l2Victims, l2Victim{addr: a.victimAddr, at: done})
						}
					}
				}
				jb.done = max(jb.at, done)
				if jb.feed != noFeed {
					f := &d.feeds[jb.feed]
					f.cache.banks[0].stats.LatencySum += uint64(jb.done - now)
					r := &f.buf.reqs[jb.req]
					r.ready = max(r.ready, jb.done)
				}
			}
		}
	}
	for _, v := range d.l2Victims {
		dram.Access(v.addr, true, v.at)
	}
	for _, v := range d.l1Victims {
		l2.Access(v.addr, true, d.queues[v.queue][v.idx].done)
	}
	d.clear()
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
