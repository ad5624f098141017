package timing

import (
	"runtime"
	"sync/atomic"
)

// pool is the cycle-loop worker pool. An epoch is n independent tasks —
// phase 1's CU partitions, or one of the drain's bank waves — whose indices
// the workers pull from a shared atomic cursor. The calling (main) goroutine
// is a worker of every epoch and can finish one alone: the helper goroutines
// are opportunistic. It opens the epoch, pulls tasks until none is left,
// closes it, and waits only for helpers that are inside at that moment — by
// construction running, not asleep. A helper that arrives late (it had to be
// woken, or lost its processor) finds the epoch closed and goes back to
// waiting, so a parallel run never stands still for a wake-up.
//
// An epoch is a few microseconds of work, less than it costs to park a
// goroutine and wake it again (a futex round trip, and on a virtual machine
// an interrupt to a halted CPU, whose latency follows the host's load), so a
// helper does not go to sleep between epochs: it polls its own sequence word
// — spinTight times back to back, then spinYield times with a
// runtime.Gosched in between — and only then parks on its wake channel.
// While a dispatch keeps the pool busy the hand-off is a cache-line transfer;
// once the loop has gone serial for longer than a wake-up takes, a helper
// costs nothing.
//
// Synchronization is four atomics. The caller writes the epoch's fields,
// resets the cursor, sets open, and bumps the helpers' seq; a helper that
// saw the bump increments inside and only then reads open — set: it sees the
// fields and pulls tasks; clear: it leaves without touching anything — and
// decrements inside on the way out. The caller clears open before it reads
// inside. Go's atomics are sequentially consistent, so a helper whose
// increment the caller did not see reads open after the caller cleared it:
// it can enter the next epoch, never a closed one. Results written inside a
// task are visible to the caller once it has read inside == 0. An epoch
// performs no allocation.
//
// Which worker runs which task depends on scheduling, but tasks within an
// epoch touch disjoint state (one CU partition, one bank), so results never
// depend on the assignment.
type pool struct {
	// split is the static partition of the CUs for phase 1; parts, rebuilt
	// every phase-1 epoch, lists the partitions with a CU that can act.
	split, parts [][]*cu
	helpers      []*helper

	// The open epoch: written while the pool is closed.
	now      int64
	taskN    int
	taskFn   func(int)
	tickPart func(int) // p.tick, bound once

	cursor  atomic.Int64
	open    atomic.Bool
	inside  atomic.Int32
	stopped atomic.Bool
}

// helper is one pool goroutine's mailbox.
type helper struct {
	seq    atomic.Uint32 // bumped for every epoch this helper is invited to
	parked atomic.Bool   // set while the helper is (about to be) asleep on wake
	wake   chan struct{}
	_      [64]byte // keeps two helpers' seq words on different cache lines
}

const (
	// spinTight polls run back to back (about 0.4 µs): they cover the usual
	// hand-off, where the other side is already running, without entering
	// the scheduler, whose run-queue lock two yielding goroutines contend
	// for.
	spinTight = 1024
	// spinYield polls follow with a runtime.Gosched between them — other
	// goroutines (the garbage collector's, another job's workers when the
	// host is oversubscribed) get the processor first. Together they last
	// about 30 µs, a park/wake round trip: the point past which sleeping is
	// cheaper than spinning.
	spinYield = 256
)

// newPool builds a pool max(cuWorkers, taskWorkers) wide, the caller
// included. CUs are partitioned contiguously into cuWorkers phase-1 tasks,
// so neighboring CUs (which tend to receive workgroups together) are ticked
// by one worker.
func newPool(cus []*cu, cuWorkers, taskWorkers int) *pool {
	if cuWorkers > len(cus) {
		cuWorkers = len(cus)
	}
	if cuWorkers < 1 {
		cuWorkers = 1
	}
	p := &pool{}
	p.tickPart = p.tick
	base, rem := len(cus)/cuWorkers, len(cus)%cuWorkers
	start := 0
	for i := 0; i < cuWorkers; i++ {
		size := base
		if i < rem {
			size++
		}
		p.split = append(p.split, cus[start:start+size])
		start += size
	}
	p.parts = make([][]*cu, 0, len(p.split))
	for i := 1; i < max(cuWorkers, taskWorkers); i++ {
		h := &helper{wake: make(chan struct{}, 1)}
		p.helpers = append(p.helpers, h)
		go p.help(h)
	}
	return p
}

// await returns h.seq once it has moved past seen.
func (h *helper) await(seen uint32) uint32 {
	for spins := 0; ; spins++ {
		if s := h.seq.Load(); s != seen {
			return s
		}
		switch {
		case spins < spinTight:
		case spins < spinTight+spinYield:
			runtime.Gosched()
		default:
			// Announce, then look again: the caller bumps seq and then
			// reads parked, so one of the two sees the other's store. A
			// token left over from a race both sides won only costs one
			// more turn of this loop.
			h.parked.Store(true)
			if h.seq.Load() == seen {
				<-h.wake
			}
			h.parked.Store(false)
			spins = 0
		}
	}
}

// post moves h.seq on and wakes the helper if it sleeps.
func (h *helper) post() {
	h.seq.Add(1)
	if h.parked.Load() {
		select {
		case h.wake <- struct{}{}:
		default: // a token is already there
		}
	}
}

func (p *pool) help(h *helper) {
	for seen := uint32(0); ; {
		seen = h.await(seen)
		if p.stopped.Load() {
			return
		}
		p.inside.Add(1)
		if p.open.Load() {
			p.pull()
		}
		p.inside.Add(-1)
	}
}

// pull runs tasks of the open epoch until none is left.
func (p *pool) pull() {
	for {
		i := int(p.cursor.Add(1)) - 1
		if i >= p.taskN {
			return
		}
		p.taskFn(i)
	}
}

// epoch runs fn(0..n-1), inviting the first helpers helpers, and returns
// when all n have finished.
func (p *pool) epoch(n int, fn func(int), helpers int) {
	p.taskN, p.taskFn = n, fn
	p.cursor.Store(0)
	p.open.Store(true)
	for _, h := range p.helpers[:helpers] {
		h.post()
	}
	p.pull()
	p.open.Store(false)
	for spins := 0; p.inside.Load() != 0; spins++ {
		if spins >= spinTight {
			runtime.Gosched()
		}
	}
}

func tickAll(part []*cu, now int64) {
	for _, c := range part {
		c.finWGs, c.tickErr = c.tick(now)
	}
}

// tick is the phase-1 task: partition i of the ones that can act.
func (p *pool) tick(i int) { tickAll(p.parts[i], p.now) }

// run executes phase 1 of cycle now and returns when every CU has been
// ticked. Only partitions with a CU that has a wave to visit become tasks:
// the tick of a sleeping CU just accounts for an idle cycle, which the
// caller does on the way, and with fewer than two such partitions there is
// nothing to share. (Workgroups fill the lowest-numbered CUs first, so a
// small dispatch leaves whole partitions empty from start to end.)
func (p *pool) run(now int64) {
	p.now, p.parts = now, p.parts[:0]
	for _, part := range p.split {
		awake := false
		for _, c := range part {
			if c.awake(now) {
				awake = true
				break
			}
		}
		if awake {
			p.parts = append(p.parts, part)
		} else {
			tickAll(part, now)
		}
	}
	if len(p.parts) < 2 {
		for _, part := range p.parts {
			tickAll(part, now)
		}
		return
	}
	p.epoch(len(p.parts), p.tickPart, len(p.parts)-1)
}

// runTasks executes fn(0..n-1) across up to workers pool workers, the
// caller among them, and returns when all n have finished. It satisfies
// mem.Executor.
func (p *pool) runTasks(n int, fn func(int), workers int) {
	p.epoch(n, fn, max(0, min(workers-1, len(p.helpers))))
}

// stop terminates the helpers. Safe only between epochs.
func (p *pool) stop() {
	p.stopped.Store(true)
	for _, h := range p.helpers {
		h.post()
	}
	p.helpers = nil
	p.split = nil
}
