package mem

import (
	"math/rand"
	"testing"
)

// recorder is a fake lowest level that records every access it sees.
type recorder struct {
	addrs  []uint64
	writes []bool
}

func (r *recorder) Access(addr uint64, write bool, now int64) int64 {
	r.addrs = append(r.addrs, addr)
	r.writes = append(r.writes, write)
	return now + 1
}

// TestVictimAddressRoundTrip pins the write-back eviction path's address:
// the victim address handed to the lower level must be the line-aligned
// address originally inserted, for single- and multi-bank geometries.
func TestVictimAddressRoundTrip(t *testing.T) {
	for _, banks := range []int{1, 2} {
		rec := &recorder{}
		// 4 KiB, 64B lines, 2 ways -> 32 sets.
		c := NewCache("wb", 4<<10, 64, 2, 1, true, rec, banks)
		// Dirty a line, then force its eviction with two more fills of the
		// same set (stride = sets*lineSize keeps the set index fixed).
		const stride = 32 * 64
		victim := uint64(3 * 64) // set 3, tag 0
		c.Access(victim, true, 0)
		c.Access(victim+stride, true, 10)
		c.Access(victim+2*stride, true, 20) // evicts the dirty victim
		var got []uint64
		for i, a := range rec.addrs {
			if rec.writes[i] {
				got = append(got, a)
			}
		}
		if len(got) != 1 || got[0] != victim {
			t.Fatalf("banks=%d: victim write-backs %#x, want exactly [%#x]",
				banks, got, victim)
		}
	}
}

// TestVictimWriteBackLandsOnLowerBank checks that a dirty victim's posted
// write-back reaches the lower level's correct bank (DRAM channel), not
// merely "some channel".
func TestVictimWriteBackLandsOnLowerBank(t *testing.T) {
	dram := NewDRAM(4, 64, 100, 4)
	// 2 ways, 32 sets: same-set fills with stride 32*64.
	c := NewCache("wb", 4<<10, 64, 2, 1, true, dram, 2)
	const stride = 32 * 64
	victim := uint64(5 * 64) // line 5 -> channel 5%4 == 1
	c.Access(victim, true, 0)
	c.Access(victim+stride, true, 10)
	c.Access(victim+2*stride, true, 20) // evicts the dirty victim
	wantCh := dram.BankOf(victim)
	if wantCh != 1 {
		t.Fatalf("test geometry drifted: victim channel %d, want 1", wantCh)
	}
	// Channel 1 must have seen exactly the victim write; the three write
	// misses each fill-read their own channel (5%4=1, 37%4=1, 69%4=1 —
	// same-set stride keeps the channel fixed too, so channel 1 sees the
	// three fill reads plus one victim write).
	if got := dram.BankStats(wantCh).Accesses; got != 4 {
		t.Fatalf("channel %d accesses = %d, want 4 (3 fills + victim write)", wantCh, got)
	}
	for ch := 0; ch < 4; ch++ {
		if ch != wantCh && dram.BankStats(ch).Accesses != 0 {
			t.Fatalf("channel %d saw %d accesses, want 0", ch, dram.BankStats(ch).Accesses)
		}
	}
}

// TestDRAMInterleaveFollowsLineSize pins the satellite fix: the channel
// shift derives from the configured line size instead of a hardcoded 64.
func TestDRAMInterleaveFollowsLineSize(t *testing.T) {
	d64 := NewDRAM(4, 64, 100, 4)
	d128 := NewDRAM(4, 128, 100, 4)
	if d64.BankOf(64) != 1 || d64.BankOf(256) != 0 {
		t.Fatalf("64B interleave wrong: %d %d", d64.BankOf(64), d64.BankOf(256))
	}
	if d128.BankOf(64) != 0 || d128.BankOf(128) != 1 || d128.BankOf(512) != 0 {
		t.Fatalf("128B interleave wrong: %d %d %d",
			d128.BankOf(64), d128.BankOf(128), d128.BankOf(512))
	}
	// Two accesses inside one 128B line must queue on one channel.
	a := d128.Access(0, false, 0)
	b := d128.Access(64, false, 0)
	if a != 100 || b != 104 {
		t.Fatalf("same-line contention: a=%d b=%d, want 100, 104", a, b)
	}
}

// TestBankedCacheCountersMatchSingleBank: banking splits ports, not
// residency — hit/miss/eviction totals must be identical to banks=1.
func TestBankedCacheCountersMatchSingleBank(t *testing.T) {
	run := func(banks int) CacheStats {
		c := NewCache("c", 2<<10, 64, 2, 4, false, nil, banks)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 4000; i++ {
			c.Access(uint64(rng.Intn(256))*64, rng.Intn(4) == 0, int64(i))
		}
		return c.Stats()
	}
	s1, s4 := run(1), run(4)
	if s1.Accesses != s4.Accesses || s1.Hits != s4.Hits ||
		s1.Misses != s4.Misses || s1.Evictions != s4.Evictions {
		t.Fatalf("counters diverge: banks=1 %+v banks=4 %+v", s1, s4)
	}
}

// hier is a miniature GPU memory system for drain tests.
type hier struct {
	l1s   []*Cache
	bufs  []*RequestBuffer
	drain *Drain
	l2    *Cache
	dram  *DRAM
	// ready[src] collects (tag, ready) pairs per source.
	ready [][2]int64
}

func buildHier(nSrc, l2Banks, channels int) *hier {
	h := &hier{}
	h.dram = NewDRAM(channels, 64, 100, 4)
	h.l2 = NewCache("L2", 8<<10, 64, 2, 8, true, h.dram, l2Banks)
	var srcs []DrainSource
	for i := 0; i < nSrc; i++ {
		l1 := NewCache("L1", 1<<10, 64, 2, 2, false, h.l2, 1)
		h.l1s = append(h.l1s, l1)
		buf := &RequestBuffer{}
		buf.Register(l1)
		h.bufs = append(h.bufs, buf)
		srcs = append(srcs, DrainSource{Buf: buf, Complete: func(tag int, ready int64) {
			h.ready = append(h.ready, [2]int64{int64(tag), ready})
		}})
	}
	h.drain = NewDrain(h.l1s, srcs, h.l2, h.dram)
	return h
}

// genRequests appends a deterministic pseudo-random request mix to every
// source buffer. Addresses stay within the L2 capacity so no dirty L2
// victims arise (their write-back replay order is the one deliberate
// departure from the synchronous path).
func genRequests(h *hier, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	var lines []uint64
	for s, buf := range h.bufs {
		d := 0 // handle from Register(l1)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				lines = lines[:0]
				for k := 0; k <= rng.Intn(4); k++ {
					lines = append(lines, uint64(rng.Intn(96))*64)
				}
				buf.Append(d, lines, rng.Intn(4) == 0, s*1000+i)
			} else {
				buf.AppendLine(d, uint64(rng.Intn(96))*64, rng.Intn(4) == 0, s*1000+i)
			}
		}
	}
}

// syncReplay applies every buffered request of h synchronously, in (source,
// append, line) order at cycle now, recording completions as the drain
// would, and empties the buffers.
func syncReplay(h *hier, now int64) {
	for s, buf := range h.bufs {
		for i := range buf.reqs {
			ready := now
			for _, lr := range buf.dests[0].lines {
				if lr.req != int32(i) {
					continue
				}
				if done := h.l1s[s].Access(lr.line, lr.write, now); done > ready {
					ready = done
				}
			}
			h.ready = append(h.ready, [2]int64{int64(buf.reqs[i].tag), ready})
		}
		buf.Reset()
	}
}

// sameHier fails unless two hierarchies recorded identical completions and
// identical per-bank counters at every level.
func sameHier(t *testing.T, what string, a, b *hier) {
	t.Helper()
	if len(a.ready) != len(b.ready) {
		t.Fatalf("%s: %d completions, want %d", what, len(a.ready), len(b.ready))
	}
	for i := range a.ready {
		if a.ready[i] != b.ready[i] {
			t.Fatalf("%s: completion %d = %v, want %v", what, i, a.ready[i], b.ready[i])
		}
	}
	for i := range a.l1s {
		if x, y := a.l1s[i].Stats(), b.l1s[i].Stats(); x != y {
			t.Fatalf("%s: L1 %d stats %+v, want %+v", what, i, x, y)
		}
	}
	for bank := 0; bank < a.l2.NumBanks(); bank++ {
		if x, y := a.l2.BankStats(bank), b.l2.BankStats(bank); x != y {
			t.Fatalf("%s: L2 bank %d stats %+v, want %+v", what, bank, x, y)
		}
	}
	for ch := 0; ch < a.dram.NumBanks(); ch++ {
		if x, y := a.dram.BankStats(ch), b.dram.BankStats(ch); x != y {
			t.Fatalf("%s: DRAM channel %d stats %+v, want %+v", what, ch, x, y)
		}
	}
}

// TestDrainMatchesSynchronousReplay: where the synchronous Access path
// defines an order — single-bank level-1 caches and either one L2 bank
// without dirty victims, or one line per flush — the level-wave pipeline
// must reproduce it exactly: same per-request ready cycles, same counters.
func TestDrainMatchesSynchronousReplay(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		hA, hB := buildHier(2, 1, 2), buildHier(2, 1, 2)
		genRequests(hA, 7, 40)
		genRequests(hB, 7, 40)
		hA.drain.Flush(100, nil)
		syncReplay(hB, 100)
		sameHier(t, "drain vs sync", hA, hB)
	})
	// One line per flush from a random source, over four times the L2: the
	// L1 task and L2 bank of flush N are idle in flush N+1 while another
	// source deposits into the same L2 bank or DRAM channel, and L2 evicts
	// dirty victims. Anything a sparse flush left behind in an idle task's
	// buckets would be replayed by (or hidden from) a sibling's lower bank
	// and show in the counters.
	t.Run("sparse", func(t *testing.T) {
		hA, hB := buildHier(3, 4, 4), buildHier(3, 4, 4)
		rng := rand.New(rand.NewSource(21))
		for f := 0; f < 4000; f++ {
			src, line := rng.Intn(3), uint64(rng.Intn(512))*64
			write, now := rng.Intn(3) == 0, int64(f*5)
			for _, h := range []*hier{hA, hB} {
				if f%50 == 0 {
					h.bufs[(src+1)%3].Append(0, nil, false, -f) // a zero-line request rides along
				}
				h.bufs[src].AppendLine(0, line, write, f)
			}
			hA.drain.Flush(now, nil)
			syncReplay(hB, now)
		}
		sameHier(t, "drain vs sync", hA, hB)
		if hA.l2.Stats().Evictions == 0 {
			t.Fatal("stream never evicted from L2")
		}
	})
}

// TestDrainLevel1ReplayOrder: an L2 bank replays the misses of one flush in
// level-1 task order (the l1s order NewDrain was given), not in the order
// the sources happened to touch their destinations. Source 0 fetches through
// a cache shared with source 1 — last in l1s — and source 1 through its own,
// so the flush wakes the shared cache's task first; the synchronous path
// applied in l1s order is the reference.
func TestDrainLevel1ReplayOrder(t *testing.T) {
	build := func() (own, shared *Cache) {
		l2 := NewCache("L2", 8<<10, 64, 2, 8, true, NewDRAM(1, 64, 100, 4), 1)
		return NewCache("L1", 1<<10, 64, 2, 2, false, l2, 1),
			NewCache("shared", 1<<10, 64, 2, 2, false, l2, 1)
	}
	own, shared := build()
	l2 := own.lower.(*Cache)
	var got [2]int64
	var bufs [2]RequestBuffer
	var srcs []DrainSource
	for i := range bufs {
		bufs[i].Register(own) // handle 0; only source 1 uses it
		bufs[i].Register(shared)
		srcs = append(srcs, DrainSource{Buf: &bufs[i],
			Complete: func(tag int, ready int64) { got[tag] = ready }})
	}
	drain := NewDrain([]*Cache{own, shared}, srcs, l2, l2.lower.(*DRAM))
	bufs[0].AppendLine(1, 0x1000, false, 0)
	bufs[1].AppendLine(0, 0x2000, false, 1)
	drain.Flush(10, nil)

	refOwn, refShared := build()
	wantOwn := refOwn.Access(0x2000, false, 10)
	wantShared := refShared.Access(0x1000, false, 10)
	if want := [2]int64{wantShared, wantOwn}; got != want {
		t.Fatalf("ready cycles %v, want %v (own cache's miss reaches L2 first)", got, want)
	}
}

// TestDrainVictimWriteBackOrder pins the order finalize applies dirty-L2-
// victim write-backs in — ascending L2 bank, whichever bank the flush woke
// first. Two mirrored hierarchies run the same stream with sources 0 and 1
// swapped, so in the last flush, where each L2 bank receives one read that
// evicts a dirty line and both write-backs queue on the one DRAM channel,
// one hierarchy wakes bank 1 first and the other bank 0. Each L2 bank sees
// the same job either way, so everything below the L1s must agree.
func TestDrainVictimWriteBackOrder(t *testing.T) {
	run := func(swap int) *hier {
		h := buildHier(2, 2, 1)
		now := int64(0)
		flush1 := func(src int, line uint64, write bool) {
			h.bufs[src^swap].AppendLine(0, line*64, write, 0)
			h.drain.Flush(now, nil)
			now += 1000
		}
		// L2: 64 sets x 2 ways, bank = set % 2. Dirty both ways of set 0
		// (bank 0) and set 1 (bank 1); L1 write misses post straight down.
		for _, line := range []uint64{0, 64, 1, 65} {
			flush1(0, line, true)
		}
		// One flush: source 0 reads a third line of set 1, source 1 a third
		// line of set 0.
		h.bufs[0^swap].AppendLine(0, 129*64, false, 1)
		h.bufs[1^swap].AppendLine(0, 128*64, false, 2)
		h.ready = h.ready[:0]
		h.drain.Flush(now, nil)
		return h
	}
	a, b := run(0), run(1)
	for bank := 0; bank < 2; bank++ {
		if a.l2.BankStats(bank).Evictions != 1 {
			t.Fatalf("scenario drifted: L2 bank %d evictions = %d, want 1", bank, a.l2.BankStats(bank).Evictions)
		}
	}
	if got := a.dram.Stats().Accesses; got != 4+2+2 {
		t.Fatalf("scenario drifted: DRAM accesses = %d, want 4 fills + 2 fills + 2 write-backs", got)
	}
	// Completion order follows source order; match the two runs by tag.
	b.ready[0], b.ready[1] = b.ready[1], b.ready[0]
	a.l1s, b.l1s = nil, nil // mirrored by construction, not compared
	sameHier(t, "mirrored sources", a, b)
	if a.ready[0][1] == a.ready[1][1] {
		t.Fatal("scenario drifted: the two fills completed together, so order cannot show")
	}
}

// TestDrainZeroLineRequest: a request with an empty line set must still
// complete, at the flush cycle.
func TestDrainZeroLineRequest(t *testing.T) {
	h := buildHier(1, 1, 1)
	h.bufs[0].Append(0, nil, false, 42)
	h.drain.Flush(7, nil)
	if len(h.ready) != 1 || h.ready[0] != [2]int64{42, 7} {
		t.Fatalf("zero-line completion = %v", h.ready)
	}
}
