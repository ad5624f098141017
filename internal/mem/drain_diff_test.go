package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// drainCase is one randomly shaped hierarchy for the drain's differential
// tests: nSrc sources with an own level-1 cache each (bit i of wbMask makes
// source i's write-back), optionally one more level-1 cache shared by sources
// [0, sharers) and replayed at place sharedPos of the level-1 order, over a
// banked L2 of l2Lines lines — a fraction of the 256-line address space the
// scripts range over, so dirty victims are common — and a channeled DRAM.
// Every level-1 cache has l1Ways ways; the L2 has l2Ways. Table 4's shapes
// are among them: a 16-way scanned L2 and a fully associative (l1Ways 0)
// level-1 cache of 32 lines, wider than scanWays, so indexed.
type drainCase struct {
	nSrc, l2Banks, channels int
	wbMask                  uint8
	sharers, sharedPos      int
	sharedWB, l2WB          bool
	l2Lines                 int
	l1Ways, l2Ways          int
}

func newDrainCase(nSrc, l2Banks, channels, wb, shared uint8) drainCase {
	g := drainCase{nSrc: 1 + int(nSrc)%8, l2Banks: 1 + int(l2Banks)%8, channels: 1 + int(channels)%8, wbMask: wb}
	g.sharers = int(shared&0x0F) % (g.nSrc + 1)
	g.sharedPos = int(shared>>4&7) % (g.nSrc + 1)
	g.sharedWB = shared&0x80 != 0
	g.l2WB = l2Banks&0xC0 != 0xC0 // a write-through L2 one time in four
	g.l2Lines = 32 << (channels >> 7)
	g.l1Ways = []int{2, 16, 0}[int(nSrc>>3&3)%3]
	g.l2Ways = []int{2, 16}[l2Banks>>3&1]
	return g
}

// l1Bytes is a level-1 cache's size: 8 lines of 2 ways, or 32 lines, two
// 16-way sets or one fully associative set.
func (g drainCase) l1Bytes() int {
	if g.l1Ways == 2 {
		return 512
	}
	return 32 * 64
}

func (g drainCase) String() string {
	return fmt.Sprintf("%d sources (wb %08b), %d-byte %d-way L1s, shared L1 by %d at %d (wb %v), L2 %d lines x %d ways x %d banks (wb %v), %d channels",
		g.nSrc, g.wbMask, g.l1Bytes(), g.l1Ways, g.sharers, g.sharedPos, g.sharedWB, g.l2Lines, g.l2Ways, g.l2Banks, g.l2WB, g.channels)
}

// lineSink is what both request buffers — today's and the reference's — offer
// a producer.
type lineSink interface {
	Register(c *Cache) int
	AppendLine(d int, line uint64, write bool, tag int)
	Append(d int, lines []uint64, write bool, tag int)
}

// drainSide is one of the two hierarchies of a differential run: a hier (its
// l1s in replay order, its ready filled in callback order) whose buffers and
// drain are either today's or the reference's.
type drainSide struct {
	hier
	sinks []lineSink
	own   []int // own[src] is the handle of the source's own cache
	share []int // share[src] the shared cache's, for src < sharers
	flush func(now int64)
}

// build makes the hierarchy of g, drained by Drain or (ref) by refDrain.
func (g drainCase) build(ref bool) *drainSide {
	s := &drainSide{}
	s.dram = NewDRAM(g.channels, 64, 100, 4)
	s.l2 = NewCache("L2", g.l2Lines*64, 64, g.l2Ways, 8, g.l2WB, s.dram, g.l2Banks)
	for i := 0; i < g.nSrc; i++ {
		s.l1s = append(s.l1s, NewCache(fmt.Sprintf("L1.%d", i), g.l1Bytes(), 64, g.l1Ways, 2, g.wbMask>>i&1 != 0, s.l2, 1))
	}
	own := slices.Clone(s.l1s)
	var shared *Cache
	if g.sharers > 0 {
		shared = NewCache("shared", g.l1Bytes(), 64, g.l1Ways, 2, g.sharedWB, s.l2, 1)
		s.l1s = slices.Insert(s.l1s, g.sharedPos, shared)
	}
	// Odd sources register the shared cache first, so handle order and
	// replay order differ.
	register := func(src int, buf lineSink) {
		if src < g.sharers && src%2 == 1 {
			s.share = append(s.share, buf.Register(shared))
		}
		s.own = append(s.own, buf.Register(own[src]))
		if src < g.sharers && src%2 == 0 {
			s.share = append(s.share, buf.Register(shared))
		}
		s.sinks = append(s.sinks, buf)
	}
	complete := func(tag int, ready int64) { s.ready = append(s.ready, [2]int64{int64(tag), ready}) }
	if ref {
		var srcs []refDrainSource
		for i := 0; i < g.nSrc; i++ {
			buf := &refRequestBuffer{}
			register(i, buf)
			srcs = append(srcs, refDrainSource{Buf: buf, Complete: complete})
		}
		d := newRefDrain(s.l1s, srcs, s.l2, s.dram)
		s.flush = func(now int64) { d.Flush(now, nil) }
		return s
	}
	var srcs []DrainSource
	for i := 0; i < g.nSrc; i++ {
		buf := &RequestBuffer{}
		register(i, buf)
		srcs = append(srcs, DrainSource{Buf: buf, Complete: complete})
	}
	d := NewDrain(s.l1s, srcs, s.l2, s.dram)
	s.flush = func(now int64) { d.Flush(now, nil) }
	return s
}

// checkDrainAgainstReference plays one script into both hierarchies of g and
// compares them after every flush. A script is a run of 3-byte records
// {op, x, y}: op&7 == 0 flushes, x%8 cycles after the last flush; anything
// else is a request of source op>>3&7, to the shared cache if op&0x40 (and
// the source has it), writing if y&3 == 0, starting at line x — op&7 == 1
// with no lines at all, 2–4 one line by AppendLine, 5–7 1 + y>>2&3 lines
// (stride 1 + y>>4) by Append. Sources a flush's records never name are idle.
// It returns the L2 evictions the script caused.
func checkDrainAgainstReference(t *testing.T, g drainCase, script []byte) uint64 {
	t.Helper()
	got, want := g.build(false), g.build(true)
	now, flushes, tag := int64(0), 0, 0
	label := g.String() + ": flush "
	flush := func() {
		got.flush(now)
		want.flush(now)
		flushes++
		sameHier(t, label+strconv.Itoa(flushes), &got.hier, &want.hier)
		got.ready, want.ready = got.ready[:0], want.ready[:0]
	}
	var lines []uint64
	for ; len(script) >= 3; script = script[3:] {
		op, x, y := script[0], script[1], script[2]
		if op&7 == 0 {
			now += int64(x % 8)
			flush()
			continue
		}
		src := int(op>>3&7) % g.nSrc
		lines = lines[:0]
		if op&7 >= 2 {
			lines = append(lines, uint64(x)*64)
		}
		if op&7 >= 5 {
			for k := 1; k <= int(y>>2&3); k++ {
				lines = append(lines, uint64(uint8(int(x)+k*(1+int(y>>4))))*64)
			}
		}
		for _, s := range []*drainSide{got, want} {
			d := s.own[src]
			if op&0x40 != 0 && src < g.sharers {
				d = s.share[src]
			}
			if op&7 >= 2 && op&7 <= 4 {
				s.sinks[src].AppendLine(d, lines[0], y&3 == 0, tag)
			} else {
				s.sinks[src].Append(d, lines, y&3 == 0, tag)
			}
		}
		tag++
	}
	now++
	flush()
	return got.l2.Stats().Evictions
}

// TestDrainMatchesReference is the serial drain's differential oracle: over
// 300 random hierarchies — 1–8 sources with write-back and write-through
// level-1 caches, a level-1 cache shared by several of them anywhere in the
// replay order, 2-way, 16-way and fully associative level-1 caches, 2-way
// and 16-way L2s in 1–8 banks, 1–8 DRAM channels, an L2 an eighth or a
// quarter of the address range — and about 200 flushes each, with idle
// sources, zero-line requests and same-cycle flushes mixed in, Drain must
// reproduce the level-wave drain it replaced (refDrain, drain_ref_test.go)
// completion for completion and bank counter for bank counter. Perturbing
// the level-1 order, the L2 bank order or the write-back-after-all-fills
// order fails it.
func TestDrainMatchesReference(t *testing.T) {
	var evictions uint64
	shapes := map[[2]int]int{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var geom [5]byte
		rng.Read(geom[:])
		script := make([]byte, 3*1600)
		rng.Read(script)
		g := newDrainCase(geom[0], geom[1], geom[2], geom[3], geom[4])
		shapes[[2]int{g.l1Ways, g.l2Ways}]++
		evictions += checkDrainAgainstReference(t, g, script)
	}
	if evictions < 300*1000 {
		t.Fatalf("only %d L2 evictions over 300 hierarchies: dirty victims are not common", evictions)
	}
	for _, l1 := range []int{2, 16, 0} {
		for _, l2 := range []int{2, 16} {
			if n := shapes[[2]int{l1, l2}]; n < 20 {
				t.Errorf("only %d hierarchies with %d-way level-1 caches over a %d-way L2", n, l1, l2)
			}
		}
	}
	t.Logf("%d L2 evictions; hierarchies by (level-1 ways, L2 ways): %v", evictions, shapes)
}

// FuzzDrainReplay lets the fuzzer shape the hierarchy and write the script.
func FuzzDrainReplay(f *testing.F) {
	// Two sources sharing a cache: a write, a read through the shared cache
	// and a two-line read, in one flush.
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), uint8(0x02), []byte{2, 0, 0, 0x4A, 64, 1, 5, 128, 0x17, 0, 1, 0})
	// Eight write-back sources over eight banks and channels, an arbitrary script.
	f.Add(uint8(7), uint8(7), uint8(7), uint8(0xFF), uint8(0x88), []byte("dirty victims, every bank, every channel, flushed often\x00\x00\x00"))
	// One source over a write-through L2: a zero-line request flushed alone,
	// then a write that posts through both levels.
	f.Add(uint8(0), uint8(0xC0), uint8(0x80), uint8(0), uint8(0), []byte{1, 0, 0, 0, 0, 0, 3, 7, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, nSrc, l2Banks, channels, wb, shared uint8, script []byte) {
		checkDrainAgainstReference(t, newDrainCase(nSrc, l2Banks, channels, wb, shared), script)
	})
}
