package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ilsim/internal/isa"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, data []byte) bool {
		addr %= 1 << 40
		m.Write(addr, data)
		got := make([]byte, len(data))
		m.Read(addr, got)
		return bytes.Equal(data, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(PageSize - 3) // straddles a page boundary
	m.WriteU64(addr, 0x1122334455667788)
	if got := m.ReadU64(addr); got != 0x1122334455667788 {
		t.Fatalf("cross-page u64: got %#x", got)
	}
	m.WriteU32(addr, 0xDEADBEEF)
	if got := m.ReadU32(addr); got != 0xDEADBEEF {
		t.Fatalf("cross-page u32: got %#x", got)
	}
}

func TestMemoryZeroInitialized(t *testing.T) {
	m := NewMemory()
	if m.ReadU64(0x123456789) != 0 {
		t.Fatal("fresh memory not zero")
	}
}

// TestResetMatchesNewMemory: a re-armed image is a new one. After random
// writes over a few pages — with an excluded range and tracking switched
// off — Reset, and the same second round of writes and reads on the re-armed
// image and on a new one agree on every byte and on the footprint; the
// re-armed image hands its old pages out again instead of allocating.
func TestResetMatchesNewMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const base, span = 0x4000_0000, 8 * PageSize
	scribble := func(ms ...*Memory) {
		for i := 0; i < 200; i++ {
			addr := base + uint64(rng.Intn(span))
			data := make([]byte, 1+rng.Intn(300))
			rng.Read(data)
			for _, m := range ms {
				m.Write(addr, data)
			}
		}
	}
	reused := NewMemory()
	reused.ExcludeFromFootprint(base, base+PageSize)
	reused.SetFootprintTracking(false)
	scribble(reused)
	reused.SetFootprintTracking(true)
	scribble(reused)
	reused.Reset()

	fresh := NewMemory()
	scribble(reused, fresh)
	if got, want := reused.FootprintBytes(), fresh.FootprintBytes(); got != want {
		t.Fatalf("footprint after Reset %d, new image %d", got, want)
	}
	got, want := make([]byte, span+2*PageSize), make([]byte, span+2*PageSize)
	reused.Read(base-PageSize, got)
	fresh.Read(base-PageSize, want)
	if !bytes.Equal(got, want) {
		t.Fatal("the re-armed image's bytes differ from a new image's")
	}
	buf := make([]byte, span)
	if n := testing.AllocsPerRun(4, func() { reused.Reset(); reused.Write(base, buf) }); n > 0 {
		t.Fatalf("writing the pages the image had before Reset allocated %.0f times", n)
	}
}

func TestAtomicAdd(t *testing.T) {
	m := NewMemory()
	m.WriteU32(64, 10)
	if old := m.AtomicAddU32(64, 5); old != 10 {
		t.Fatalf("AtomicAddU32 returned %d, want 10", old)
	}
	if got := m.ReadU32(64); got != 15 {
		t.Fatalf("after AtomicAddU32: %d, want 15", got)
	}
}

func TestFootprintTracking(t *testing.T) {
	m := NewMemory()
	m.WriteU32(0, 1)    // line 0
	m.WriteU32(63, 1)   // still line 0 (touches 63..66: lines 0 and 1)
	m.WriteU32(4096, 1) // new line
	if got := m.FootprintBytes(); got != 3*LineSize {
		t.Fatalf("footprint %d, want %d", got, 3*LineSize)
	}
	m.SetFootprintTracking(false)
	m.WriteU32(1<<20, 1)
	m.SetFootprintTracking(true)
	if got := m.FootprintBytes(); got != 3*LineSize {
		t.Fatalf("untracked write counted: %d", got)
	}
	m.ExcludeFromFootprint(1<<21, 1<<22)
	m.WriteU32(1<<21, 1)
	if got := m.FootprintBytes(); got != 3*LineSize {
		t.Fatalf("excluded write counted: %d", got)
	}
	m.ResetFootprint()
	if m.FootprintBytes() != 0 {
		t.Fatal("reset did not clear footprint")
	}
}

func TestAllocatorAlignmentAndExhaustion(t *testing.T) {
	a := NewAllocator(100, 200)
	p1, err := a.Alloc(10, 64)
	if err != nil || p1%64 != 0 || p1 < 100 {
		t.Fatalf("p1=%d err=%v", p1, err)
	}
	p2, err := a.Alloc(10, 64)
	if err != nil || p2 <= p1 {
		t.Fatalf("p2=%d err=%v", p2, err)
	}
	if _, err := a.Alloc(1000, 1); err == nil {
		t.Fatal("expected exhaustion error")
	}

	// A size or an alignment that would carry the end past 2^64 is
	// exhaustion too, and leaves the region as it was.
	a = NewAllocator(0x1000, 0x1000)
	if p, err := a.Alloc(^uint64(0)-0xfff, 64); err == nil {
		t.Fatalf("wrapping size: got %#x, want exhaustion", p)
	}
	if p, err := a.Alloc(64, 1<<63); err == nil {
		t.Fatalf("alignment past the region: got %#x, want exhaustion", p)
	}
	if p, err := a.Alloc(64, 64); err != nil || p != 0x1000 {
		t.Fatalf("after refused requests: p=%#x err=%v, want 0x1000", p, err)
	}
	top := NewAllocator(^uint64(0)-0xff, 0x80)
	if p, err := top.Alloc(1, 1<<63); err == nil {
		t.Fatalf("wrapping alignment: got %#x, want exhaustion", p)
	}
}

func TestCacheHitMissBasics(t *testing.T) {
	dram := NewDRAM(4, 64, 100, 4)
	c := NewCache("L1", 1024, 64, 2, 4, false, dram, 1)
	// First access misses, second hits.
	d1 := c.Access(0x1000, false, 0)
	if c.Stats().Misses != 1 || d1 <= 4 {
		t.Fatalf("first access: misses=%d done=%d", c.Stats().Misses, d1)
	}
	d2 := c.Access(0x1000, false, d1)
	if c.Stats().Hits != 1 || d2 != d1+4+1 && d2 != d1+4 {
		t.Fatalf("second access: hits=%d done=%d (start %d)", c.Stats().Hits, d2, d1)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct construction: 2 ways, 1 set (128B cache, 64B lines).
	c := NewCache("tiny", 128, 64, 2, 1, false, nil, 1)
	c.Access(0*64, false, 0)   // A
	c.Access(1*64*2, false, 1) // B maps to same set? sets=1, so yes
	c.Access(0*64, false, 2)   // A again: hit
	if c.Stats().Hits != 1 {
		t.Fatalf("expected A to still be resident, hits=%d", c.Stats().Hits)
	}
	c.Access(4*64, false, 3) // C evicts LRU (B)
	c.Access(0*64, false, 4) // A still resident
	if c.Stats().Hits != 2 {
		t.Fatalf("LRU evicted the wrong line, hits=%d", c.Stats().Hits)
	}
	c.Access(1*64*2, false, 5) // B was evicted: miss
	if c.Stats().Misses != 4 {
		t.Fatalf("misses=%d, want 4", c.Stats().Misses)
	}
}

func TestCacheFullyAssociative(t *testing.T) {
	c := NewCache("fa", 16<<10, 64, 0, 16, false, nil, 1)
	// 256 lines fit exactly; touching 256 distinct lines then re-touching
	// them all must be all hits.
	for i := 0; i < 256; i++ {
		c.Access(uint64(i*64), false, int64(i))
	}
	for i := 0; i < 256; i++ {
		c.Access(uint64(i*64), false, int64(256+i))
	}
	if c.Stats().Hits != 256 || c.Stats().Misses != 256 {
		t.Fatalf("hits=%d misses=%d, want 256/256", c.Stats().Hits, c.Stats().Misses)
	}
}

func TestWriteThroughVsWriteBack(t *testing.T) {
	dram := NewDRAM(1, 64, 10, 1)
	wt := NewCache("wt", 1024, 64, 2, 1, false, dram, 1)
	wt.Access(0, true, 0) // write miss, write-through no-allocate
	wt.Access(0, false, 1)
	if wt.Stats().Hits != 0 {
		t.Fatal("write-through no-allocate must not fill on write miss")
	}
	dram2 := NewDRAM(1, 64, 10, 1)
	wb := NewCache("wb", 1024, 64, 2, 1, true, dram2, 1)
	wb.Access(0, true, 0) // write miss, allocate
	wb.Access(0, false, 20)
	if wb.Stats().Hits != 1 {
		t.Fatal("write-back must allocate on write miss")
	}
}

func TestDRAMChannelContention(t *testing.T) {
	d := NewDRAM(2, 64, 100, 10)
	// Two requests to the same channel queue; different channels do not.
	a := d.Access(0, false, 0)   // channel 0
	b := d.Access(128, false, 0) // channel 0 again (line 2 % 2 == 0)
	c := d.Access(64, false, 0)  // channel 1
	if a != 100 || b != 110 || c != 100 {
		t.Fatalf("contention wrong: a=%d b=%d c=%d", a, b, c)
	}
}

// TestCoalesceAgainstBruteForce: the coalesced lines are every line an active
// lane's word touches, once each, in first-touch order — for random
// addresses near one base, for the lane-access tests' scenarios, whose
// whole-wave shapes take CoalesceInto's stride path, for 64 8-byte words
// that each straddle two lines (128 lines, the most a wave can name), and
// for lines that all set one bit of CoalesceInto's filter. Each access is
// also coalesced after lines already in the buffer, which it must not
// repeat.
func TestCoalesceAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(what string, addrs *[isa.WavefrontSize]uint64, size int, mask isa.ExecMask) {
		t.Helper()
		var want []uint64
		seen := map[uint64]bool{}
		for l := 0; l < isa.WavefrontSize; l++ {
			if !mask.Bit(l) {
				continue
			}
			for a := addrs[l] &^ 63; a <= (addrs[l]+uint64(size)-1)&^63; a += 64 {
				if !seen[a] {
					seen[a] = true
					want = append(want, a)
				}
			}
		}
		if got := Coalesce(addrs, size, mask); !slices.Equal(got, want) {
			t.Fatalf("%s: lines %#x, want %#x", what, got, want)
		}
		// After a prefix holding every other wanted line and one line
		// the access does not touch.
		prefix := []uint64{^uint64(63)}
		for i := 0; i < len(want); i += 2 {
			prefix = append(prefix, want[i])
		}
		wantAfter := slices.Clone(prefix)
		for i := 1; i < len(want); i += 2 {
			wantAfter = append(wantAfter, want[i])
		}
		if got := CoalesceInto(slices.Clone(prefix), addrs, size, mask); !slices.Equal(got, wantAfter) {
			t.Fatalf("%s after %d lines: lines %#x, want %#x", what, len(prefix), got, wantAfter)
		}
	}
	for iter := 0; iter < 300; iter++ {
		var addrs [isa.WavefrontSize]uint64
		mask := isa.ExecMask(rng.Uint64())
		size := []int{4, 8}[rng.Intn(2)]
		base := uint64(rng.Intn(1 << 20))
		for l := range addrs {
			addrs[l] = base + uint64(rng.Intn(512))
		}
		check(fmt.Sprintf("random %d", iter), &addrs, size, mask)
	}
	for iter := 0; iter < 600; iter++ {
		size := []int{4, 8}[rng.Intn(2)]
		addrs, mask := laneScenario(rng, 0x1000_0000, size)
		check(fmt.Sprintf("scenario %d", iter), &addrs, size, mask)
	}
	full := isa.FullMask(isa.WavefrontSize)
	for iter := 0; iter < 50; iter++ {
		// Lane l reads the last 4 bytes of line 2l and the first 4 of
		// line 2l+1, lanes shuffled; some runs repeat a lane's word.
		var addrs [isa.WavefrontSize]uint64
		for l := range addrs {
			addrs[l] = 0x2000_0000 + uint64(2*l+1)*LineSize - 4
		}
		rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		mask := full
		if iter%2 == 1 {
			addrs[rng.Intn(len(addrs))] = addrs[rng.Intn(len(addrs))]
			mask = isa.ExecMask(rng.Uint64())
		}
		check(fmt.Sprintf("straddling %d", iter), &addrs, 8, mask)
	}
	// Lines whose filter bit is that of line 0x3000_0000: every one after
	// the first must be looked for among those before it.
	var colliding []uint64
	bit := func(l uint64) lineFilter {
		var f lineFilter
		f.add(l)
		return f
	}
	for l, want := uint64(0x3000_0000), bit(0x3000_0000); len(colliding) < 2*isa.WavefrontSize; l += LineSize {
		if bit(l) == want {
			colliding = append(colliding, l)
		}
	}
	for iter := 0; iter < 50; iter++ {
		var addrs [isa.WavefrontSize]uint64
		for l := range addrs {
			addrs[l] = colliding[rng.Intn(len(colliding))] + uint64(rng.Intn(LineSize/4)*4)
		}
		mask := full
		if iter%2 == 1 {
			mask = isa.ExecMask(rng.Uint64())
		}
		check(fmt.Sprintf("colliding %d", iter), &addrs, 4, mask)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache("r", 1024, 64, 2, 1, false, nil, 1)
	c.Access(0, false, 0)
	c.Reset()
	if c.Stats().Accesses != 0 {
		t.Fatal("stats not reset")
	}
	c.Access(0, false, 0)
	if c.Stats().Misses != 1 {
		t.Fatal("contents not reset")
	}
}
