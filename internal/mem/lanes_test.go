package mem

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ilsim/internal/isa"
)

// touchedLines lists the line numbers in m's footprint, ascending, and checks
// the running count against the bitmap.
func touchedLines(t *testing.T, m *Memory) []uint64 {
	t.Helper()
	var lines []uint64
	for base, p := range m.pages {
		for w := p.touched; w != 0; w &= w - 1 {
			lines = append(lines, base*(PageSize/LineSize)+uint64(bits.TrailingZeros64(w)))
		}
	}
	slices.Sort(lines)
	if got := m.FootprintBytes(); got != uint64(len(lines))*LineSize {
		t.Fatalf("FootprintBytes = %d with %d lines set", got, len(lines))
	}
	return lines
}

// The scenarios' excluded range: a page start, so a run inside that page
// can overlap it or lie just clear of it.
const exclLo, exclHi = 0x7000_0000, 0x7000_0040

// laneScenario is one wave access. Half the time it is a whole-wave shape
// (waveScenario); otherwise per-lane addresses that mix unit-stride runs,
// repeats (same-address atomics), scattered lines and words that straddle a
// page.
func laneScenario(rng *rand.Rand, base uint64, size int) (addrs [isa.WavefrontSize]uint64, active isa.ExecMask) {
	if rng.Intn(2) == 0 {
		return waveScenario(rng, base, size)
	}
	for l := range addrs {
		switch rng.Intn(6) {
		case 0:
			addrs[l] = base + uint64(l*size)
		case 1:
			addrs[l] = base + uint64(rng.Intn(8)*size)
		case 2:
			addrs[l] = base + uint64(rng.Intn(1<<16))&^3
		case 3:
			addrs[l] = base + uint64(1+rng.Intn(4))*PageSize - uint64(1+rng.Intn(size-1)) // straddles
		case 4:
			addrs[l] = base + uint64(rng.Intn(1<<16)) // unaligned
		default:
			addrs[l] = exclLo + uint64(rng.Intn(64)) // inside the excluded range
		}
	}
	return addrs, randomMask(rng)
}

// waveScenario is a shape the whole-wave stride test judges: every lane at
// one word (uniform) or lane l at start+l*size (unit stride), starting
// size-aligned, unaligned, so the run ends exactly at a page end, so it
// straddles that end by 1..size bytes, inside the excluded range, or just
// clear of it; a quarter of the runs have one lane knocked off the stride,
// and a quarter a partial mask.
func waveScenario(rng *rand.Rand, base uint64, size int) (addrs [isa.WavefrontSize]uint64, active isa.ExecMask) {
	stride := uint64(size) * uint64(rng.Intn(2))
	span := uint64(isa.WavefrontSize-1)*stride + uint64(size)
	page := base + uint64(rng.Intn(15))*PageSize
	var start uint64
	switch rng.Intn(6) {
	case 0:
		start = page + uint64(rng.Intn(int(PageSize-span)))&^uint64(size-1)
	case 1:
		start = page + 1 + uint64(rng.Intn(int(PageSize-span-1)))
	case 2:
		start = page + PageSize - span
	case 3:
		start = page + PageSize - span + 1 + uint64(rng.Intn(size))
	case 4:
		start = exclLo + uint64(rng.Intn(exclHi-exclLo))
	default:
		start = exclHi + uint64(rng.Intn(2)*rng.Intn(64))
	}
	for l := range addrs {
		addrs[l] = start + uint64(l)*stride
	}
	if rng.Intn(4) == 0 {
		addrs[1+rng.Intn(isa.WavefrontSize-1)] += uint64(1 + rng.Intn(2*size))
	}
	active = isa.FullMask(isa.WavefrontSize)
	if rng.Intn(4) == 0 {
		active = randomMask(rng)
	}
	return addrs, active
}

func randomMask(rng *rand.Rand) isa.ExecMask {
	switch rng.Intn(4) {
	case 0:
		return isa.FullMask(64)
	case 1:
		return isa.FullMask(1 + rng.Intn(63))
	}
	return isa.ExecMask(rng.Uint64())
}

// Lane operations: a load, a store and a 32-bit atomic add.
const (
	opLoad = iota
	opStore
	opAtomicAdd
)

// accessPerLane performs op on every active lane through the per-lane calls
// the wave forms replace, in ascending lane order.
func accessPerLane(m *Memory, op int, addrs *[isa.WavefrontSize]uint64, active isa.ExecMask, size int, lo, hi *[isa.WavefrontSize]uint32) {
	for l := 0; l < isa.WavefrontSize; l++ {
		if !active.Bit(l) {
			continue
		}
		switch {
		case op == opLoad && size == 8:
			v := m.ReadU64(addrs[l])
			lo[l], hi[l] = uint32(v), uint32(v>>32)
		case op == opLoad:
			lo[l] = m.ReadU32(addrs[l])
		case op == opStore && size == 8:
			m.WriteU64(addrs[l], uint64(lo[l])|uint64(hi[l])<<32)
		case op == opStore:
			m.WriteU32(addrs[l], lo[l])
		default:
			lo[l] = m.AtomicAddU32(addrs[l], lo[l])
		}
	}
}

// accessWave performs op through the wave forms.
func accessWave(m *Memory, op int, addrs *[isa.WavefrontSize]uint64, active isa.ExecMask, size int, lo, hi *[isa.WavefrontSize]uint32) {
	switch op {
	case opLoad:
		m.LoadLanes(addrs, active, size, lo, hi)
	case opStore:
		m.StoreLanes(addrs, active, size, lo, hi)
	default:
		m.AtomicAddLanes(addrs, active, lo, lo) // ret aliases val
	}
}

// laneMemories returns two images (for the wave forms and for the per-lane
// calls) that exclude the 64 bytes from excl from the footprint, hold the
// same pattern in the n bytes from base, and have empty footprints.
func laneMemories(base uint64, n int, excl uint64) (wave, lane *Memory) {
	words := make([]uint64, n/8)
	for i := range words {
		words[i] = uint64(i) * 8 * 0x9E3779B97F4A7C15
	}
	wave, lane = NewMemory(), NewMemory()
	for _, m := range []*Memory{wave, lane} {
		m.ExcludeFromFootprint(excl, excl+64)
		m.WriteU64s(base, words)
		m.ResetFootprint()
	}
	return wave, lane
}

// sameMemory fails t unless wave and lane hold the same footprint and the
// same bytes in [lo, hi).
func sameMemory(t *testing.T, wave, lane *Memory, lo, hi uint64) {
	t.Helper()
	got, want := touchedLines(t, wave), touchedLines(t, lane)
	if !slices.Equal(got, want) {
		t.Fatalf("footprints differ: %d lines vs %d", len(got), len(want))
	}
	x, y := make([]byte, hi-lo), make([]byte, hi-lo)
	wave.Read(lo, x)
	lane.Read(lo, y)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("memory differs at %#x: %#x != %#x", lo+uint64(i), x[i], y[i])
		}
	}
}

// TestLaneAccessMatchesPerLaneCalls: the wave forms leave memory, the
// returned data and the touched-line footprint exactly as the per-lane
// ReadU32/ReadU64/WriteU32/WriteU64/AtomicAddU32 calls they replace — on the
// whole-wave path and the per-lane one alike.
func TestLaneAccessMatchesPerLaneCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const base = 0x1000_0000
	wave, lane := laneMemories(base, 1<<16, exclLo)
	fast := 0
	for round := 0; round < 600; round++ {
		size := 4 + 4*rng.Intn(2)
		addrs, active := laneScenario(rng, base, size)
		var lo, hi, wantLo, wantHi [isa.WavefrontSize]uint32
		for l := range lo {
			lo[l], hi[l] = rng.Uint32(), rng.Uint32()
		}
		wantLo, wantHi = lo, hi
		op := rng.Intn(3)
		if op == opAtomicAdd {
			size = 4
		}
		if first, last, _, ok := waveRun(&addrs, active, size); ok && op != opAtomicAdd &&
			(last < exclLo || first >= exclHi) {
			fast++
		}
		accessPerLane(lane, op, &addrs, active, size, &wantLo, &wantHi)
		accessWave(wave, op, &addrs, active, size, &lo, &hi)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("round %d op %d size %d: lane data differs", round, op, size)
		}
		if round%50 == 49 {
			// Toggling tracking and resetting must keep both in step.
			wave.SetFootprintTracking(round%100 == 49)
			lane.SetFootprintTracking(round%100 == 49)
		}
	}
	if fast < 50 {
		t.Fatalf("only %d accesses took the whole-wave path", fast)
	}
	if len(touchedLines(t, wave)) == 0 {
		t.Fatal("no footprint recorded")
	}
	sameMemory(t, wave, lane, base, base+1<<16+2*PageSize)
	sameMemory(t, wave, lane, exclLo-PageSize, exclLo+PageSize)
}

// FuzzLaneAccess holds the wave forms to the per-lane calls — data, memory
// and footprint — for any run the fuzzer builds: a start near a page end or
// the excluded range, a stride (0, 4 and 8 take the whole-wave path), one
// lane bumped off it, a mask, an operation.
func FuzzLaneAccess(f *testing.F) {
	// Addresses are base + start + l*stride (+ bump for one lane): under
	// 80 KB from base, whose third page starts with the excluded range.
	const base, excl = 0x1000_0000, 2 * PageSize
	full := ^uint64(0)
	f.Add(uint16(0), uint8(4), false, full, uint8(opLoad), uint8(0), uint8(0))
	f.Add(uint16(0x123), uint8(0), true, full, uint8(opStore), uint8(0), uint8(0))
	f.Add(uint16(PageSize-256), uint8(4), false, full, uint8(opStore), uint8(0), uint8(0))
	f.Add(uint16(2*PageSize-511), uint8(8), true, full, uint8(opLoad), uint8(0), uint8(0))
	f.Add(uint16(excl+8), uint8(8), true, full, uint8(opLoad), uint8(0), uint8(0))
	f.Add(uint16(excl+64), uint8(0), false, full, uint8(opAtomicAdd), uint8(0), uint8(0))
	f.Add(uint16(64), uint8(4), false, full>>1, uint8(opLoad), uint8(0), uint8(0))
	f.Add(uint16(64), uint8(4), false, full, uint8(opStore), uint8(33), uint8(4))
	f.Fuzz(func(t *testing.T, start uint16, stride uint8, wide bool, mask uint64, op, bumped, bump uint8) {
		size, o := 4, int(op)%3
		if wide && o != opAtomicAdd {
			size = 8
		}
		var addrs [isa.WavefrontSize]uint64
		for l := range addrs {
			addrs[l] = base + uint64(start) + uint64(l)*uint64(stride)
		}
		addrs[bumped%isa.WavefrontSize] += uint64(bump)
		lowest, highest := slices.Min(addrs[:]), slices.Max(addrs[:])+8
		wave, lane := laneMemories(lowest&^7, int(highest-lowest+8), base+excl)
		var lo, hi [isa.WavefrontSize]uint32
		for l := range lo {
			lo[l], hi[l] = uint32(l)*0x01010101, ^uint32(l)
		}
		wantLo, wantHi := lo, hi
		accessPerLane(lane, o, &addrs, isa.ExecMask(mask), size, &wantLo, &wantHi)
		accessWave(wave, o, &addrs, isa.ExecMask(mask), size, &lo, &hi)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("op %d size %d: lane data differs", o, size)
		}
		sameMemory(t, wave, lane, lowest, highest)
	})
}

// TestFootprintBitmapIsExact: the per-page bitmap holds exactly the lines of
// every tracked access — across page boundaries, re-touches and a reset.
func TestFootprintBitmapIsExact(t *testing.T) {
	m := NewMemory()
	want := map[uint64]struct{}{}
	rng := rand.New(rand.NewSource(3))
	touch := func(addr uint64, n int) {
		m.Read(addr, make([]byte, n))
		for l := addr / LineSize; l <= (addr+uint64(n)-1)/LineSize; l++ {
			want[l] = struct{}{}
		}
	}
	check := func(when string) {
		t.Helper()
		lines := make([]uint64, 0, len(want))
		for l := range want {
			lines = append(lines, l)
		}
		slices.Sort(lines)
		if got := touchedLines(t, m); !slices.Equal(got, lines) {
			t.Fatalf("%s: footprint has %d lines, want %d", when, len(got), len(lines))
		}
	}
	for i := 0; i < 5000; i++ {
		// Up to three pages per access, eight page groups far apart.
		addr := uint64(rng.Intn(8))<<16 + uint64(rng.Intn(4096))
		touch(addr, 1+rng.Intn(2*PageSize))
	}
	check("random ranges")
	m.ResetFootprint()
	clear(want)
	check("after reset")
	touch(64, 4) // was set before the reset
	touch(4096-2, 4)
	check("after reset and two touches")
}

// BenchmarkGather times one wave's global load as the emulator performs it:
// LoadLanes, then CoalesceInto on the same addresses (ns per wave). Lanes
// are 4-byte words at unit stride (one line-aligned 256-byte run, the
// whole-wave path), or each in its own line of a 64 KB vector (a divergent
// gather: 64 lines, sixteen pages).
func BenchmarkGather(b *testing.B) {
	const base, vector = 0x1_0000_0000, 64 << 10
	rng := rand.New(rand.NewSource(1))
	const perLane = vector / LineSize / isa.WavefrontSize // lines each lane draws from
	for _, shape := range []struct {
		name    string
		addr    func(wave, lane int) uint64
		shuffle bool
		lines   int
	}{
		{"unit", func(wave, lane int) uint64 { return base + uint64(wave%(vector/256))*256 + uint64(4*lane) }, false, 4},
		{"line-per-lane", func(_, lane int) uint64 { return base + uint64(lane*perLane+rng.Intn(perLane))*LineSize }, true, isa.WavefrontSize},
	} {
		waves := make([][isa.WavefrontSize]uint64, 1024)
		for w := range waves {
			for l := range waves[w] {
				waves[w][l] = shape.addr(w, l)
			}
			if shape.shuffle {
				rng.Shuffle(isa.WavefrontSize, func(i, j int) { waves[w][i], waves[w][j] = waves[w][j], waves[w][i] })
			}
		}
		b.Run(shape.name, func(b *testing.B) {
			m := NewMemory()
			m.Write(base, make([]byte, vector))
			full := isa.FullMask(isa.WavefrontSize)
			var lo, hi [isa.WavefrontSize]uint32
			lines := make([]uint64, 0, 2*isa.WavefrontSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := &waves[i%len(waves)]
				m.LoadLanes(w, full, 4, &lo, &hi)
				lines = CoalesceInto(lines[:0], w, 4, full)
			}
			if len(lines) != shape.lines {
				b.Fatalf("a wave coalesced to %d lines, want %d", len(lines), shape.lines)
			}
		})
	}
}
