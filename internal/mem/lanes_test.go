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

// laneScenario is one wave access: per-lane addresses that mix unit-stride
// runs, repeats (same-address atomics), scattered lines and words that
// straddle a page.
func laneScenario(rng *rand.Rand, base uint64, size int) (addrs [isa.WavefrontSize]uint64, active isa.ExecMask) {
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
			addrs[l] = 0x7000_0000 + uint64(rng.Intn(64)) // inside the excluded range
		}
	}
	switch rng.Intn(4) {
	case 0:
		active = isa.FullMask(64)
	case 1:
		active = isa.FullMask(1 + rng.Intn(63))
	default:
		active = isa.ExecMask(rng.Uint64())
	}
	return addrs, active
}

// TestLaneAccessMatchesPerLaneCalls: the wave forms leave memory, the
// returned data and the touched-line footprint exactly as the per-lane
// ReadU32/ReadU64/WriteU32/WriteU64/AtomicAddU32 calls they replace.
func TestLaneAccessMatchesPerLaneCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const base = 0x1000_0000
	wave, lane := NewMemory(), NewMemory()
	for _, m := range []*Memory{wave, lane} {
		m.ExcludeFromFootprint(0x7000_0000, 0x7000_0040)
		for i := uint64(0); i < 1<<16; i += 8 {
			m.WriteU64(base+i, i*0x9E3779B97F4A7C15)
		}
		m.ResetFootprint()
	}
	for round := 0; round < 300; round++ {
		size := 4 + 4*rng.Intn(2)
		addrs, active := laneScenario(rng, base, size)
		var lo, hi, wantLo, wantHi [isa.WavefrontSize]uint32
		for l := range lo {
			lo[l], hi[l] = rng.Uint32(), rng.Uint32()
		}
		wantLo, wantHi = lo, hi
		op := rng.Intn(3)
		if op == 2 {
			size = 4
		}
		for l := 0; l < isa.WavefrontSize; l++ {
			if !active.Bit(l) {
				continue
			}
			switch {
			case op == 0 && size == 8:
				v := lane.ReadU64(addrs[l])
				wantLo[l], wantHi[l] = uint32(v), uint32(v>>32)
			case op == 0:
				wantLo[l] = lane.ReadU32(addrs[l])
			case op == 1 && size == 8:
				lane.WriteU64(addrs[l], uint64(lo[l])|uint64(hi[l])<<32)
			case op == 1:
				lane.WriteU32(addrs[l], lo[l])
			default:
				wantLo[l] = lane.AtomicAddU32(addrs[l], lo[l])
			}
		}
		switch op {
		case 0:
			wave.LoadLanes(&addrs, active, size, &lo, &hi)
		case 1:
			wave.StoreLanes(&addrs, active, size, &lo, &hi)
		default:
			wave.AtomicAddLanes(&addrs, active, &lo, &lo) // ret aliases val
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("round %d op %d size %d: lane data differs", round, op, size)
		}
		if round%50 == 49 {
			// Toggling tracking and resetting must keep both in step.
			wave.SetFootprintTracking(round%100 == 49)
			lane.SetFootprintTracking(round%100 == 49)
		}
	}
	got, want := touchedLines(t, wave), touchedLines(t, lane)
	if !slices.Equal(got, want) {
		t.Fatalf("footprints differ: %d lines vs %d", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("no footprint recorded")
	}
	for i := uint64(0); i < 1<<16+2*PageSize; i += 4 {
		if a, b := wave.ReadU32(base+i), lane.ReadU32(base+i); a != b {
			t.Fatalf("memory differs at %#x: %#x != %#x", base+i, a, b)
		}
	}
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
