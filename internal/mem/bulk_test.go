package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBulkWritesMatchPerWordLoop: WriteU32s/WriteU64s leave the image and the
// footprint exactly as one WriteU32/WriteU64 per word does — for ranges that
// run over several pages, unaligned ranges whose words straddle lines and
// pages, ranges that enter, leave, cover or sit inside the excluded range,
// with tracking on and off.
func TestBulkWritesMatchPerWordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const (
		base   = 0x2000_0000
		exclLo = base + 3*PageSize - 40
		exclHi = base + 3*PageSize + 200
	)
	for round := 0; round < 400; round++ {
		bulk, word := NewMemory(), NewMemory()
		for _, m := range []*Memory{bulk, word} {
			m.ExcludeFromFootprint(exclLo, exclHi)
			m.SetFootprintTracking(round%7 != 6)
		}
		for write := 0; write < 4; write++ {
			var addr uint64
			switch rng.Intn(4) {
			case 0: // aligned, as AllocBuffer hands them out
				addr = base + uint64(rng.Intn(6*PageSize))&^63
			case 1: // unaligned: words straddle lines and pages
				addr = base + uint64(rng.Intn(6*PageSize))
			case 2: // starts just below the excluded range
				addr = exclLo - uint64(rng.Intn(64))
			default: // starts inside it
				addr = exclLo + uint64(rng.Intn(exclHi-exclLo))
			}
			n := rng.Intn(3 * PageSize / 4)
			if rng.Intn(8) == 0 {
				n = rng.Intn(3)
			}
			if rng.Intn(2) == 0 {
				vals := make([]uint32, n)
				for i := range vals {
					vals[i] = rng.Uint32()
					word.WriteU32(addr+uint64(4*i), vals[i])
				}
				bulk.WriteU32s(addr, vals)
			} else {
				vals := make([]uint64, n/2)
				for i := range vals {
					vals[i] = rng.Uint64()
					word.WriteU64(addr+uint64(8*i), vals[i])
				}
				bulk.WriteU64s(addr, vals)
			}
		}
		if got, want := touchedLines(t, bulk), touchedLines(t, word); !slices.Equal(got, want) {
			t.Fatalf("round %d: footprint %d lines, per-word loop %d", round, len(got), len(want))
		}
		// Compare the images with tracking off, so reading changes nothing.
		bulk.SetFootprintTracking(false)
		word.SetFootprintTracking(false)
		for a := uint64(base - PageSize); a < base+10*PageSize; a += 8 {
			if g, w := bulk.ReadU64(a), word.ReadU64(a); g != w {
				t.Fatalf("round %d: image differs at %#x: %#x != %#x", round, a, g, w)
			}
		}
	}
}

// BenchmarkTouchLines times the footprint bookkeeping alone: one 4-byte
// access per line over a working set of 256 pages, unit-stride (the bulk and
// streaming shape) and scattered (the gather shape).
func BenchmarkTouchLines(b *testing.B) {
	const lines = 256 * PageSize / LineSize
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct {
		name string
		addr func(i int) uint64
	}{
		{"stride", func(i int) uint64 { return uint64(i) * LineSize }},
		{"scattered", func(int) uint64 { return uint64(rng.Intn(lines)) * LineSize }},
	} {
		addrs := make([]uint64, lines)
		for i := range addrs {
			addrs[i] = 0x1000_0000 + shape.addr(i)
		}
		b.Run(shape.name, func(b *testing.B) {
			m := NewMemory()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(addrs) == 0 {
					m.ResetFootprint()
				}
				m.touchLines(addrs[i%len(addrs)], 4)
			}
		})
	}
}

// BenchmarkWriteU32s writes ArrayBW@1's input — 16,384 words, 64 KB, at the
// heap base — into a new image, which allocates each page on first touch,
// and into a re-armed one (Reset), which hands its spare pages out again.
func BenchmarkWriteU32s(b *testing.B) {
	const heapBase = 0x0001_0000_0000 // hsa.HeapBase
	vals := make([]uint32, 16<<10)
	for i := range vals {
		vals[i] = uint32(i % 48)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(4 * len(vals)))
		for i := 0; i < b.N; i++ {
			NewMemory().WriteU32s(heapBase, vals)
		}
	})
	b.Run("rearmed", func(b *testing.B) {
		m := NewMemory()
		m.WriteU32s(heapBase, vals)
		b.ReportAllocs()
		b.SetBytes(int64(4 * len(vals)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			m.WriteU32s(heapBase, vals)
		}
	})
}
