package mem

import (
	"math/bits"

	"ilsim/internal/isa"
)

// CoalesceInto merges the per-lane addresses of one wavefront memory
// instruction into the set of distinct cache-line requests, the function the
// CU's coalescing logic performs (Figure 2). Lines are appended to buf
// (typically a wave's reusable scratch, sliced to length 0) so the hot path
// allocates nothing once the scratch has grown; the result preserves
// first-touch order, which keeps timing deterministic.
//
// An access that passes the whole-wave stride test (waveRun: one word, or
// consecutive words, in one page) covers one range of distinct lines, which
// first-touch order lists in ascending order. Any other access is deduped in
// linear time without a map: a 256-bit filter on the stack answers
// "certainly new" for most lines of a divergent gather, and only a line
// whose filter bit is already set is looked for in the lines so far — the
// most recent one first, since consecutive lanes overwhelmingly touch the
// line just inserted. A wavefront's accesses coalesce to at most
// 2×WavefrontSize lines.
func CoalesceInto(buf []uint64, addrs *[isa.WavefrontSize]uint64, accessBytes int, active isa.ExecMask) []uint64 {
	if first, last, _, ok := waveRun(addrs, active, accessBytes); ok {
		// The run's lines are distinct: only buf's own can repeat them.
		had := buf
		for l := first &^ (LineSize - 1); l <= last; l += LineSize {
			if !containsLine(had, l) {
				buf = append(buf, l)
			}
		}
		return buf
	}
	var seen lineFilter
	for _, l := range buf {
		seen.add(l)
	}
	for m := uint64(active); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m) & 63
		first := addrs[lane] &^ (LineSize - 1)
		last := (addrs[lane] + uint64(accessBytes) - 1) &^ (LineSize - 1)
		for l := first; l <= last; l += LineSize {
			if !seen.add(l) || !containsLine(buf, l) {
				buf = append(buf, l)
			}
		}
	}
	return buf
}

// lineFilter is a 256-bit Bloom filter of one hash over line addresses: a
// clear bit proves a line absent. 128 lines, the most a wave can name, set at
// most half its bits.
type lineFilter [4]uint64

// add sets l's bit and reports whether it was set already.
func (f *lineFilter) add(l uint64) bool {
	h := l / LineSize * 0x9E3779B97F4A7C15 >> 56
	w, bit := h>>6, uint64(1)<<(h&63)
	was := f[w]&bit != 0
	f[w] |= bit
	return was
}

// containsLine reports whether l is already coalesced, checking the most
// recently inserted line first (the common sequential-access hit).
func containsLine(lines []uint64, l uint64) bool {
	for i := len(lines) - 1; i >= 0; i-- {
		if lines[i] == l {
			return true
		}
	}
	return false
}

// Coalesce is CoalesceInto with a fresh buffer.
func Coalesce(addrs *[isa.WavefrontSize]uint64, accessBytes int, active isa.ExecMask) []uint64 {
	return CoalesceInto(nil, addrs, accessBytes, active)
}
