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
// The dedup is a linear scan rather than a map: a wavefront's accesses
// coalesce to at most 2×WavefrontSize lines and usually to a handful, and
// consecutive lanes overwhelmingly touch the line just inserted. An access
// that passes the whole-wave stride test (waveRun: one word, or consecutive
// words, in one page) covers one range of lines, which first-touch order
// lists in ascending order.
func CoalesceInto(buf []uint64, addrs *[isa.WavefrontSize]uint64, accessBytes int, active isa.ExecMask) []uint64 {
	if first, last, _, ok := waveRun(addrs, active, accessBytes); ok {
		for l := first &^ (LineSize - 1); l <= last; l += LineSize {
			if !containsLine(buf, l) {
				buf = append(buf, l)
			}
		}
		return buf
	}
	for m := uint64(active); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m) & 63
		first := addrs[lane] &^ (LineSize - 1)
		last := (addrs[lane] + uint64(accessBytes) - 1) &^ (LineSize - 1)
		for l := first; l <= last; l += LineSize {
			if !containsLine(buf, l) {
				buf = append(buf, l)
			}
		}
	}
	return buf
}

// containsLine reports whether l is already coalesced, checking the most
// recently inserted line first (the common sequential-access hit).
func containsLine(lines []uint64, l uint64) bool {
	n := len(lines)
	if n == 0 {
		return false
	}
	if lines[n-1] == l {
		return true
	}
	for _, have := range lines[:n-1] {
		if have == l {
			return true
		}
	}
	return false
}

// Coalesce is CoalesceInto with a fresh buffer.
func Coalesce(addrs *[isa.WavefrontSize]uint64, accessBytes int, active isa.ExecMask) []uint64 {
	return CoalesceInto(nil, addrs, accessBytes, active)
}
