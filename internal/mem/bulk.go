package mem

import "encoding/binary"

// Bulk writes: a host-side array lands in the image page by page, the
// little-endian words stored straight into each page, with the data and the
// recorded footprint of the equivalent WriteU32/WriteU64 call per word.

// touchWords records n consecutive size-byte words from addr as the per-word
// calls would: a word counts unless its own address lies in the excluded
// range, so the words before the range and those after it are one run each.
func (m *Memory) touchWords(addr uint64, n int, size uint64) {
	if !m.trackFootprint {
		return
	}
	// index of the first word at or after x
	index := func(x uint64) int {
		if x <= addr {
			return 0
		}
		return int(min((x-addr+size-1)/size, uint64(n)))
	}
	lo, hi := index(m.exclLo), index(m.exclHi)
	if lo > 0 {
		m.touchLines(addr, lo*int(size))
	}
	if hi < n {
		m.touchLines(addr+uint64(hi)*size, (n-hi)*int(size))
	}
}

// WriteU32s writes vals as consecutive little-endian uint32s from addr.
func (m *Memory) WriteU32s(addr uint64, vals []uint32) { writeWords(m, addr, vals, 4) }

// WriteU64s writes vals as consecutive little-endian uint64s from addr.
func (m *Memory) WriteU64s(addr uint64, vals []uint64) { writeWords(m, addr, vals, 8) }

// writeWords stores size-byte words (size is T's) a page's worth at a time,
// in one loop per word size: a per-word closure choosing the size cost more
// than the stores.
func writeWords[T uint32 | uint64](m *Memory, addr uint64, vals []T, size int) {
	m.touchWords(addr, len(vals), uint64(size))
	for len(vals) > 0 {
		off := addr & (PageSize - 1)
		k := min(len(vals), int(PageSize-off)/size)
		switch {
		case k == 0: // an unaligned word straddling two pages
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(vals[0]))
			m.store(addr, b[:size])
			k = 1
		case size == 4:
			data := m.page(addr).data[off : off+4*uint64(k)]
			for i, v := range vals[:k] {
				binary.LittleEndian.PutUint32(data[4*i:], uint32(v))
			}
		default:
			data := m.page(addr).data[off : off+8*uint64(k)]
			for i, v := range vals[:k] {
				binary.LittleEndian.PutUint64(data[8*i:], uint64(v))
			}
		}
		vals, addr = vals[k:], addr+uint64(size*k)
	}
}
