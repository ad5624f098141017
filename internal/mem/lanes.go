package mem

import (
	"encoding/binary"
	"math/bits"

	"ilsim/internal/isa"
)

// Wave-granular access: one call moves a whole wavefront memory
// instruction's data between the image and a pair of register arrays (low
// and high dwords per lane; hi is unused for 4-byte accesses). Only lanes
// set in active are accessed, in ascending lane order — the order in which
// overlapping stores and same-address atomics resolve — and the recorded
// footprint is exactly that of the equivalent per-lane ReadU32/ReadU64/
// WriteU32/WriteU64/AtomicAddU32 calls. What the wave form saves is the
// per-lane policy lookup, the 8-byte temporary and the copy: the page is
// resolved once per run of same-page lanes and the little-endian word is
// read or written in place.

// laneAccess is the per-instruction state of a wave access: the footprint
// policy, looked up once, and the page of the previous lane with its bytes.
type laneAccess struct {
	m              *Memory
	track          bool
	exclLo, exclHi uint64
	base           uint64
	page           *page
	data           *[PageSize]byte
}

func (m *Memory) laneAccess() laneAccess {
	a := laneAccess{m: m, base: ^uint64(0)}
	a.track, a.exclLo, a.exclHi = m.trackFootprint, m.exclLo, m.exclHi
	return a
}

// word records the access in the footprint and returns the bytes of the
// page holding addr with the offset of addr in them; ok is false when the
// size bytes at addr straddle a page (the caller falls back to the
// byte-copying path, which records the footprint itself).
func (a *laneAccess) word(addr uint64, size uint64) (data []byte, off uint64, ok bool) {
	off = addr & (PageSize - 1)
	if off+size > PageSize {
		return nil, 0, false
	}
	if base := addr >> PageBits; base != a.base {
		a.base, a.page = base, a.m.page(addr)
		a.data = a.page.data
	}
	if a.track && !(addr >= a.exclLo && addr < a.exclHi) {
		// One line, or two when the word is unaligned across a boundary.
		first, last := off/LineSize, (off+size-1)/LineSize
		a.m.touchMask(a.page, 1<<first|1<<last)
	}
	return a.data[:], off, true
}

// LoadLanes reads the size-byte (4 or 8) little-endian word at addrs[l]
// into lo[l] (and hi[l]) for every active lane l.
func (m *Memory) LoadLanes(addrs *[isa.WavefrontSize]uint64, active isa.ExecMask, size int, lo, hi *[isa.WavefrontSize]uint32) {
	a := m.laneAccess()
	for e := uint64(active); e != 0; e &= e - 1 {
		l := bits.TrailingZeros64(e) & 63
		p, off, ok := a.word(addrs[l], uint64(size))
		switch {
		case size == 8 && ok:
			lo[l], hi[l] = binary.LittleEndian.Uint32(p[off:]), binary.LittleEndian.Uint32(p[off+4:])
		case size == 8:
			v := m.ReadU64(addrs[l])
			lo[l], hi[l] = uint32(v), uint32(v>>32)
		case ok:
			lo[l] = binary.LittleEndian.Uint32(p[off:])
		default:
			lo[l] = m.ReadU32(addrs[l])
		}
	}
}

// StoreLanes writes lo[l] (and hi[l]) as the size-byte (4 or 8)
// little-endian word at addrs[l] for every active lane l.
func (m *Memory) StoreLanes(addrs *[isa.WavefrontSize]uint64, active isa.ExecMask, size int, lo, hi *[isa.WavefrontSize]uint32) {
	a := m.laneAccess()
	for e := uint64(active); e != 0; e &= e - 1 {
		l := bits.TrailingZeros64(e) & 63
		p, off, ok := a.word(addrs[l], uint64(size))
		switch {
		case size == 8 && ok:
			binary.LittleEndian.PutUint32(p[off:], lo[l])
			binary.LittleEndian.PutUint32(p[off+4:], hi[l])
		case size == 8:
			m.WriteU64(addrs[l], uint64(lo[l])|uint64(hi[l])<<32)
		case ok:
			binary.LittleEndian.PutUint32(p[off:], lo[l])
		default:
			m.WriteU32(addrs[l], lo[l])
		}
	}
}

// AtomicAddLanes performs a 32-bit fetch-add of val[l] at addrs[l] for
// every active lane l, returning the prior value in ret[l]. Lanes naming
// the same address serialize in lane order. ret may alias val.
func (m *Memory) AtomicAddLanes(addrs *[isa.WavefrontSize]uint64, active isa.ExecMask, val, ret *[isa.WavefrontSize]uint32) {
	a := m.laneAccess()
	for e := uint64(active); e != 0; e &= e - 1 {
		l := bits.TrailingZeros64(e) & 63
		p, off, ok := a.word(addrs[l], 4)
		if !ok {
			ret[l] = m.AtomicAddU32(addrs[l], val[l])
			continue
		}
		old := binary.LittleEndian.Uint32(p[off:])
		binary.LittleEndian.PutUint32(p[off:], old+val[l])
		ret[l] = old
	}
}
