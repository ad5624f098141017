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
//
// Loads and stores first try the whole wave at once (waveSpan). A stride
// test looks at lane 1 to find the stride and gives up at the first lane off
// it, so a gather costs it one or two compares. It accepts a full-exec
// access whose lanes all name one word (stride 0: a uniform address) or
// consecutive words (stride = access size), when every byte lies in one page
// and none in the footprint-excluded range. Such an access costs one page
// lookup, one footprint mask of the lines it covers, and one straight loop
// over the lanes — a broadcast for stride 0, where a store leaves the last
// lane's word as the per-lane order would. Everything else — partial masks,
// other strides, page straddles, the excluded range — takes the per-lane
// path below. CoalesceInto applies the same stride test.

// waveRun reports whether a full-exec access of size-byte words forms one
// run — every lane at addrs[0] (stride 0) or lane l at addrs[0]+l*size —
// that lies in one page, and returns the run's first and last byte.
func waveRun(addrs *[isa.WavefrontSize]uint64, active isa.ExecMask, size int) (first, last, stride uint64, ok bool) {
	if active != isa.FullMask(isa.WavefrontSize) {
		return 0, 0, 0, false
	}
	first, stride = addrs[0], addrs[1]-addrs[0]
	if stride != 0 && stride != uint64(size) {
		return 0, 0, 0, false
	}
	for l, a := 2, first+2*stride; l < isa.WavefrontSize; l, a = l+1, a+stride {
		if addrs[l] != a {
			return 0, 0, 0, false
		}
	}
	last = first + (isa.WavefrontSize-1)*stride + uint64(size) - 1
	if first>>PageBits != last>>PageBits {
		return 0, 0, 0, false
	}
	return first, last, stride, true
}

// waveSpan is waveRun for a load or a store: for a run clear of the
// footprint-excluded range it records the footprint and returns the bytes of
// the run's page from the run's first byte on.
func (m *Memory) waveSpan(addrs *[isa.WavefrontSize]uint64, active isa.ExecMask, size int) (data []byte, stride uint64, ok bool) {
	first, last, stride, ok := waveRun(addrs, active, size)
	if !ok || (first < m.exclHi && last >= m.exclLo) {
		return nil, 0, false
	}
	p := m.page(first)
	off := first & (PageSize - 1)
	if m.trackFootprint {
		lo, hi := off/LineSize, (last&(PageSize-1))/LineSize
		m.touchMask(p, ^uint64(0)>>(63-(hi-lo))<<lo)
	}
	return p.data[off:], stride, true
}

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

// start arms a for one instruction on m. It writes the fields in place: a
// literal returned and copied would reload them across store boundaries.
func (a *laneAccess) start(m *Memory) {
	a.m, a.base = m, ^uint64(0)
	a.track, a.exclLo, a.exclHi = m.trackFootprint, m.exclLo, m.exclHi
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
		// A gather changes page at almost every lane: ask the TLB here, and
		// call out only when it misses.
		a.base, a.page = base, a.m.cached(base)
		if a.page == nil {
			a.page = a.m.lookup(base)
		}
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
	if d, stride, ok := m.waveSpan(addrs, active, size); ok {
		switch {
		case stride == 0 && size == 8:
			v0, v1 := binary.LittleEndian.Uint32(d), binary.LittleEndian.Uint32(d[4:])
			for l := range lo {
				lo[l], hi[l] = v0, v1
			}
		case stride == 0:
			v := binary.LittleEndian.Uint32(d)
			for l := range lo {
				lo[l] = v
			}
		case size == 8:
			for l := range lo {
				lo[l], hi[l] = binary.LittleEndian.Uint32(d[8*l:]), binary.LittleEndian.Uint32(d[8*l+4:])
			}
		default:
			for l := range lo {
				lo[l] = binary.LittleEndian.Uint32(d[4*l:])
			}
		}
		return
	}
	var a laneAccess
	a.start(m)
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
	if d, stride, ok := m.waveSpan(addrs, active, size); ok {
		const last = isa.WavefrontSize - 1
		switch {
		case stride == 0 && size == 8:
			binary.LittleEndian.PutUint32(d, lo[last])
			binary.LittleEndian.PutUint32(d[4:], hi[last])
		case stride == 0:
			binary.LittleEndian.PutUint32(d, lo[last])
		case size == 8:
			for l := range lo {
				binary.LittleEndian.PutUint32(d[8*l:], lo[l])
				binary.LittleEndian.PutUint32(d[8*l+4:], hi[l])
			}
		default:
			for l := range lo {
				binary.LittleEndian.PutUint32(d[4*l:], lo[l])
			}
		}
		return
	}
	var a laneAccess
	a.start(m)
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
	var a laneAccess
	a.start(m)
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
