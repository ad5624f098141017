package emu

import (
	"encoding/binary"
	"math/bits"

	"ilsim/internal/isa"
)

// ldsWord returns the size bytes of lds at addr, or nil when any of them is
// outside the allocation. The comparison is unsigned: an address whose
// 64-bit base-plus-offset arithmetic wrapped is simply out of range.
func ldsWord(lds []byte, addr uint64, size int) []byte {
	n := uint64(len(lds))
	if addr > n || n-addr < uint64(size) {
		return nil
	}
	return lds[addr : addr+uint64(size)]
}

// ldsRead loads a little-endian word of size 4 or 8 bytes from a workgroup's
// LDS. Out-of-range reads return 0.
func ldsRead(lds []byte, addr uint64, size int) uint64 {
	b := ldsWord(lds, addr, size)
	switch {
	case b == nil:
		return 0
	case size == 8:
		return binary.LittleEndian.Uint64(b)
	}
	return uint64(binary.LittleEndian.Uint32(b))
}

// ldsWrite stores the low size bytes of v, little-endian. Out-of-range
// writes are dropped.
func ldsWrite(lds []byte, addr uint64, size int, v uint64) {
	b := ldsWord(lds, addr, size)
	switch {
	case b == nil:
	case size == 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		binary.LittleEndian.PutUint32(b, uint32(v))
	}
}

// The wave forms below access lds at addrs[l]+off for every lane l set in
// mask, in ascending lane order (overlapping writes and same-address atomics
// resolve in that order, as the hardware's LDS unit guarantees).

func ldsLoadLanes(lds []byte, addrs *[isa.WavefrontSize]uint64, off uint64, mask isa.ExecMask, size int, dst lanePair) {
	for e := uint64(mask); e != 0; e &= e - 1 {
		l := bits.TrailingZeros64(e) & 63
		v := ldsRead(lds, addrs[l]+off, size)
		dst.lo[l] = uint32(v)
		if size == 8 {
			dst.hi[l] = uint32(v >> 32)
		}
	}
}

func ldsStoreLanes(lds []byte, addrs *[isa.WavefrontSize]uint64, off uint64, mask isa.ExecMask, size int, src lanePair) {
	for e := uint64(mask); e != 0; e &= e - 1 {
		l := bits.TrailingZeros64(e) & 63
		ldsWrite(lds, addrs[l]+off, size, uint64(src.lo[l])|uint64(src.hi[l])<<32)
	}
}

// ldsAddLanes is the 32-bit LDS fetch-add: ret[l] receives the prior value.
func ldsAddLanes(lds []byte, addrs *[isa.WavefrontSize]uint64, off uint64, mask isa.ExecMask, val, ret *lanes) {
	for e := uint64(mask); e != 0; e &= e - 1 {
		l := bits.TrailingZeros64(e) & 63
		old := uint32(ldsRead(lds, addrs[l]+off, 4))
		ldsWrite(lds, addrs[l]+off, 4, uint64(old+val[l]))
		ret[l] = old
	}
}

// ldsBankConflicts returns the extra serialization cycles for per-lane LDS
// word addresses: the LDS has 32 banks of 4-byte words, and simultaneous
// accesses to different words in one bank serialize.
func ldsBankConflicts(addrs *[isa.WavefrontSize]uint64, mask isa.ExecMask) int {
	var count, word [32]uint32
	maxC := uint32(0)
	for e := uint64(mask); e != 0; e &= e - 1 {
		w := uint32(addrs[bits.TrailingZeros64(e)&63] >> 2)
		b := w % 32
		c := count[b]
		if c == 0 {
			c, word[b] = 1, w
		} else if word[b] != w {
			// Same-word accesses broadcast without conflict.
			c++
		}
		count[b] = c
		if c > maxC {
			maxC = c
		}
	}
	if maxC <= 1 {
		return 0
	}
	return int(maxC - 1)
}
