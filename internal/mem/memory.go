// Package mem provides the simulated memory subsystem: a sparse functional
// memory image shared by both ISA abstractions, the memory-side timing models
// (set-associative caches and a channeled DRAM), and the per-wavefront access
// coalescer.
//
// Functional state and timing state are deliberately separate: the emulators
// (package emu) read and write the Memory image at execute time, while the
// timing pipeline (package timing) replays the generated accesses against the
// cache hierarchy to obtain latencies and contention. The hierarchy uses
// latency forwarding with per-resource next-free times rather than a full
// event-driven MSHR model; this keeps the compute-unit model cycle-level
// while memory stays contended and bandwidth-limited (see DESIGN.md).
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PageBits is the log2 of the sparse page size.
const PageBits = 12

// PageSize is the sparse allocation granularity of the functional image.
const PageSize = 1 << PageBits

// LineSize is the cache-line size used throughout the hierarchy (Table 4).
const LineSize = 64

// page is one sparse page: its bytes and, a page holding exactly 64 lines,
// one bit per line that is in the data footprint. The bytes are an object of
// their own: 4,096 bytes is an allocator size class, 4,104 costs 4,864.
type page struct {
	data    *[PageSize]byte
	touched uint64
}

// Memory is a sparse 64-bit byte-addressed functional memory image.
// It also tracks the set of touched cache lines, which is how the data
// footprint statistic (Table 6) is measured.
//
// A Memory is not safe for concurrent use: a simulation runs on one
// goroutine.
type Memory struct {
	// pages is the sparse page store. Pages are never replaced or freed
	// while the image is in use, so a resolved page may be cached until the
	// next Reset.
	pages map[uint64]*page
	// spare holds the pages Reset unmapped, for lookup to hand out again.
	spare []*page
	// lastBase/lastPage cache the most recently resolved page: simulated
	// accesses are heavily page-local, so most lookups skip the map. With
	// nothing cached lastBase is noPage, which no address shifts to.
	lastBase uint64
	lastPage *page
	// tlb caches resolved pages behind lastBase, direct-mapped by the page
	// number's low byte: a kernel's accesses revisit a few dozen pages, so a
	// divergent gather that changes page at every lane indexes this array
	// instead of looking each page up in the map. An empty entry's base is
	// noPage.
	tlb [1 << 8]tlbEntry
	// lines counts the bits set in the pages' touched words.
	lines uint64
	// trackFootprint enables touched-line recording.
	trackFootprint bool
	// exclLo/exclHi is an address range excluded from footprint tracking
	// (runtime-internal structures such as AQL packets).
	exclLo, exclHi uint64
}

// tlbEntry is one cached page-number → page mapping.
type tlbEntry struct {
	base uint64
	page *page
}

// NewMemory returns an empty memory image with footprint tracking enabled.
func NewMemory() *Memory {
	m := &Memory{pages: make(map[uint64]*page), trackFootprint: true}
	m.forget()
	return m
}

// forget empties the page caches.
func (m *Memory) forget() {
	m.lastBase, m.lastPage = noPage, nil
	for i := range m.tlb {
		m.tlb[i] = tlbEntry{base: noPage}
	}
}

// Reset empties the image for another run: it reads as NewMemory's does,
// footprint and excluded range included, but keeps its pages. Each goes on
// the spare list and is handed out again, zeroed and with no line touched,
// when an address first falls in it, so a run that touches no more pages
// than the last allocates none.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		m.spare = append(m.spare, p)
	}
	clear(m.pages)
	m.forget()
	m.lines = 0
	m.trackFootprint = true
	m.exclLo, m.exclHi = 0, 0
}

// SetFootprintTracking toggles touched-line recording (loaders disable it so
// code and packet setup do not count as application data footprint).
func (m *Memory) SetFootprintTracking(on bool) {
	m.trackFootprint = on
}

// ExcludeFromFootprint removes [lo, hi) from footprint accounting.
func (m *Memory) ExcludeFromFootprint(lo, hi uint64) {
	m.exclLo, m.exclHi = lo, hi
}

// ResetFootprint clears the touched-line set.
func (m *Memory) ResetFootprint() {
	for _, p := range m.pages {
		p.touched = 0
	}
	m.lines = 0
}

// FootprintBytes returns the data footprint: touched lines × line size.
func (m *Memory) FootprintBytes() uint64 {
	return m.lines * LineSize
}

// noPage is the page number of no address.
const noPage = ^uint64(0)

func (m *Memory) page(addr uint64) *page {
	base := addr >> PageBits
	if base == m.lastBase {
		return m.lastPage
	}
	return m.lookup(base)
}

// lookup resolves page number base — from the TLB, else from the map,
// mapping an all-zero page with no line touched there if there is none yet
// (a spare one when there is one) — and caches it as the last resolved page.
// It stays out of line so that page, on every access's path, stays
// inlinable.
//
//go:noinline
func (m *Memory) lookup(base uint64) *page {
	if p := m.cached(base); p != nil {
		m.lastBase, m.lastPage = base, p
		return p
	}
	p, ok := m.pages[base]
	if !ok {
		if n := len(m.spare); n > 0 {
			p = m.spare[n-1]
			m.spare = m.spare[:n-1]
			*p.data = [PageSize]byte{}
			p.touched = 0
		} else {
			p = &page{data: new([PageSize]byte)}
		}
		m.pages[base] = p
	}
	m.tlb[uint8(base)] = tlbEntry{base: base, page: p}
	m.lastBase, m.lastPage = base, p
	return p
}

// cached returns the TLB's page for page number base, or nil.
func (m *Memory) cached(base uint64) *page {
	if e := &m.tlb[uint8(base)]; e.base == base {
		return e.page
	}
	return nil
}

func (m *Memory) touch(addr uint64, n int) {
	if !m.trackFootprint || n <= 0 || (addr >= m.exclLo && addr < m.exclHi) {
		return
	}
	m.touchLines(addr, n)
}

// touchLines records the lines of [addr, addr+n), n > 0, as touched: one
// mask per page the range meets.
func (m *Memory) touchLines(addr uint64, n int) {
	first, last := addr/LineSize, (addr+uint64(n)-1)/LineSize
	for first <= last {
		end := min(last, first|63) // the range's last line in first's page
		m.touchMask(m.page(first*LineSize), ^uint64(0)>>(63-(end-first))<<(first&63))
		first = end + 1
	}
}

// touchMask adds the lines of p that mask names to the footprint. Nearly
// every access re-touches lines, so the common case is a load and a compare.
func (m *Memory) touchMask(p *page, mask uint64) {
	if fresh := mask &^ p.touched; fresh != 0 {
		m.lines += uint64(bits.OnesCount64(fresh))
		p.touched |= fresh
	}
}

// Read copies len(dst) bytes at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	m.touch(addr, len(dst))
	for n := 0; n < len(dst); {
		off := (addr + uint64(n)) & (PageSize - 1)
		n += copy(dst[n:], m.page(addr + uint64(n)).data[off:])
	}
}

// Write copies src into memory at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	m.touch(addr, len(src))
	m.store(addr, src)
}

// store is Write without the footprint.
func (m *Memory) store(addr uint64, src []byte) {
	for n := 0; n < len(src); {
		off := (addr + uint64(n)) & (PageSize - 1)
		n += copy(m.page(addr + uint64(n)).data[off:], src[n:])
	}
}

// ReadU32 reads a little-endian uint32.
func (m *Memory) ReadU32(addr uint64) uint32 {
	var b [4]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian uint32.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// ReadU64 reads a little-endian uint64.
func (m *Memory) ReadU64(addr uint64) uint64 {
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(addr, b[:])
}

// AtomicAddU32 performs a fetch-add and returns the prior value. The
// functional image is single-threaded, so this is trivially atomic.
func (m *Memory) AtomicAddU32(addr uint64, v uint32) uint32 {
	old := m.ReadU32(addr)
	m.WriteU32(addr, old+v)
	return old
}

// Allocator is a bump allocator carving regions out of the flat address
// space; the HSA runtime uses one per process.
type Allocator struct {
	next uint64
	end  uint64
}

// NewAllocator returns an allocator over [base, base+size).
func NewAllocator(base, size uint64) *Allocator {
	return &Allocator{next: base, end: base + size}
}

// Alloc reserves size bytes aligned to align (a power of two). A request
// that does not fit, including one whose size or alignment would carry an
// address past 2^64, fails and leaves the allocator as it was.
func (a *Allocator) Alloc(size, align uint64) (uint64, error) {
	if align == 0 {
		align = 1
	}
	p := (a.next + align - 1) &^ (align - 1)
	if p < a.next || p > a.end || size > a.end-p {
		return 0, fmt.Errorf("mem: allocator exhausted (%d bytes requested)", size)
	}
	a.next = p + size
	return p, nil
}
