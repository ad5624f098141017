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
	"sync"
)

// PageBits is the log2 of the sparse page size.
const PageBits = 12

// PageSize is the sparse allocation granularity of the functional image.
const PageSize = 1 << PageBits

// LineSize is the cache-line size used throughout the hierarchy (Table 4).
const LineSize = 64

// recentLines is the size of a view's touched-line filter.
const recentLines = 1024

// pageTable is the page store shared by a Memory and all of its forked
// views. Until the first Fork the owning Memory is the only user and the
// mutex is bypassed; once shared, first-touch page allocation takes the
// write lock while lookups take the read lock. Page slices are never
// replaced or freed, so a resolved page may be cached and used lock-free
// forever.
type pageTable struct {
	mu     sync.RWMutex
	pages  map[uint64][]byte
	shared bool
}

// Memory is a sparse 64-bit byte-addressed functional memory image.
// It also tracks the set of touched cache lines, which is how the data
// footprint statistic (Table 6) is measured.
//
// A Memory is not safe for concurrent use, but Fork returns additional
// views over the same page store that may each be used from their own
// goroutine (the parallel timing core gives one to each compute unit).
// Views share data — a write through one view is seen by all — while
// every piece of per-view mutable bookkeeping (page/line caches, the
// touched-line set) stays private.
type Memory struct {
	pt *pageTable
	// parent is the root view this one was forked from (nil on the root).
	// Footprint-tracking policy lives on the root so toggles between
	// dispatches govern every view.
	parent  *Memory
	touched map[uint64]struct{}
	// lastBase/lastPage cache the most recently resolved page: simulated
	// accesses are heavily page-local, so most lookups skip the map.
	lastBase uint64
	lastPage []byte
	// recent is a direct-mapped filter in front of touched: recent[i]
	// holding l+1 means line l is already in the set, so re-touching a
	// line the view touched lately — consecutive lanes of one access, the
	// same gather table every iteration — skips the map insert. It only
	// ever claims membership of lines that were inserted, so the set stays
	// exact; it is cleared whenever the set shrinks.
	recent [recentLines]uint64
	// trackFootprint enables touched-line recording.
	trackFootprint bool
	// exclLo/exclHi is an address range excluded from footprint tracking
	// (runtime-internal structures such as AQL packets).
	exclLo, exclHi uint64
}

// NewMemory returns an empty memory image with footprint tracking enabled.
func NewMemory() *Memory {
	return &Memory{
		pt:             &pageTable{pages: make(map[uint64][]byte)},
		touched:        make(map[uint64]struct{}),
		trackFootprint: true,
	}
}

// Fork returns a new view over the same page store, safe to use from
// another goroutine concurrently with the root and with other forks (as
// long as they do not write the same bytes in the same phase — the timing
// core's epoch barriers order everything coarser than that). The fork
// records its own touched lines; fold them back with AbsorbFootprint.
// Forking marks the page store shared, which routes first-touch page
// allocation through a lock on every view from then on.
func (m *Memory) Fork() *Memory {
	root := m
	if m.parent != nil {
		root = m.parent
	}
	root.pt.shared = true
	return &Memory{
		pt:      root.pt,
		parent:  root,
		touched: make(map[uint64]struct{}),
	}
}

// AbsorbFootprint folds a forked view's touched-line set into m and clears
// the fork's set. Line-set union is commutative, so absorbing forks in any
// order yields the same footprint a single view would have recorded.
func (m *Memory) AbsorbFootprint(f *Memory) {
	if f == nil || f == m {
		return
	}
	for l := range f.touched {
		m.touched[l] = struct{}{}
	}
	clear(f.touched)
	f.recent = [recentLines]uint64{}
}

// SetFootprintTracking toggles touched-line recording (loaders disable it so
// code and packet setup do not count as application data footprint). On a
// forked view it toggles the root policy, which governs every view.
func (m *Memory) SetFootprintTracking(on bool) {
	if m.parent != nil {
		m.parent.trackFootprint = on
		return
	}
	m.trackFootprint = on
}

// ExcludeFromFootprint removes [lo, hi) from footprint accounting.
func (m *Memory) ExcludeFromFootprint(lo, hi uint64) {
	if m.parent != nil {
		m.parent.exclLo, m.parent.exclHi = lo, hi
		return
	}
	m.exclLo, m.exclHi = lo, hi
}

// ResetFootprint clears the touched-line set.
func (m *Memory) ResetFootprint() {
	m.touched = make(map[uint64]struct{})
	m.recent = [recentLines]uint64{}
}

// FootprintBytes returns the data footprint: touched lines × line size.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(len(m.touched)) * LineSize
}

func (m *Memory) page(addr uint64) []byte {
	base := addr >> PageBits
	if m.lastPage != nil && base == m.lastBase {
		return m.lastPage
	}
	pt := m.pt
	if !pt.shared {
		p, ok := pt.pages[base]
		if !ok {
			p = make([]byte, PageSize)
			pt.pages[base] = p
		}
		m.lastBase, m.lastPage = base, p
		return p
	}
	pt.mu.RLock()
	p, ok := pt.pages[base]
	pt.mu.RUnlock()
	if !ok {
		pt.mu.Lock()
		if p, ok = pt.pages[base]; !ok {
			p = make([]byte, PageSize)
			pt.pages[base] = p
		}
		pt.mu.Unlock()
	}
	m.lastBase, m.lastPage = base, p
	return p
}

// footprintPolicy returns whether touched lines are being recorded and the
// address range excluded from the record. The policy lives on the root
// view; writes to it happen only between parallel phases, so forks may read
// it without locking.
func (m *Memory) footprintPolicy() (track bool, exclLo, exclHi uint64) {
	pol := m
	if m.parent != nil {
		pol = m.parent
	}
	return pol.trackFootprint, pol.exclLo, pol.exclHi
}

func (m *Memory) touch(addr uint64, n int) {
	track, exclLo, exclHi := m.footprintPolicy()
	if !track || n <= 0 || (addr >= exclLo && addr < exclHi) {
		return
	}
	m.touchLines(addr, n)
}

// touchLines records the lines of [addr, addr+n), n > 0, as touched.
func (m *Memory) touchLines(addr uint64, n int) {
	first := addr / LineSize
	last := (addr + uint64(n) - 1) / LineSize
	for l := first; l <= last; l++ {
		if slot := &m.recent[l%recentLines]; *slot != l+1 {
			m.touched[l] = struct{}{}
			*slot = l + 1
		}
	}
}

// Read copies len(dst) bytes at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	m.touch(addr, len(dst))
	if off := addr & (PageSize - 1); int(off)+len(dst) <= PageSize {
		copy(dst, m.page(addr)[off:])
		return
	}
	for n := 0; n < len(dst); {
		off := (addr + uint64(n)) & (PageSize - 1)
		p := m.page(addr + uint64(n))
		c := copy(dst[n:], p[off:])
		n += c
	}
}

// Write copies src into memory at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	m.touch(addr, len(src))
	if off := addr & (PageSize - 1); int(off)+len(src) <= PageSize {
		copy(m.page(addr)[off:], src)
		return
	}
	for n := 0; n < len(src); {
		off := (addr + uint64(n)) & (PageSize - 1)
		p := m.page(addr + uint64(n))
		c := copy(p[off:], src[n:])
		n += c
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

// Alloc reserves size bytes aligned to align (a power of two).
func (a *Allocator) Alloc(size, align uint64) (uint64, error) {
	if align == 0 {
		align = 1
	}
	p := (a.next + align - 1) &^ (align - 1)
	if p+size > a.end {
		return 0, fmt.Errorf("mem: allocator exhausted (%d bytes requested)", size)
	}
	a.next = p + size
	return p, nil
}

// Used returns the number of bytes consumed so far.
func (a *Allocator) Used(base uint64) uint64 { return a.next - base }
