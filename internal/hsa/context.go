package hsa

import (
	"fmt"

	"ilsim/internal/mem"
)

// Address-space layout of a simulated process. Regions are generous and
// disjoint; the functional image is sparse so only touched pages cost memory.
const (
	CodeBase    = 0x0000_1000_0000
	CodeSize    = 0x0000_1000_0000
	QueueBase   = 0x0000_3000_0000
	QueueSize   = 0x0000_1000_0000
	KernargBase = 0x0000_5000_0000
	KernargSize = 0x0000_1000_0000
	HeapBase    = 0x0001_0000_0000
	HeapSize    = 0x0080_0000_0000
	ScratchBase = 0x0100_0000_0000
	ScratchSize = 0x0400_0000_0000
)

// Context is a simulated process: the functional memory image plus the
// runtime allocators for each region.
type Context struct {
	Mem *mem.Memory

	codeAlloc    mem.Allocator
	queueAlloc   mem.Allocator
	kernargAlloc mem.Allocator
	heapAlloc    mem.Allocator
	scratchAlloc mem.Allocator

	// gcn3Scratch caches the per-process scratch arena the real runtime
	// allocates once and reuses across launches (paper §VI.A).
	gcn3Scratch     uint64
	gcn3ScratchSize uint64
}

// NewContext creates a fresh process context.
func NewContext() *Context {
	c := &Context{Mem: mem.NewMemory()}
	c.reset()
	return c
}

// Reset makes the context a fresh process again: an empty image (which keeps
// its pages for reuse, see mem.Memory.Reset) and every region unallocated.
func (c *Context) Reset() {
	c.Mem.Reset()
	c.reset()
}

func (c *Context) reset() {
	c.codeAlloc = *mem.NewAllocator(CodeBase, CodeSize)
	c.queueAlloc = *mem.NewAllocator(QueueBase, QueueSize)
	c.kernargAlloc = *mem.NewAllocator(KernargBase, KernargSize)
	c.heapAlloc = *mem.NewAllocator(HeapBase, HeapSize)
	c.scratchAlloc = *mem.NewAllocator(ScratchBase, ScratchSize)
	c.gcn3Scratch, c.gcn3ScratchSize = 0, 0
}

// AllocBuffer reserves application heap memory (hsa_memory_allocate).
func (c *Context) AllocBuffer(size uint64) uint64 {
	p, err := c.heapAlloc.Alloc(size, 64)
	if err != nil {
		panic(fmt.Sprintf("hsa: heap exhausted: %v", err))
	}
	return p
}

// AllocKernarg reserves a kernarg block for one dispatch.
func (c *Context) AllocKernarg(size uint64) uint64 {
	if size == 0 {
		size = 8
	}
	p, err := c.kernargAlloc.Alloc(size, 16)
	if err != nil {
		panic(fmt.Sprintf("hsa: kernarg region exhausted: %v", err))
	}
	return p
}

// AllocCode reserves space in the code region, loader-side.
func (c *Context) AllocCode(size uint64) uint64 {
	if size == 0 {
		size = 8
	}
	p, err := c.codeAlloc.Alloc(size, 256)
	if err != nil {
		panic(fmt.Sprintf("hsa: code region exhausted: %v", err))
	}
	return p
}

// AllocQueueSlot reserves queue/signal storage.
func (c *Context) AllocQueueSlot(size uint64) uint64 {
	p, err := c.queueAlloc.Alloc(size, 64)
	if err != nil {
		panic(fmt.Sprintf("hsa: queue region exhausted: %v", err))
	}
	return p
}

// ScratchForGCN3 returns the process-wide scratch arena for a dispatch that
// needs `size` bytes, growing it only when the demand exceeds the cached
// arena. Reuse across launches is the ABI-visible behavior of the real
// runtime: scratch memory is a per-process resource.
func (c *Context) ScratchForGCN3(size uint64) uint64 {
	if size == 0 {
		return 0
	}
	if size <= c.gcn3ScratchSize {
		return c.gcn3Scratch
	}
	p, err := c.scratchAlloc.Alloc(size, mem.PageSize)
	if err != nil {
		panic(fmt.Sprintf("hsa: scratch region exhausted: %v", err))
	}
	c.gcn3Scratch, c.gcn3ScratchSize = p, size
	return p
}

// ScratchForHSAIL returns a FRESH scratch mapping for one dispatch. HSAIL has
// no ABI telling the simulator where segment bases live, so the emulated
// runtime maps new segment memory at every dynamic kernel launch — the
// mechanism behind the inflated HSAIL data footprints of Table 6.
func (c *Context) ScratchForHSAIL(size uint64) uint64 {
	if size == 0 {
		return 0
	}
	p, err := c.scratchAlloc.Alloc(size, mem.PageSize)
	if err != nil {
		panic(fmt.Sprintf("hsa: scratch region exhausted: %v", err))
	}
	return p
}
