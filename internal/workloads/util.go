package workloads

import (
	"fmt"
	"math"
	"sync"

	"ilsim/internal/core"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// perMachine associates the buffers an Instance allocated during Setup with
// the Machine they live on, so one prepared Instance can Setup and Check
// any number of Machines concurrently (the contract the experiment engine's
// instance cache depends on). Check consumes the entry so finished Machines
// can be garbage-collected; call Check at most once per Setup.
type perMachine[T any] struct{ m sync.Map }

func (p *perMachine[T]) put(m *core.Machine, v T) { p.m.Store(m, v) }

func (p *perMachine[T]) take(m *core.Machine) (T, error) {
	v, ok := p.m.LoadAndDelete(m)
	if !ok {
		var zero T
		return zero, fmt.Errorf("workloads: Check on a machine this instance did not Setup (or Check ran twice)")
	}
	return v.(T), nil
}

// Short type names for kernel construction.
const (
	u32T = isa.TypeU32
	s32T = isa.TypeS32
	u64T = isa.TypeU64
	f32T = isa.TypeF32
	f64T = isa.TypeF64
	b32T = isa.TypeB32
)

// buf is a typed simulated-memory buffer handle.
type buf struct {
	addr uint64
	n    int // element count
}

// allocU32 reserves and fills a u32 buffer.
func allocU32(m *core.Machine, vals []uint32) buf {
	b := buf{addr: m.Ctx.AllocBuffer(uint64(4 * len(vals))), n: len(vals)}
	for i, v := range vals {
		m.Ctx.Mem.WriteU32(b.addr+uint64(4*i), v)
	}
	return b
}

// allocF32 reserves and fills an f32 buffer.
func allocF32(m *core.Machine, vals []float32) buf {
	b := buf{addr: m.Ctx.AllocBuffer(uint64(4 * len(vals))), n: len(vals)}
	for i, v := range vals {
		m.Ctx.Mem.WriteU32(b.addr+uint64(4*i), math.Float32bits(v))
	}
	return b
}

// allocF64 reserves and fills an f64 buffer.
func allocF64(m *core.Machine, vals []float64) buf {
	b := buf{addr: m.Ctx.AllocBuffer(uint64(8 * len(vals))), n: len(vals)}
	for i, v := range vals {
		m.Ctx.Mem.WriteU64(b.addr+uint64(8*i), math.Float64bits(v))
	}
	return b
}

func (b buf) u32(m *core.Machine, i int) uint32 {
	return m.Ctx.Mem.ReadU32(b.addr + uint64(4*i))
}

func (b buf) f32(m *core.Machine, i int) float32 {
	return math.Float32frombits(m.Ctx.Mem.ReadU32(b.addr + uint64(4*i)))
}

func (b buf) f64(m *core.Machine, i int) float64 {
	return math.Float64frombits(m.Ctx.Mem.ReadU64(b.addr + uint64(8*i)))
}

// checkClose verifies a float with relative tolerance.
func checkClose(name string, i int, got, want, tol float64) error {
	diff := math.Abs(got - want)
	if diff <= tol*math.Max(1, math.Abs(want)) {
		return nil
	}
	return fmt.Errorf("%s[%d]: got %g, want %g", name, i, got, want)
}

// launch1D builds a 1-D launch descriptor.
func launch1D(ks *core.KernelSource, grid, wg int, args ...uint64) core.Launch {
	return core.Launch{
		Kernel: ks,
		Grid:   [3]uint32{uint32(grid), 1, 1},
		WG:     [3]uint16{uint16(wg), 1, 1},
		Args:   args,
	}
}

// gidByteOffset emits the common prologue computing &base[gid*elemSize] for
// a kernel: the global work-item ID scaled to a byte offset and added to a
// kernarg pointer.
func gidByteOffset(b *kernel.Builder, gid kernel.Val, base kernel.Val, logSize int64) kernel.Val {
	off := b.Shl(u64T, b.Cvt(u64T, gid), b.Int(u64T, logSize))
	return b.Add(u64T, base, off)
}
