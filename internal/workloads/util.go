package workloads

import (
	"fmt"
	"math"

	"ilsim/internal/core"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// runState is where a prepared Instance keeps what its Setup allocated on a
// Machine until its Check reads it back: on the Machine itself
// (core.Machine.Workload), tagged with the instance's own runState, so one
// prepared Instance can Setup and Check any number of Machines concurrently
// (the contract the experiment engine's instance cache depends on) and a
// Machine whose run failed before Check takes its buffers with it when it is
// collected — the Instance holds nothing per run.
type runState[T any] struct{ _ byte } // sized: distinct instances need distinct addresses

type heldState[T any] struct {
	owner *runState[T]
	v     T
}

func (p *runState[T]) put(m *core.Machine, v T) { m.Workload = &heldState[T]{owner: p, v: v} }

// take returns what put left on m and removes it; call Check at most once
// per Setup.
func (p *runState[T]) take(m *core.Machine) (T, error) {
	h, ok := m.Workload.(*heldState[T])
	if !ok || h.owner != p {
		var zero T
		return zero, fmt.Errorf("workloads: Check on a machine this instance did not Setup (or Check ran twice)")
	}
	m.Workload = nil
	return h.v, nil
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
	m.Ctx.Mem.WriteU32s(b.addr, vals)
	return b
}

// allocF32 reserves and fills an f32 buffer, a page of bit patterns at a time.
func allocF32(m *core.Machine, vals []float32) buf {
	b := buf{addr: m.Ctx.AllocBuffer(uint64(4 * len(vals))), n: len(vals)}
	var words [1024]uint32
	for i := 0; i < len(vals); i += len(words) {
		n := min(len(words), len(vals)-i)
		for j, v := range vals[i : i+n] {
			words[j] = math.Float32bits(v)
		}
		m.Ctx.Mem.WriteU32s(b.addr+uint64(4*i), words[:n])
	}
	return b
}

// allocF64 reserves and fills an f64 buffer, a page of bit patterns at a time.
func allocF64(m *core.Machine, vals []float64) buf {
	b := buf{addr: m.Ctx.AllocBuffer(uint64(8 * len(vals))), n: len(vals)}
	var words [512]uint64
	for i := 0; i < len(vals); i += len(words) {
		n := min(len(words), len(vals)-i)
		for j, v := range vals[i : i+n] {
			words[j] = math.Float64bits(v)
		}
		m.Ctx.Mem.WriteU64s(b.addr+uint64(8*i), words[:n])
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
