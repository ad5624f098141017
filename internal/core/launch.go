package core

import (
	"fmt"

	"ilsim/internal/emu"
	"ilsim/internal/hsa"
	"ilsim/internal/stats"
)

// Abstraction selects the ISA level a machine executes.
type Abstraction int

// The two abstractions under study.
const (
	AbsHSAIL Abstraction = iota
	AbsGCN3
)

// String names the abstraction as the paper does.
func (a Abstraction) String() string {
	if a == AbsHSAIL {
		return "HSAIL"
	}
	return "GCN3"
}

// Launch describes one kernel dispatch: geometry plus kernel arguments
// (one 32- or 64-bit value per declared argument).
type Launch struct {
	Kernel *KernelSource
	Grid   [3]uint32
	WG     [3]uint16
	Args   []uint64
}

// Machine is one simulated process executing under one abstraction: its own
// functional memory image, loaded kernels, AQL queue and statistics.
//
// A machine outlives its run when the run hands it back (Recycle): the next
// run re-arms it (arm) instead of building one, keeping its storage — the
// image's pages, the waves' register files, and the engine of every kernel
// the last run launched, which a relaunch at the same code address reuses.
type Machine struct {
	Abs Abstraction
	Ctx *hsa.Context
	Col *emu.Collector
	// Workload belongs to whoever set the machine up: package workloads
	// keeps a run's buffer handles here between Setup and Check, so they
	// live exactly as long as the machine. core never reads it.
	Workload any

	queue     *hsa.Queue
	codeBase  map[*KernelSource]uint64
	kernelFor map[uint64]*KernelSource
	// engines holds each launched kernel's engine under each abstraction,
	// lowered once and shared by every dispatch of the kernel; waves is the
	// wave pool they all share. (Nothing the machine holds points back at
	// it, so a finalizer on a Machine runs.)
	engines map[engineKey]loadedEngine
	waves   *emu.WavePool
}

type engineKey struct {
	ks  *KernelSource
	abs Abstraction
}

// loadedEngine is an engine and the code address it was lowered for.
type loadedEngine struct {
	eng  emu.Engine
	base uint64
}

// NewMachine creates a machine collecting into run.
func NewMachine(abs Abstraction, run *stats.Run) *Machine {
	m := &Machine{
		Ctx:       hsa.NewContext(),
		Col:       &emu.Collector{},
		codeBase:  make(map[*KernelSource]uint64),
		kernelFor: make(map[uint64]*KernelSource),
		engines:   make(map[engineKey]loadedEngine),
		waves:     &emu.WavePool{},
	}
	m.arm(abs, run)
	return m
}

// arm readies the machine for a run under abs collecting into run: what
// NewMachine returns, whatever the machine ran before. It is the one list of
// the state a run leaves behind. The engines of the kernels the last run
// loaded survive, under both abstractions — a sweep alternates them — and
// NextDispatch re-lowers one whose kernel loads at another address this
// time; the others go.
func (m *Machine) arm(abs Abstraction, run *stats.Run) {
	const queueSlots = 4096
	for k := range m.engines {
		if _, ok := m.codeBase[k.ks]; !ok {
			delete(m.engines, k)
		}
	}
	m.Abs = abs
	m.Ctx.Reset()
	*m.Col = emu.Collector{Run: run}
	m.Workload = nil
	clear(m.codeBase)
	clear(m.kernelFor)
	qBase := m.Ctx.AllocQueueSlot(queueSlots * hsa.PacketSize)
	m.queue = hsa.NewQueue(m.Ctx.Mem, qBase, queueSlots)
	// AQL packets and signals are runtime-internal: the GCN3 prologue
	// reads dispatch packets from memory (the ABI), but that is not
	// application data footprint.
	m.Ctx.Mem.ExcludeFromFootprint(hsa.QueueBase, hsa.QueueBase+hsa.QueueSize)
	if run != nil {
		run.Abstraction = abs.String()
	}
}

// Load places a kernel's code in the machine's code region and returns its
// base address. HSAIL loads as fixed 8-byte instruction handles (the gem5
// approximation); GCN3 loads its true encoded bytes.
func (m *Machine) Load(ks *KernelSource) uint64 {
	if base, ok := m.codeBase[ks]; ok {
		return base
	}
	m.Ctx.Mem.SetFootprintTracking(false)
	var base uint64
	if m.Abs == AbsHSAIL {
		base = m.Ctx.AllocCode(uint64(ks.CodeBytesHSAIL()))
		// The handles are opaque; write indexes so the image is concrete.
		for i := 0; i < ks.HSAIL.NumInsts(); i++ {
			m.Ctx.Mem.WriteU64(base+uint64(i*8), uint64(i))
		}
	} else {
		base = m.Ctx.AllocCode(uint64(len(ks.coBytes)))
		m.Ctx.Mem.Write(base, ks.coBytes)
	}
	m.Ctx.Mem.SetFootprintTracking(true)
	m.codeBase[ks] = base
	m.kernelFor[base] = ks
	if m.Col != nil && m.Col.Run != nil {
		if m.Abs == AbsHSAIL {
			m.Col.Run.CodeFootprintBytes += uint64(ks.CodeBytesHSAIL())
		} else {
			m.Col.Run.CodeFootprintBytes += uint64(ks.CodeBytesGCN3())
		}
	}
	return base
}

// Submit enqueues a launch on the machine's AQL queue.
func (m *Machine) Submit(l Launch) error {
	k := l.Kernel.HSAIL
	if len(l.Args) != len(k.Args) {
		return fmt.Errorf("core: kernel %q: %d arguments supplied, %d declared",
			k.Name, len(l.Args), len(k.Args))
	}
	base := m.Load(l.Kernel)

	// Write kernel arguments into a fresh kernarg block.
	m.Ctx.Mem.SetFootprintTracking(false)
	kernarg := m.Ctx.AllocKernarg(uint64(k.KernargSize))
	for i, a := range k.Args {
		if a.Size == 8 {
			m.Ctx.Mem.WriteU64(kernarg+uint64(a.Offset), l.Args[i])
		} else {
			m.Ctx.Mem.WriteU32(kernarg+uint64(a.Offset), uint32(l.Args[i]))
		}
	}
	m.Ctx.Mem.SetFootprintTracking(true)

	priv := l.Kernel.GCN3.PrivateSize
	if m.Abs == AbsHSAIL {
		priv = k.PrivateSize + k.SpillSize
	}
	// Every dispatch carries a completion signal, decremented by the
	// packet processor when the grid drains (the hsa_signal_t protocol).
	m.Ctx.Mem.SetFootprintTracking(false)
	sigAddr := m.Ctx.AllocQueueSlot(8)
	hsa.NewSignal(m.Ctx.Mem, sigAddr, 1)
	m.Ctx.Mem.SetFootprintTracking(true)
	pkt := &hsa.AQLPacket{
		Header:             hsa.PacketTypeKernelDispatch,
		Setup:              3,
		WorkgroupSize:      [3]uint16{l.WG[0], l.WG[1], l.WG[2]},
		GridSize:           l.Grid,
		PrivateSegmentSize: uint32(priv),
		GroupSegmentSize:   uint32(k.GroupSize),
		KernelObject:       base,
		KernargAddress:     kernarg,
		CompletionSignal:   sigAddr,
	}
	m.Ctx.Mem.SetFootprintTracking(false)
	err := m.queue.Enqueue(pkt)
	m.Ctx.Mem.SetFootprintTracking(true)
	if err != nil {
		return err
	}
	return nil
}

// NextDispatch plays the packet processor: it dequeues the next AQL packet,
// expands the dispatch, and performs the abstraction's segment setup —
// per-process scratch reuse for GCN3, fresh per-launch mappings for HSAIL
// (paper §VI.A).
func (m *Machine) NextDispatch() (*hsa.Dispatch, emu.Engine, error) {
	m.Ctx.Mem.SetFootprintTracking(false)
	pkt, addr, err := m.queue.Dequeue()
	m.Ctx.Mem.SetFootprintTracking(true)
	if err != nil || pkt == nil {
		return nil, nil, err
	}
	d, err := hsa.ExpandDispatch(pkt, addr)
	if err != nil {
		return nil, nil, err
	}
	ks := m.kernelFor[pkt.KernelObject]
	if ks == nil {
		return nil, nil, fmt.Errorf("core: no kernel loaded at %#x", pkt.KernelObject)
	}
	d.KernelName = ks.HSAIL.Name
	total := d.GridTotal()

	if m.Abs == AbsHSAIL {
		k := ks.HSAIL
		if k.PrivateSize > 0 {
			d.PrivateStride = uint32(k.PrivateSize)
			d.PrivateBase = m.Ctx.ScratchForHSAIL(total * uint64(k.PrivateSize))
		}
		if k.SpillSize > 0 {
			d.SpillStride = uint32(k.SpillSize)
			d.SpillBase = m.Ctx.ScratchForHSAIL(total * uint64(k.SpillSize))
		}
	} else if ks.GCN3.PrivateSize > 0 {
		d.PrivateStride = uint32(ks.GCN3.PrivateSize)
		d.PrivateBase = m.Ctx.ScratchForGCN3(total * uint64(ks.GCN3.PrivateSize))
	}
	eng := m.engine(ks, pkt.KernelObject)
	if m.Col != nil && m.Col.Run != nil {
		m.Col.Run.KernelLaunches++
	}
	return d, eng, nil
}

// engine returns ks's engine for code loaded at base: the one lowered for an
// earlier dispatch at that address, this run's or the last one's, or a new
// one.
func (m *Machine) engine(ks *KernelSource, base uint64) emu.Engine {
	key := engineKey{ks, m.Abs}
	if l, ok := m.engines[key]; ok && l.base == base {
		return l.eng
	}
	var eng emu.Engine
	if m.Abs == AbsHSAIL {
		e := emu.NewHSAILEngine(m.Ctx, ks.HSAIL, ks.CFG, base, m.Col)
		e.Waves = m.waves
		eng = e
	} else {
		e := emu.NewGCN3Engine(m.Ctx, ks.GCN3, base, m.Col)
		e.Waves = m.waves
		eng = e
	}
	m.engines[key] = loadedEngine{eng, base}
	return eng
}

// CompleteDispatch performs the packet processor's completion work:
// decrementing the dispatch's completion signal.
func (m *Machine) CompleteDispatch(d *hsa.Dispatch) {
	if d.Packet.CompletionSignal == 0 {
		return
	}
	m.Ctx.Mem.SetFootprintTracking(false)
	v := m.Ctx.Mem.ReadU64(d.Packet.CompletionSignal)
	m.Ctx.Mem.WriteU64(d.Packet.CompletionSignal, v-1)
	m.Ctx.Mem.SetFootprintTracking(true)
}

// Pending returns the number of submitted, undispatched launches.
func (m *Machine) Pending() uint64 { return m.queue.Pending() }

// RunFunctional drains the queue with the reference (untimed) executor.
func (m *Machine) RunFunctional() error {
	for {
		d, eng, err := m.NextDispatch()
		if err != nil {
			return err
		}
		if d == nil {
			return nil
		}
		if err := emu.RunFunctional(eng, d); err != nil {
			return err
		}
		m.CompleteDispatch(d)
	}
}
