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
	launches  []Launch
}

// NewMachine creates a machine collecting into run.
func NewMachine(abs Abstraction, run *stats.Run) *Machine {
	const queueSlots = 4096
	ctx := hsa.NewContext()
	qBase := ctx.AllocQueueSlot(queueSlots * hsa.PacketSize)
	m := &Machine{
		Abs:       abs,
		Ctx:       ctx,
		Col:       &emu.Collector{Run: run},
		queue:     hsa.NewQueue(ctx.Mem, qBase, queueSlots),
		codeBase:  make(map[*KernelSource]uint64),
		kernelFor: make(map[uint64]*KernelSource),
	}
	// AQL packets and signals are runtime-internal: the GCN3 prologue
	// reads dispatch packets from memory (the ABI), but that is not
	// application data footprint.
	ctx.Mem.ExcludeFromFootprint(hsa.QueueBase, hsa.QueueBase+hsa.QueueSize)
	if run != nil {
		run.Abstraction = abs.String()
	}
	return m
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
		encoded, err := ks.EncodedGCN3()
		if err != nil {
			panic(fmt.Sprintf("core: encoding validated code object: %v", err))
		}
		base = m.Ctx.AllocCode(uint64(len(encoded)))
		m.Ctx.Mem.Write(base, encoded)
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
	m.launches = append(m.launches, l)
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

	var eng emu.Engine
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
		eng = emu.NewHSAILEngine(m.Ctx, k, ks.CFG, d, m.codeBase[ks], m.Col)
	} else {
		if ks.GCN3.PrivateSize > 0 {
			d.PrivateStride = uint32(ks.GCN3.PrivateSize)
			d.PrivateBase = m.Ctx.ScratchForGCN3(total * uint64(ks.GCN3.PrivateSize))
		}
		eng = emu.NewGCN3Engine(m.Ctx, ks.GCN3, d, m.codeBase[ks], m.Col)
	}
	if m.Col != nil && m.Col.Run != nil {
		m.Col.Run.KernelLaunches++
	}
	return d, eng, nil
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

// SignalValue reads a completion signal's current value.
func (m *Machine) SignalValue(addr uint64) int64 {
	return int64(m.Ctx.Mem.ReadU64(addr))
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
