package emu

import (
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
	"ilsim/internal/stats"
)

// LatencyClass groups instructions by execution latency; package timing maps
// classes to cycle counts.
type LatencyClass uint8

// Latency classes.
const (
	LatALU    LatencyClass = iota // 32-bit vector ALU
	LatALU64                      // 64-bit vector ALU
	LatTrans                      // transcendental (rcp/sqrt/rsq, div steps)
	LatScalar                     // scalar ALU
	LatBranch                     // branch resolution
	LatMem                        // memory (actual latency from the hierarchy)
	LatLDS                        // local data share
	LatNop                        // nop/waitcnt/barrier bookkeeping
)

// RegList is a small fixed-capacity list of register indexes, used to report
// operand usage without allocating per instruction.
type RegList struct {
	N   uint8
	Idx [12]uint16
}

// Add appends a run of `width` consecutive register indexes starting at r.
func (l *RegList) Add(r int, width int) {
	for i := 0; i < width && int(l.N) < len(l.Idx); i++ {
		l.Idx[l.N] = uint16(r + i)
		l.N++
	}
}

// Slice returns the populated indexes.
func (l *RegList) Slice() []uint16 { return l.Idx[:l.N] }

// InstInfo is the pre-execution metadata the timing model needs to schedule
// an instruction: its category, size, operand usage and latency class.
type InstInfo struct {
	SizeBytes int
	Category  isa.Category
	LatClass  LatencyClass

	// Vector register (VRF) operand usage in 32-bit granules, as the ISA
	// package's Inst.Operands states it. Under HSAIL every operand is
	// vector; GCN3's scalar operands are not tracked.
	VRFReads, VRFWrites RegList

	// GCN3 waitcnt semantics.
	IsVMem   bool // increments vmcnt when issued
	IsLGKM   bool // increments lgkmcnt when issued
	WaitVM   int8 // s_waitcnt bound (-1 = unconstrained)
	WaitLGKM int8
}

// MemKind classifies a memory access for latency purposes.
type MemKind uint8

// Memory access kinds.
const (
	MemNone MemKind = iota
	MemGlobal
	MemScalar
	MemLDS
)

// ExecResult reports what an executed instruction did.
type ExecResult struct {
	// Mem access produced by the instruction.
	MemKind  MemKind
	MemWrite bool
	// Lines are the coalesced cache-line addresses.
	Lines []uint64

	// ActiveLanes is the number of lanes the instruction executed on.
	ActiveLanes int

	// LDSBankConflicts is the number of extra bank-serialized cycles an
	// LDS access costs: max accesses to any one of the 32 banks minus one.
	LDSBankConflicts int

	// Redirected reports a non-sequential PC change (taken branch, RS pop),
	// which flushes the instruction buffer when it holds prefetched
	// entries.
	Redirected bool

	IsBarrier bool
	IsEndPgm  bool
}

// WGState is the shared state of one workgroup: its geometry, LDS storage,
// and barrier bookkeeping (owned by the timing model).
type WGState struct {
	Dispatch *hsa.Dispatch
	Info     *hsa.WorkgroupInfo
	LDS      []byte
}

// NewWGState creates workgroup state with ldsBytes of local data share.
func NewWGState(d *hsa.Dispatch, info *hsa.WorkgroupInfo, ldsBytes int) *WGState {
	return &WGState{Dispatch: d, Info: info, LDS: make([]byte, ldsBytes)}
}

// Wave is the architectural state of one wavefront under either abstraction.
// Engines use the fields belonging to their ISA.
type Wave struct {
	WG     *WGState
	WaveID int // index within the workgroup
	// FirstWI is the intra-workgroup flat ID of lane 0.
	FirstWI int
	// NumLanes is the count of valid lanes (the last wave may be partial).
	NumLanes int

	PC   uint64
	Exec isa.ExecMask
	Done bool

	// HSAIL state: virtual vector registers (slot-indexed) and control
	// registers, plus the simulator's reconvergence stack.
	VRegs [][isa.WavefrontSize]uint32
	CRegs []uint64 // each control register is a 64-bit lane mask
	RS    []RSEntry

	// GCN3 state.
	SGPR [isa.MaxSGPRs]uint32
	VGPR [][isa.WavefrontSize]uint32
	VCC  uint64
	SCC  bool

	// Reuse tracks vector-register reuse distances when enabled.
	Reuse *stats.ReuseTracker
	// valueKey and valueIndex place the wave's VRF accesses in Fig 10's
	// value sampling (Collector.sampleValue): the wave's identity within
	// the dispatch, set at its first access, and its accesses so far.
	valueKey, valueIndex uint64

	// linesBuf is the wave's reusable coalescing scratch. Execute
	// overwrites it on every memory instruction and hands it out as
	// ExecResult.Lines; the timing model consumes the lines before the
	// wave executes again, so reuse is safe and the steady state
	// allocates nothing.
	linesBuf []uint64
}

// WavePool is a free list of finished waves. NewWave re-arms one before it
// allocates: every field zeroed, the register files and scratch slices
// keeping their storage, the vector register rows going to whichever file
// the new wave's abstraction uses. A machine gives all its engines one pool,
// so a wave of one kernel serves the next wave of any kernel, and the pool
// holds no more waves than were ever resident at once. A nil pool allocates
// every wave; the zero value is an empty pool.
type WavePool struct{ free []*Wave }

func (p *WavePool) put(w *Wave) {
	if p != nil {
		p.free = append(p.free, w)
	}
}

// get returns a zeroed wave and the vector register rows it may reuse (nil
// when the wave is new).
func (p *WavePool) get() (*Wave, [][isa.WavefrontSize]uint32) {
	if p == nil || len(p.free) == 0 {
		return &Wave{}, nil
	}
	n := len(p.free)
	w := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	rows := w.VGPR
	if cap(w.VRegs) > cap(rows) {
		rows = w.VRegs
	}
	*w = Wave{CRegs: w.CRegs[:0], RS: w.RS[:0], linesBuf: w.linesBuf[:0]}
	return w, rows
}

// zeroed returns s as n zero values, reusing its storage when that is
// enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RSEntry is one reconvergence-stack entry: when the wavefront's PC reaches
// RPC, execution switches to PC' with Mask.
type RSEntry struct {
	RPC  uint64
	PC   uint64
	Mask isa.ExecMask
}

// Collector receives statistics callbacks from engines. All fields are
// optional; nil Run disables collection.
type Collector struct {
	Run *stats.Run
	// TrackValues enables lane-value uniqueness sampling (Fig 10).
	TrackValues bool
	// ValueSampleEvery samples one in N VRF accesses (1 = all).
	ValueSampleEvery int
	// TrackReuse enables reuse-distance tracking (Fig 7).
	TrackReuse bool
}

// OnCommit counts one committed instruction.
func (c *Collector) OnCommit(cat isa.Category, activeLanes int) {
	if c == nil || c.Run == nil {
		return
	}
	c.Run.InstsByCategory[cat]++
	if cat == isa.CatVALU {
		c.Run.VALUInsts++
		c.Run.VALUActiveLanes += uint64(activeLanes)
	}
}

// sampleValue reports whether this VRF access of w's is value-sampled: it
// is when a hash of (w's workgroup and wave index within the dispatch, the
// index of the access among w's own) falls in the lowest 1/ValueSampleEvery
// of its range. The sampled set is a property of the program and its data,
// whichever compute unit runs w and however its accesses interleave with
// other waves'.
func (c *Collector) sampleValue(w *Wave) bool {
	if c == nil || c.Run == nil || !c.TrackValues {
		return false
	}
	if c.ValueSampleEvery <= 1 {
		return true
	}
	i := w.valueIndex
	if i == 0 { // the access index keeps the low 32 bits to itself
		w.valueKey = uint64(w.WG.Info.FlatID)<<40 | uint64(w.WaveID)<<32
	}
	w.valueIndex = i + 1
	h := (w.valueKey ^ i) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return (h>>32)*uint64(c.ValueSampleEvery)>>32 == 0
}

// OnVRFValue records a lane-value uniqueness observation for one vector
// operand access of w's, if it is sampled: vals under w's execution mask.
// Every value-sampled access goes through it, the engines' register-file
// walk (vrfWalk) and the reference interpreter's alike.
func (c *Collector) OnVRFValue(w *Wave, write bool, vals *[isa.WavefrontSize]uint32) {
	if !c.sampleValue(w) {
		return
	}
	unique, lanes := stats.UniqueCount(vals, w.Exec)
	if write {
		c.Run.WriteUnique += uint64(unique)
		c.Run.WriteLanes += uint64(lanes)
	} else {
		c.Run.ReadUnique += uint64(unique)
		c.Run.ReadLanes += uint64(lanes)
	}
}

// OnVRFSlot records a reuse-distance access to a vector register slot.
func (c *Collector) OnVRFSlot(w *Wave, slot int) {
	if c == nil || c.Run == nil || !c.TrackReuse || w.Reuse == nil {
		return
	}
	w.Reuse.Access(slot, &c.Run.Reuse)
}

// TickReuse advances a wavefront's dynamic instruction counter.
func (c *Collector) TickReuse(w *Wave) {
	if c == nil || c.Run == nil || !c.TrackReuse || w.Reuse == nil {
		return
	}
	w.Reuse.Tick()
}

// Engine is one ISA abstraction's functional execution engine. The timing
// model owns wavefront scheduling; the engine owns semantics.
type Engine interface {
	// Abstraction returns "HSAIL" or "GCN3".
	Abstraction() string
	// NewWave creates wavefront state for wave waveID of workgroup wg,
	// applying the abstraction's launch/ABI initialization.
	NewWave(wg *WGState, waveID int) *Wave
	// Peek returns the scheduling metadata of the instruction at w.PC.
	// The result points into the engine's per-PC decode cache and is
	// shared by every wave at that PC: callers must treat it as
	// read-only.
	Peek(w *Wave) (*InstInfo, error)
	// InstString disassembles the instruction at pc (for tracing tools).
	InstString(pc uint64) string
	// Execute commits the instruction at w.PC and advances the wavefront.
	Execute(w *Wave) (ExecResult, error)
	// LDSBytes returns the kernel's workgroup LDS demand.
	LDSBytes() int
	// RegDemand returns (vector slots, scalar regs) per wavefront, used by
	// the dispatcher for occupancy accounting.
	RegDemand() (int, int)
	// FreeWave takes back a wave whose workgroup has finished, for a later
	// NewWave to re-arm: the caller never touches it again.
	FreeWave(w *Wave)
}
