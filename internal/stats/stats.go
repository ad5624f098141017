// Package stats collects and summarizes every statistic the paper's figures
// report: dynamic instruction counts by category (Fig 5), VRF bank conflicts
// (Fig 6), vector-register reuse distance (Fig 7), instruction footprint
// (Fig 8), instruction-buffer flushes (Fig 9), VRF lane-value uniqueness
// (Fig 10), IPC and cycles (Figs 11/12), data footprint and SIMD utilization
// (Table 6), and the correlation and error math of Table 7, which compares
// the HSAIL simulation's per-launch runtimes with the GCN3 simulation's.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"ilsim/internal/isa"
)

// Run aggregates the statistics of one workload execution under one ISA
// abstraction.
type Run struct {
	Workload    string
	Abstraction string // "HSAIL" or "GCN3"

	// Cycles is the total GPU cycle count of the run.
	Cycles uint64
	// KernelCycles records each dynamic dispatch's cycle count, in launch
	// order (the per-kernel runtimes of the paper's Table 7 study).
	KernelCycles []uint64
	// KernelLaunches counts dynamic dispatches.
	KernelLaunches uint64

	// InstsByCategory counts committed wavefront-level instructions.
	InstsByCategory [isa.NumCategories]uint64

	// VRFBankConflicts counts same-cycle same-bank operand collisions.
	VRFBankConflicts uint64
	// VRFAccesses counts vector-register operand accesses (reads+writes).
	VRFAccesses uint64

	// IBFlushes counts instruction-buffer flushes caused by PC redirects.
	IBFlushes uint64
	// Redirects counts all front-end PC redirects (flushing or not).
	Redirects uint64

	// CodeFootprintBytes is the static instruction footprint of all loaded
	// kernels (8 B/inst for HSAIL; true encoded size for GCN3).
	CodeFootprintBytes uint64
	// DataFootprintBytes is the touched-line data footprint.
	DataFootprintBytes uint64

	// SIMD utilization: active lanes over issued vector-ALU instructions.
	VALUActiveLanes uint64
	VALUInsts       uint64

	// Value uniqueness accumulators over sampled VRF accesses.
	ReadLanes   uint64
	ReadUnique  uint64
	WriteLanes  uint64
	WriteUnique uint64

	// Reuse holds the vector-register reuse-distance distribution.
	Reuse Histogram

	// Memory-side statistics.
	L1DAccesses, L1DMisses           uint64
	L1IAccesses, L1IMisses           uint64
	L2Accesses, L2Misses             uint64
	ScalarL1Accesses, ScalarL1Misses uint64
	// FetchStallCycles counts cycles wavefronts spent with an empty IB.
	FetchStallCycles uint64
}

// Merge folds o's counters into r: every field is a sum (or a histogram
// count union); identity fields (Workload, Abstraction) are left untouched
// and o's KernelCycles are appended. The simulator no longer calls it (a
// device commits to one Run); it stays only because frozen bench/ladder.go
// times it as the stats.merge_ns rung.
func (r *Run) Merge(o *Run) {
	if o == nil {
		return
	}
	r.Cycles += o.Cycles
	r.KernelCycles = append(r.KernelCycles, o.KernelCycles...)
	r.KernelLaunches += o.KernelLaunches
	for i := range r.InstsByCategory {
		r.InstsByCategory[i] += o.InstsByCategory[i]
	}
	r.VRFBankConflicts += o.VRFBankConflicts
	r.VRFAccesses += o.VRFAccesses
	r.IBFlushes += o.IBFlushes
	r.Redirects += o.Redirects
	r.CodeFootprintBytes += o.CodeFootprintBytes
	r.DataFootprintBytes += o.DataFootprintBytes
	r.VALUActiveLanes += o.VALUActiveLanes
	r.VALUInsts += o.VALUInsts
	r.ReadLanes += o.ReadLanes
	r.ReadUnique += o.ReadUnique
	r.WriteLanes += o.WriteLanes
	r.WriteUnique += o.WriteUnique
	r.Reuse.Merge(&o.Reuse)
	r.L1DAccesses += o.L1DAccesses
	r.L1DMisses += o.L1DMisses
	r.L1IAccesses += o.L1IAccesses
	r.L1IMisses += o.L1IMisses
	r.L2Accesses += o.L2Accesses
	r.L2Misses += o.L2Misses
	r.ScalarL1Accesses += o.ScalarL1Accesses
	r.ScalarL1Misses += o.ScalarL1Misses
	r.FetchStallCycles += o.FetchStallCycles
}

// TotalInsts returns the dynamic instruction count.
func (r *Run) TotalInsts() uint64 {
	var n uint64
	for _, c := range r.InstsByCategory {
		n += c
	}
	return n
}

// IPC returns instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalInsts()) / float64(r.Cycles)
}

// SIMDUtilization returns the mean fraction of active lanes on vector-ALU
// instructions.
func (r *Run) SIMDUtilization() float64 {
	if r.VALUInsts == 0 {
		return 0
	}
	return float64(r.VALUActiveLanes) / float64(r.VALUInsts*isa.WavefrontSize)
}

// ReadUniqueness returns unique values / lanes over VRF reads.
func (r *Run) ReadUniqueness() float64 {
	if r.ReadLanes == 0 {
		return 0
	}
	return float64(r.ReadUnique) / float64(r.ReadLanes)
}

// WriteUniqueness returns unique values / lanes over VRF writes.
func (r *Run) WriteUniqueness() float64 {
	if r.WriteLanes == 0 {
		return 0
	}
	return float64(r.WriteUnique) / float64(r.WriteLanes)
}

// ConflictsPerKiloInst normalizes bank conflicts by dynamic instructions.
func (r *Run) ConflictsPerKiloInst() float64 {
	t := r.TotalInsts()
	if t == 0 {
		return 0
	}
	return 1000 * float64(r.VRFBankConflicts) / float64(t)
}

// IBFlushesPerKiloInst normalizes instruction-buffer flushes by dynamic
// instructions.
func (r *Run) IBFlushesPerKiloInst() float64 {
	t := r.TotalInsts()
	if t == 0 {
		return 0
	}
	return 1000 * float64(r.IBFlushes) / float64(t)
}

// String renders a one-line summary.
func (r *Run) String() string {
	return fmt.Sprintf("%s/%s: %d insts, %d cycles, IPC %.3f",
		r.Workload, r.Abstraction, r.TotalInsts(), r.Cycles, r.IPC())
}

// histDenseSize bounds the dense fast path of Histogram: values below it
// count in a flat array, values at or above it overflow into a map. Reuse
// distances — the per-register-access workhorse of the Fig 7 tracker — are
// overwhelmingly small, so the hot Add is two increments and no hashing.
const histDenseSize = 1024

// Histogram is an exact integer-valued distribution (value → count),
// compact enough for reuse distances because distinct distances are few
// relative to accesses.
type Histogram struct {
	// dense counts observations of v < histDenseSize (allocated on first
	// small Add); counts holds the overflow.
	dense  []uint64
	counts map[uint32]uint64
	n      uint64
	// keys caches the sorted distinct values for Percentile, which report
	// code calls repeatedly per figure; Add invalidates it.
	keys []uint32
}

// Add records one observation.
func (h *Histogram) Add(v uint32) {
	if v < uint32(len(h.dense)) && h.keys == nil {
		h.dense[v]++
		h.n++
		return
	}
	h.add(v)
}

// add is Add for the first small observation, an overflow value, or a
// histogram holding cached keys.
func (h *Histogram) add(v uint32) {
	h.keys = nil
	if v < histDenseSize {
		if h.dense == nil {
			h.dense = make([]uint64, histDenseSize)
		}
		h.dense[v]++
	} else {
		if h.counts == nil {
			h.counts = make(map[uint32]uint64)
		}
		h.counts[v]++
	}
	h.n++
}

// Merge folds another histogram's observations into h (Run.Merge's share).
// Count union is commutative and associative, so merging in any order
// yields the distribution a single shared histogram would have accumulated.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	h.keys = nil
	if o.dense != nil {
		if h.dense == nil {
			h.dense = make([]uint64, histDenseSize)
		}
		for v, c := range o.dense {
			h.dense[v] += c
		}
	}
	if len(o.counts) > 0 {
		if h.counts == nil {
			h.counts = make(map[uint32]uint64, len(o.counts))
		}
		for k, c := range o.counts {
			h.counts[k] += c
		}
	}
	h.n += o.n
}

// count returns the observation count of one value.
func (h *Histogram) count(v uint32) uint64 {
	if v < histDenseSize {
		if h.dense == nil {
			return 0
		}
		return h.dense[v]
	}
	return h.counts[v]
}

// sortedKeys returns the distinct observed values in ascending order,
// caching the slice until the next Add.
func (h *Histogram) sortedKeys() []uint32 {
	if h.keys != nil || h.n == 0 {
		return h.keys
	}
	keys := make([]uint32, 0, 64+len(h.counts))
	for v, c := range h.dense {
		if c > 0 {
			keys = append(keys, uint32(v))
		}
	}
	// The dense prefix is already ascending and every map key is at least
	// histDenseSize, so sorting the overflow suffix keeps the whole slice
	// sorted.
	tail := len(keys)
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys[tail:], func(i, j int) bool { return keys[tail+i] < keys[tail+j] })
	h.keys = keys
	return keys
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Median returns the median observation (0 when empty).
func (h *Histogram) Median() uint32 { return h.Percentile(50) }

// Percentile returns the p-th percentile (nearest-rank).
func (h *Histogram) Percentile(p float64) uint32 {
	if h.n == 0 {
		return 0
	}
	keys := h.sortedKeys()
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, k := range keys {
		cum += h.count(k)
		if cum >= rank {
			return k
		}
	}
	return keys[len(keys)-1]
}

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.dense {
		if c > 0 {
			sum += float64(v) * float64(c)
		}
	}
	for k, c := range h.counts {
		sum += float64(k) * float64(c)
	}
	return sum / float64(h.n)
}

// Pearson returns the Pearson correlation coefficient of two series.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// MeanAbsError returns the mean of |sim-ref|/ref over kernel runtimes, the
// "average absolute error" of the paper's Table 7. The paper's reference is
// measured silicon; the report's is the GCN3 simulation, so sim is the
// HSAIL simulation and the error is what the IL abstraction adds.
func MeanAbsError(sim, ref []float64) float64 {
	if len(sim) != len(ref) || len(sim) == 0 {
		return 0
	}
	var sum float64
	for i := range sim {
		if ref[i] == 0 {
			continue
		}
		sum += math.Abs(sim[i]-ref[i]) / ref[i]
	}
	return sum / float64(len(sim))
}

// Geomean returns the geometric mean of positive values.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ReuseTracker measures per-wavefront vector-register reuse distance: the
// number of dynamic instructions a wavefront executes between consecutive
// accesses to the same vector register (paper Fig 7).
type ReuseTracker struct {
	last  []int64 // per register slot: instruction index of last access
	count int64   // instructions executed by this wavefront
}

// NewReuseTracker sizes a tracker for a wavefront with numSlots registers.
func NewReuseTracker(numSlots int) *ReuseTracker {
	t := &ReuseTracker{last: make([]int64, numSlots)}
	for i := range t.last {
		t.last[i] = -1
	}
	return t
}

// Tick advances the per-wavefront instruction counter.
func (t *ReuseTracker) Tick() { t.count++ }

// Access records an access to a register slot, emitting the reuse distance
// into h when the slot was accessed before.
func (t *ReuseTracker) Access(slot int, h *Histogram) {
	if slot < len(t.last) {
		t.AccessSlots([]uint16{uint16(slot)}, h)
	}
}

// AccessSlots is Access for each slot in turn: one call for all the
// register accesses of an instruction.
func (t *ReuseTracker) AccessSlots(slots []uint16, h *Histogram) {
	for _, s := range slots {
		if int(s) >= len(t.last) {
			continue
		}
		if prev := t.last[s]; prev >= 0 {
			d := t.count - prev
			if d > math.MaxUint32 {
				d = math.MaxUint32
			}
			h.Add(uint32(d))
		}
		t.last[s] = t.count
	}
}

// UniqueCount's table: 2^uniqueTableBits one-byte slots (1 KB of stack, at
// most 1/16 full) indexed by the top bits of value × uniqueHashMul
// (Fibonacci hashing: 2^32 divided by the golden ratio, odd, so the product
// is a bijection and an arithmetic sequence of values spreads evenly).
const (
	uniqueTableBits = 10
	uniqueHashMul   = 0x9E3779B1
)

// UniqueCount returns the number of distinct values among the lanes of vals
// that are set in mask, and the number of such lanes. It is the Fig 10 kernel:
// unique lane values per VRF access, called once per sampled operand.
//
// The result is exact for every input and mask, and the call allocates
// nothing. On a CPU with AVX-512 an access with at least uniqueSIMDMinLanes
// active lanes goes to the vector kernel (unique_amd64.s), which sorts the
// wave; everything else goes to uniqueTable.
func UniqueCount(vals *[isa.WavefrontSize]uint32, mask isa.ExecMask) (unique, lanes int) {
	lanes = mask.PopCount()
	if lanes <= 1 {
		return lanes, lanes
	}
	if lanes >= uniqueSIMDMinLanes && uniqueSIMD != nil {
		return uniqueSIMD(vals, uint64(mask)), lanes
	}
	return uniqueTable(vals, mask, lanes), lanes
}

// uniqueSIMDMinLanes is the fewest active lanes the vector kernel takes.
// The kernel costs the same at any mask; the table's cost grows with the
// lanes, and the two break even between 4 and 6 (BenchmarkUniqueCount's
// lanes-N cases).
const uniqueSIMDMinLanes = 6

// uniqueTable is UniqueCount's portable path for lanes (at least two)
// active lanes. Its time is linear in the number of active lanes: a uniform
// or strictly monotonic access (an address, a lane id, a broadcast constant)
// is settled by one pass of comparisons, and everything else goes through an
// open-addressed table on the stack whose slots hold lane numbers, not
// values, so no value needs a sentinel. (Linear in expectation: the table
// is at most 1/16 full, so a probe rarely takes a second step, but 64 values
// hashing to one slot would still be counted correctly.)
func uniqueTable(vals *[isa.WavefrontSize]uint32, mask isa.ExecMask, lanes int) (unique int) {
	const (
		laneMask  = isa.WavefrontSize - 1
		tableMask = 1<<uniqueTableBits - 1
	)
	// a[:lanes] holds the active lanes' values in lane order.
	a := vals
	if lanes < isa.WavefrontSize {
		var packed [isa.WavefrontSize]uint32
		n := 0
		for m := uint64(mask); m != 0; m &= m - 1 {
			packed[n&laneMask] = vals[bits.TrailingZeros64(m)&laneMask]
			n++
		}
		a = &packed
	}
	if uniformOrMonotonic(a[:lanes]) {
		if a[0] == a[1] {
			return 1
		}
		return lanes
	}
	// table[s] is 1 + the latest index into a whose value lives in slot s,
	// 0 while the slot is empty. Keeping the latest index rather than the
	// first makes the store independent of the load before it, and the
	// common path is written without a branch on "seen before?", which is
	// as good as random for the mostly-distinct accesses that dominate.
	var table [1 << uniqueTableBits]uint8
	for i, v := range a[:lanes] {
		h := v * uniqueHashMul >> (32 - uniqueTableBits)
		for {
			s := table[h&tableMask]
			var empty, differs uint8
			if s == 0 {
				empty = 1
			}
			if a[(s-1)&laneMask] != v { // reads a[63] for an empty slot; ignored
				differs = 1
			}
			if differs&^empty == 0 {
				unique += int(empty)
				break
			}
			h++ // the slot belongs to another value: linear probing
		}
		table[h&tableMask] = uint8(i + 1)
	}
	return unique
}

// uniformOrMonotonic reports whether a, of length at least two, is all one
// value or strictly ascending or strictly descending. It stops at the first
// element that breaks the shape the first two set.
func uniformOrMonotonic(a []uint32) bool {
	prev := a[1]
	switch rest := a[2:]; {
	case a[0] == prev:
		for _, v := range rest {
			if v != prev {
				return false
			}
		}
	case a[0] < prev:
		for _, v := range rest {
			if v <= prev {
				return false
			}
			prev = v
		}
	default:
		for _, v := range rest {
			if v >= prev {
				return false
			}
			prev = v
		}
	}
	return true
}
