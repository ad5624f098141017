// Package workloads implements the paper's Table 5 application suite against
// the kernel-builder API. Each workload reproduces the characteristics the
// paper's evaluation attributes to its namesake — the properties that drive
// every per-workload result in Figures 5-12 and Table 6:
//
//	ArrayBW     memory streaming in a tight uniform loop
//	BitonicSort branch-free compare-exchange networks (pure predication)
//	CoMD        branch-heavy neighbor-list force loops
//	FFT         compute-bound, cmov-heavy, divide-free, spill-segment use
//	HPGMG       stencil smoothing with boundary predication, no branches
//	LULESH      27 unique kernels, many dynamic launches, private-segment use
//	MD          all-pairs forces: f64 divides and rsqrt, full SIMD utilization
//	SNAP        transport sweeps: regular f64 fma/divide chains
//	SpMV        CSR row loops with data-dependent (divergent) trip counts
//	XSBench     randomized binary-search table lookups with divergent gathers
//
// Beside the suite, Fig3 and Ablations register the kernels behind the
// report's Figure 3 walkthrough and its finalizer ablation study. ByName and
// Prepare resolve them; All does not list them.
//
// Inputs are deterministic per scale so both abstractions execute identical
// data, and every workload carries a host-side output checker.
package workloads

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"ilsim/internal/core"
)

// Instance is a prepared workload run: Setup allocates and initializes
// buffers on a machine and submits every launch; Check verifies outputs
// after the run.
//
// One prepared Instance may drive any number of Machines CONCURRENTLY:
// Setup and Check only read the shared input data and keep all per-run
// state (buffer addresses) on the Machine. This is the contract the
// experiment engine's instance cache relies on to prepare each (workload,
// scale) once per sweep. Check consumes the per-machine state, so call it
// at most once per Setup on a given machine.
type Instance struct {
	Setup func(m *core.Machine) error
	Check func(m *core.Machine) error
	// Kernels lists the prepared kernels (for footprint reports).
	Kernels []*core.KernelSource
}

// Workload is one Table 5 application.
type Workload struct {
	Name        string
	Description string
	// Prepare builds kernels and input generators at the given scale
	// (1 = unit-test size; DefaultScale = evaluation size).
	Prepare func(scale int) (*Instance, error)
}

// DefaultScale is the evaluation input scale used by the report harness.
const DefaultScale = 4

// All returns the suite in the paper's Table 5 order.
func All() []*Workload {
	return []*Workload{
		ArrayBW(), BitonicSort(), CoMD(), FFT(), HPGMG(),
		LULESH(), MD(), SNAP(), SpMV(), XSBench(),
	}
}

// extras are the workloads outside Table 5 that the report runs beside the
// suite: the Figure 3 walkthrough and the finalizer ablation study.
func extras() []*Workload {
	return append([]*Workload{Fig3()}, Ablations()...)
}

// ByName finds a workload, in Table 5 or among the report's extras.
func ByName(name string) (*Workload, error) {
	for _, w := range append(All(), extras()...) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Prepare resolves a workload by name and prepares it at scale. It is where
// jobs and the command lines enter the suite, so a scale below 1 — which the
// generators would otherwise discover as a negative slice length or an empty
// grid — is refused here, as an ordinary error.
func Prepare(name string, scale int) (*Instance, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		return nil, fmt.Errorf("workloads: %s: scale %d is below 1", name, scale)
	}
	return w.Prepare(scale)
}

// rng returns the deterministic generator for a workload/scale pair. The
// seed is FNV-1a over the name mixed with the scale: the earlier ad-hoc
// `len*K + scale` + base-31 scheme could collide for short names (two
// colliding workloads would silently share input data across the whole
// suite), while FNV-1a keeps distinct (name, scale) pairs on distinct
// streams.
func rng(name string, scale int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := h.Sum64()*0x100000001b3 + uint64(scale)
	return rand.New(rand.NewSource(int64(seed)))
}
