package core

import (
	"fmt"

	"ilsim/internal/finalizer"
	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/kernel"
)

// KernelSource is one kernel prepared for dual-abstraction execution: the
// HSAIL form (as shipped in the BRIG-like container) and the finalized GCN3
// code object, plus the CFG analysis both consumers share.
//
// A prepared KernelSource is immutable and safe to load on any number of
// Machines concurrently; the experiment engine's instance cache relies on
// this to finalize each kernel once per sweep instead of once per point.
type KernelSource struct {
	HSAIL *hsail.Kernel
	CFG   *kernel.CFG
	GCN3  *gcn3.CodeObject
	// BRIGBytes is the encoded IL container size (the "several kilobytes"
	// representation, reported for context alongside Figure 8).
	BRIGBytes int
	// coBytes is the encoded code object GCN3 was decoded from: the image
	// a GCN3 Machine loads.
	coBytes []byte
}

// PrepareKernel runs the full toolchain on an HSAIL kernel: validation,
// BRIG container round-trip (the compiler→finalizer handoff), CFG analysis,
// and finalization to GCN3.
func PrepareKernel(k *hsail.Kernel, fopts finalizer.Options) (*KernelSource, error) {
	brig, err := hsail.EncodeBRIG(k)
	if err != nil {
		return nil, fmt.Errorf("core: kernel %q: %w", k.Name, err)
	}
	decoded, err := hsail.DecodeBRIG(brig)
	if err != nil {
		return nil, fmt.Errorf("core: kernel %q: BRIG round-trip: %w", k.Name, err)
	}
	cfg, err := kernel.AnalyzeCFG(decoded)
	if err != nil {
		return nil, fmt.Errorf("core: kernel %q: %w", k.Name, err)
	}
	co, err := finalizer.FinalizeWithCFG(decoded, cfg, fopts)
	if err != nil {
		return nil, fmt.Errorf("core: kernel %q: %w", k.Name, err)
	}
	// Exercise the machine-code container exactly as a loader would.
	coBytes, err := co.Encode()
	if err != nil {
		return nil, fmt.Errorf("core: kernel %q: %w", k.Name, err)
	}
	co2, err := gcn3.DecodeCodeObject(coBytes)
	if err != nil {
		return nil, fmt.Errorf("core: kernel %q: code object round-trip: %w", k.Name, err)
	}
	return &KernelSource{
		HSAIL:     decoded,
		CFG:       cfg,
		GCN3:      co2,
		BRIGBytes: len(brig),
		coBytes:   coBytes,
	}, nil
}

// CodeBytesHSAIL returns the loaded HSAIL footprint (8 B/instruction).
func (ks *KernelSource) CodeBytesHSAIL() int { return ks.HSAIL.CodeBytes() }

// CodeBytesGCN3 returns the true encoded GCN3 footprint.
func (ks *KernelSource) CodeBytesGCN3() int { return ks.GCN3.Program.Size }
