package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// TestEncodedCodeObjectsPinned hashes the encoded code object of every kernel
// of the suite and the ablations at scales 1 and 2, then of the ilsim-asm
// -tables examples, against one pinned sha256. The codec's round-trip tests
// pass for any bit layout that decodes what it encodes; this pins the bytes,
// so no code footprint or fetch stream moves unseen.
func TestEncodedCodeObjectsPinned(t *testing.T) {
	const pinned = "7729e961a0512f1961a2ecb09ecbd1d22c43f12c5092e56e498c446219312b2b"
	h := sha256.New()
	kernels, size := 0, 0
	add := func(ks *core.KernelSource) {
		b := ks.CodeObjectBytes()
		h.Write(b)
		kernels++
		size += len(b)
	}
	for _, scale := range []int{1, 2} {
		for _, w := range append(workloads.All(), workloads.Ablations()...) {
			inst, err := w.Prepare(scale)
			if err != nil {
				t.Fatalf("%s at scale %d: %v", w.Name, scale, err)
			}
			for _, ks := range inst.Kernels {
				add(ks)
			}
		}
	}
	for _, ex := range workloads.TableExamples() {
		ks, err := core.PrepareKernel(ex.Kernel, ex.Opts)
		if err != nil {
			t.Fatalf("%s: %v", ex.Title, err)
		}
		add(ks)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Errorf("%d code objects, %d bytes: sha256 %s, pinned %s", kernels, size, got, pinned)
	}
}
