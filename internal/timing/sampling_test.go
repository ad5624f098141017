package timing

import (
	"testing"

	"ilsim/internal/emu"
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
	"ilsim/internal/stats"
)

// sampleStubEngine is stubEngine with waves that end after n instructions,
// each reporting one VRF access to col.
type sampleStubEngine struct {
	stubEngine
	col  *emu.Collector
	n    uint64
	vals [isa.WavefrontSize]uint32
}

func (e *sampleStubEngine) Execute(w *emu.Wave) (emu.ExecResult, error) {
	e.col.OnVRFValue(w, false, &e.vals)
	w.PC += 4
	return emu.ExecResult{ActiveLanes: isa.WavefrontSize, IsEndPgm: w.PC == 4*e.n}, nil
}

// TestValueSamplingRestartsPerDispatch: a CU counts Fig 10's value samples
// from zero at every dispatch, as the per-CU engine clones it replaced did.
// Two dispatches of one wave making 3 accesses each, sampled one in 4,
// sample nothing; a counter carried across dispatches would sample the
// second dispatch's first access. (The suite's goldens cannot tell: at their
// scales every CU's per-dispatch access count is a multiple of 4.)
func TestValueSamplingRestartsPerDispatch(t *testing.T) {
	run := &stats.Run{}
	g := NewGPU(DefaultParams(), run)
	eng := &sampleStubEngine{stubEngine: *newStubEngine(), n: 3,
		col: &emu.Collector{Run: run, TrackValues: true, ValueSampleEvery: 4}}
	for i := 0; i < 2; i++ {
		d := &hsa.Dispatch{Workgroups: []hsa.WorkgroupInfo{{Size: isa.WavefrontSize, NumWaves: 1}}}
		if _, err := g.RunDispatch(eng, d); err != nil {
			t.Fatal(err)
		}
	}
	if run.ReadLanes != 0 {
		t.Errorf("%d lanes sampled over two dispatches of 3 accesses, want 0", run.ReadLanes)
	}
	if n := g.cus[0].valueCounter; n != 3 {
		t.Errorf("CU 0's counter is %d after a dispatch of 3 accesses, want 3", n)
	}
}
