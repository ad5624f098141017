package emu

import (
	"testing"

	"ilsim/internal/isa"
	"ilsim/internal/stats"
)

func TestCollectorNilSafety(t *testing.T) {
	// A nil collector and a collector without a Run must be no-ops.
	var c *Collector
	c.OnCommit(isa.CatVALU, 64)
	c.TickReuse(&Wave{})
	c2 := &Collector{}
	c2.OnCommit(isa.CatVALU, 64)
	var vals [isa.WavefrontSize]uint32
	c2.OnVRFValue(&Wave{Exec: isa.FullMask(64)}, false, &vals)
}

func TestCollectorCommitCounts(t *testing.T) {
	run := &stats.Run{}
	c := &Collector{Run: run}
	c.OnCommit(isa.CatVALU, 32)
	c.OnCommit(isa.CatVALU, 64)
	c.OnCommit(isa.CatSALU, 64)
	if run.InstsByCategory[isa.CatVALU] != 2 || run.InstsByCategory[isa.CatSALU] != 1 {
		t.Fatalf("category counts wrong: %v", run.InstsByCategory)
	}
	if run.VALUInsts != 2 || run.VALUActiveLanes != 96 {
		t.Fatalf("VALU accounting wrong: %d insts, %d lanes", run.VALUInsts, run.VALUActiveLanes)
	}
	if run.SIMDUtilization() != 96.0/128.0 {
		t.Fatalf("utilization %v", run.SIMDUtilization())
	}
}

func TestCollectorValueSampling(t *testing.T) {
	run := &stats.Run{}
	c := &Collector{Run: run, TrackValues: true, ValueSampleEvery: 4}
	var vals [isa.WavefrontSize]uint32
	for i := range vals {
		vals[i] = uint32(i % 4)
	}
	w := &Wave{Exec: isa.FullMask(64)}
	for i := 0; i < 16; i++ {
		c.OnVRFValue(w, false, &vals)
	}
	// Sampling 1-in-4 over 16 accesses records 4 observations of 64 lanes.
	if run.ReadLanes != 4*64 {
		t.Fatalf("sampled lanes %d, want %d", run.ReadLanes, 4*64)
	}
	if run.ReadUnique != 4*4 {
		t.Fatalf("sampled unique %d, want %d", run.ReadUnique, 4*4)
	}
	// Every-access sampling, under the wave's execution mask.
	run2 := &stats.Run{}
	c2 := &Collector{Run: run2, TrackValues: true, ValueSampleEvery: 1}
	c2.OnVRFValue(&Wave{Exec: isa.FullMask(32)}, true, &vals)
	if run2.WriteLanes != 32 || run2.WriteUnique != 4 {
		t.Fatalf("write sampling: %d lanes %d unique", run2.WriteLanes, run2.WriteUnique)
	}
	t.Run("per-wave counters", testPerWaveCounters)
}

// testPerWaveCounters: a wave with its own sampling counter (the timing
// model's per-CU counter) advances only that one. Two waves on distinct
// counters, interleaved access by access, each sample one in N of their own
// accesses; a wave without one counts on the collector's counter.
func testPerWaveCounters(t *testing.T) {
	const every = 4
	run := &stats.Run{}
	c := &Collector{Run: run, TrackValues: true, ValueSampleEvery: every}
	var vals [isa.WavefrontSize]uint32
	var ctrA, ctrB int
	a := &Wave{Exec: isa.FullMask(1), ValueCounter: &ctrA}
	b := &Wave{Exec: isa.FullMask(2), ValueCounter: &ctrB}
	plain := &Wave{Exec: isa.FullMask(4)}
	// a and b make 3 accesses each, interleaved: with one shared counter the
	// sixth access overall would be sampled; with their own neither samples.
	for i := 0; i < every-1; i++ {
		c.OnVRFValue(a, false, &vals)
		c.OnVRFValue(b, false, &vals)
	}
	if run.ReadLanes != 0 || ctrA != every-1 || ctrB != every-1 || c.valueCounter != 0 {
		t.Fatalf("after %d accesses each: %d lanes sampled, counters a=%d b=%d collector=%d",
			every-1, run.ReadLanes, ctrA, ctrB, c.valueCounter)
	}
	// The fourth access of each samples it, on its own lanes.
	c.OnVRFValue(a, false, &vals)
	if run.ReadLanes != 1 {
		t.Fatalf("a's 4th access: %d lanes sampled, want 1", run.ReadLanes)
	}
	c.OnVRFValue(b, false, &vals)
	if run.ReadLanes != 1+2 || ctrA != 0 || ctrB != 0 {
		t.Fatalf("b's 4th access: %d lanes sampled (want 3), counters a=%d b=%d", run.ReadLanes, ctrA, ctrB)
	}
	// A wave without a counter of its own uses the collector's.
	for i := 0; i < every; i++ {
		c.OnVRFValue(plain, true, &vals)
	}
	if run.WriteLanes != 4 || c.valueCounter != 0 || ctrA != 0 || ctrB != 0 {
		t.Fatalf("plain wave: %d write lanes (want 4), counters a=%d b=%d collector=%d",
			run.WriteLanes, ctrA, ctrB, c.valueCounter)
	}
	c.OnVRFValue(plain, true, &vals)
	if c.valueCounter != 1 {
		t.Fatalf("plain wave's access left the collector's counter at %d, want 1", c.valueCounter)
	}
}

func TestRegListCapacity(t *testing.T) {
	var l RegList
	l.Add(0, 100) // over capacity: must clamp, not panic
	if int(l.N) != len(l.Idx) {
		t.Fatalf("N = %d, want %d", l.N, len(l.Idx))
	}
	got := l.Slice()
	for i, r := range got {
		if int(r) != i {
			t.Fatalf("Idx[%d] = %d", i, r)
		}
	}
}

func TestWGStateLDSIsolation(t *testing.T) {
	// Each workgroup gets its own LDS array.
	a := NewWGState(nil, nil, 256)
	b := NewWGState(nil, nil, 256)
	a.LDS[0] = 7
	if b.LDS[0] != 0 {
		t.Fatal("LDS shared between workgroups")
	}
}
