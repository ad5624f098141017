package emu

import (
	"math"
	"reflect"
	"testing"

	"ilsim/internal/hsa"
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

// sampleWave is wave waveID of the dispatch's workgroup wg, all lanes on.
func sampleWave(wg uint32, waveID int) *Wave {
	return &Wave{WG: &WGState{Info: &hsa.WorkgroupInfo{FlatID: wg}}, WaveID: waveID, Exec: isa.FullMask(64)}
}

// samples returns which of w's next n VRF accesses c samples.
func samples(c *Collector, w *Wave, n int) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = c.sampleValue(w)
	}
	return s
}

// TestCollectorValueSampling: a wave's accesses are sampled one in N on
// average, by a rule of the wave's identity and its own access index alone;
// ValueSampleEvery 0 and 1 sample every access, under the wave's EXEC.
func TestCollectorValueSampling(t *testing.T) {
	// Over a few thousand accesses each wave samples 1/n of them, within
	// four standard deviations of as many fair 1-in-n draws.
	const accesses = 4096
	for _, n := range []int{3, 4, 16} {
		c := &Collector{Run: &stats.Run{}, TrackValues: true, ValueSampleEvery: n}
		for _, id := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {255, 3}, {256, 3}, {70000, 15}} {
			got := 0
			for _, s := range samples(c, sampleWave(uint32(id[0]), id[1]), accesses) {
				if s {
					got++
				}
			}
			p := 1 / float64(n)
			want, tol := accesses*p, 4*math.Sqrt(accesses*p*(1-p))
			if math.Abs(float64(got)-want) > tol {
				t.Errorf("every %d: wave %d of workgroup %d sampled %d of %d accesses, want %.0f ± %.0f",
					n, id[1], id[0], got, accesses, want, tol)
			}
		}
	}

	// Every-access sampling, under the wave's execution mask.
	var vals [isa.WavefrontSize]uint32
	for i := range vals {
		vals[i] = uint32(i % 4)
	}
	for _, every := range []int{0, 1} {
		run := &stats.Run{}
		c := &Collector{Run: run, TrackValues: true, ValueSampleEvery: every}
		w := &Wave{Exec: isa.FullMask(32)}
		for range 3 {
			c.OnVRFValue(w, true, &vals)
			c.OnVRFValue(w, false, &vals)
		}
		if run.WriteLanes != 3*32 || run.WriteUnique != 3*4 || run.ReadLanes != 3*32 || run.ReadUnique != 3*4 {
			t.Fatalf("every %d: write %d lanes %d unique, read %d lanes %d unique over 3 accesses each, want 96 and 12",
				every, run.WriteLanes, run.WriteUnique, run.ReadLanes, run.ReadUnique)
		}
	}
	t.Run("per-wave counters", testPerWaveCounters)
}

// testPerWaveCounters: which of a wave's accesses are sampled does not
// depend on other waves' accesses. Two waves interleaved access by access
// sample exactly the sets each samples alone, and the two sets differ (the
// wave's identity is part of the rule, so waves running one loop do not all
// sample the same iterations). A wave taken from the pool starts over.
func testPerWaveCounters(t *testing.T) {
	const accesses = 256
	c := &Collector{Run: &stats.Run{}, TrackValues: true, ValueSampleEvery: 4}
	aloneA := samples(c, sampleWave(5, 0), accesses)
	aloneB := samples(c, sampleWave(5, 1), accesses)
	a, b := sampleWave(5, 0), sampleWave(5, 1)
	var gotA, gotB []bool
	for range accesses {
		gotA = append(gotA, c.sampleValue(a))
		gotB = append(gotB, c.sampleValue(b))
	}
	if !reflect.DeepEqual(gotA, aloneA) || !reflect.DeepEqual(gotB, aloneB) {
		t.Fatal("interleaving two waves' accesses moved the sample")
	}
	if reflect.DeepEqual(aloneA, aloneB) {
		t.Fatal("waves 0 and 1 of one workgroup sample the same accesses")
	}
	var pool WavePool
	wg := a.WG
	pool.put(a)
	w, _ := pool.get()
	w.WG = wg
	if got := samples(c, w, accesses); !reflect.DeepEqual(got, aloneA) {
		t.Fatal("a pooled wave re-armed as wave 0 of workgroup 5 samples other accesses than a new one")
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
