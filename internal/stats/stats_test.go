package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ilsim/internal/isa"
)

func TestHistogramMedianAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(500)
		var h Histogram
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(rng.Intn(64))
			h.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		// Nearest-rank median: ceil(n/2)-th value.
		want := vals[(n+1)/2-1]
		if got := h.Median(); got != want {
			t.Fatalf("iter %d: median %d, want %d (n=%d)", iter, got, want, n)
		}
	}
}

func TestHistogramPercentileEdges(t *testing.T) {
	var h Histogram
	if h.Median() != 0 {
		t.Fatal("empty histogram median should be 0")
	}
	for i := 1; i <= 100; i++ {
		h.Add(uint32(i))
	}
	if got := h.Percentile(100); got != 100 {
		t.Fatalf("P100 = %d", got)
	}
	if got := h.Percentile(1); got != 1 {
		t.Fatalf("P1 = %d", got)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := Pearson(x, x); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self-correlation %v", got)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if got := Pearson(x, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti-correlation %v", got)
	}
	if got := Pearson(x, []float64{1, 1, 1, 1, 1}); got != 0 {
		t.Fatalf("constant series correlation %v", got)
	}
	if got := Pearson(x, []float64{1, 2}); got != 0 {
		t.Fatalf("length mismatch should give 0, got %v", got)
	}
}

func TestPearsonScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 100
			y[i] = rng.Float64() * 100
		}
		r1 := Pearson(x, y)
		x2 := make([]float64, n)
		for i := range x2 {
			x2[i] = 3*x[i] + 7
		}
		r2 := Pearson(x2, y)
		return math.Abs(r1-r2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAbsError(t *testing.T) {
	sim := []float64{110, 90}
	hw := []float64{100, 100}
	if got := MeanAbsError(sim, hw); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MeanAbsError = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Geomean = %v", got)
	}
	if Geomean(nil) != 0 || Geomean([]float64{1, 0}) != 0 {
		t.Fatal("degenerate geomeans should be 0")
	}
}

func TestReuseTrackerOracle(t *testing.T) {
	var h Histogram
	tr := NewReuseTracker(8)
	// Instruction 1 accesses slot 3; instruction 4 accesses it again.
	tr.Tick()
	tr.Access(3, &h)
	tr.Tick()
	tr.Tick()
	tr.Tick()
	tr.Access(3, &h)
	if h.N() != 1 || h.Median() != 3 {
		t.Fatalf("distance: N=%d median=%d, want 1/3", h.N(), h.Median())
	}
	// Out-of-range slots are ignored.
	tr.Access(100, &h)
	if h.N() != 1 {
		t.Fatal("out-of-range access recorded")
	}
}

func TestRunDerivedMetrics(t *testing.T) {
	r := &Run{Cycles: 100}
	r.InstsByCategory[isa.CatVALU] = 50
	r.InstsByCategory[isa.CatSALU] = 25
	r.VALUInsts = 50
	r.VALUActiveLanes = 50 * 32
	r.VRFBankConflicts = 150
	r.ReadUnique, r.ReadLanes = 16, 64
	r.WriteUnique, r.WriteLanes = 8, 64
	if r.TotalInsts() != 75 {
		t.Fatalf("TotalInsts %d", r.TotalInsts())
	}
	if math.Abs(r.IPC()-0.75) > 1e-12 {
		t.Fatalf("IPC %v", r.IPC())
	}
	if math.Abs(r.SIMDUtilization()-0.5) > 1e-12 {
		t.Fatalf("util %v", r.SIMDUtilization())
	}
	if math.Abs(r.ConflictsPerKiloInst()-2000) > 1e-9 {
		t.Fatalf("conflicts/kinst %v", r.ConflictsPerKiloInst())
	}
	if math.Abs(r.ReadUniqueness()-0.25) > 1e-12 || math.Abs(r.WriteUniqueness()-0.125) > 1e-12 {
		t.Fatal("uniqueness wrong")
	}
}
