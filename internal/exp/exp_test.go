package exp

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// tinyJobs builds a fast dual-abstraction job set over n bank points.
// testing.TB so the fuzz harness can seed its corpus with real jobs.
func tinyJobs(t testing.TB, n int) []Job {
	t.Helper()
	pts, err := SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < n {
		t.Fatalf("banks sweep has %d points, need %d", len(pts), n)
	}
	return PairJobs("ArrayBW", 1, pts[:n], core.RunOptions{})
}

func TestEngineResultOrderAndLabels(t *testing.T) {
	jobs := tinyJobs(t, 2)
	eng := New(4)
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	if m.Jobs != len(jobs) || m.Failed != 0 {
		t.Fatalf("metrics %+v, want %d jobs, 0 failed", m, len(jobs))
	}
	for i, r := range results {
		if r.Job.Label != jobs[i].Label || r.Job.Abs != jobs[i].Abs {
			t.Fatalf("result %d is job %s, want %s", i, r.Job, jobs[i])
		}
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Job, r.Err)
		}
		if r.Run == nil || r.Run.TotalInsts() == 0 {
			t.Fatalf("job %s produced no run", r.Job)
		}
		if r.Wall <= 0 {
			t.Fatalf("job %s has no wall time", r.Job)
		}
	}
	// The HSAIL/GCN3 pairing must hold per point.
	for i := 0; i < len(results); i += 2 {
		if results[i].Job.Abs != core.AbsHSAIL || results[i+1].Job.Abs != core.AbsGCN3 {
			t.Fatalf("pair %d not (HSAIL, GCN3)", i/2)
		}
	}
}

func TestEngineProgressHook(t *testing.T) {
	jobs := tinyJobs(t, 2)
	eng := New(4)
	var calls int
	lastDone := 0
	eng.OnProgress = func(p Progress) {
		calls++
		// Serialized hook: Done must increase strictly one at a time.
		if p.Done != lastDone+1 {
			t.Errorf("progress Done = %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
		if p.Total != len(jobs) {
			t.Errorf("progress Total = %d, want %d", p.Total, len(jobs))
		}
	}
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Fatalf("progress hook called %d times, want %d", calls, len(jobs))
	}
}

func TestInstanceCacheMemoizes(t *testing.T) {
	var prepares atomic.Int64
	cache := NewInstanceCacheFunc(func(workload string, scale int) (*workloads.Instance, error) {
		prepares.Add(1)
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		return w.Prepare(scale)
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cache.Get("ArrayBW", 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := prepares.Load(); n != 1 {
		t.Fatalf("Prepare ran %d times for one (workload, scale), want 1", n)
	}
	if _, err := cache.Get("ArrayBW", 2); err != nil {
		t.Fatal(err)
	}
	if n := prepares.Load(); n != 2 {
		t.Fatalf("Prepare ran %d times for two scales, want 2", n)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
}

func TestInstanceCacheMemoizesErrors(t *testing.T) {
	var prepares atomic.Int64
	boom := errors.New("boom")
	cache := NewInstanceCacheFunc(func(string, int) (*workloads.Instance, error) {
		prepares.Add(1)
		return nil, boom
	})
	for i := 0; i < 3; i++ {
		if _, err := cache.Get("X", 1); !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("failing Prepare ran %d times, want 1 (memoized)", n)
	}
}

func TestEngineSharesPreparationAcrossJobs(t *testing.T) {
	var prepares atomic.Int64
	eng := New(4)
	eng.cache = NewInstanceCacheFunc(func(workload string, scale int) (*workloads.Instance, error) {
		prepares.Add(1)
		return workloads.Prepare(workload, scale)
	})
	jobs := tinyJobs(t, 2) // 4 jobs, one (workload, scale)
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("engine prepared %d times for %d jobs of one workload, want 1", n, len(jobs))
	}
	// A second Run on the same engine reuses the cache entirely.
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("second Run re-prepared (total %d), want cache hit", n)
	}
}

// TestScaleBelowOneIsPermanent: a job whose scale is below 1 fails with one
// clear error where it enters the suite — for every workload, not as whatever
// its generator trips over first (SpMV at -1 panicked in makeslice; at 0 it
// was an empty grid).
func TestScaleBelowOneIsPermanent(t *testing.T) {
	var jobs []Job
	for _, w := range workloads.All() {
		for _, scale := range []int{0, -1} {
			jobs = append(jobs, Job{Workload: w.Name, Scale: scale, Abs: core.AbsGCN3, Config: core.DefaultConfig()})
		}
	}
	results, _, err := New(2).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "is below 1") {
			t.Errorf("%v: error %v, want the scale named", r.Job, r.Err)
		}
		if c := Classify(r.Err); c != ClassPermanent {
			t.Errorf("%v: class %v, want %v (%v)", r.Job, c, ClassPermanent, r.Err)
		}
	}
}

func TestSweepPoints(t *testing.T) {
	for _, param := range SweepParams() {
		pts, err := SweepPoints(param)
		if err != nil {
			t.Fatalf("%s: %v", param, err)
		}
		want := 4 // a range sweep
		if param == "silicon" {
			want = 2 // the Table 4 baseline and the silicon point
		}
		if len(pts) < want {
			t.Fatalf("%s: only %d points", param, len(pts))
		}
		seen := map[string]bool{}
		for _, pt := range pts {
			if pt.Label == "" || seen[pt.Label] {
				t.Fatalf("%s: empty or duplicate label %q", param, pt.Label)
			}
			seen[pt.Label] = true
			if err := pt.Config.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid config: %v", param, pt.Label, err)
			}
		}
	}
	if _, err := SweepPoints("nope"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

// TestSiliconPointSlower: the silicon sweep pairs the Table 4 machine with
// one that differs from it in exactly the four memory parameters, each
// raised, and still validates.
func TestSiliconPointSlower(t *testing.T) {
	pts, err := SweepPoints("silicon")
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig()
	if len(pts) != 2 || pts[0].Label != "table4" || pts[0].Config != base || pts[1].Label != "silicon" {
		t.Fatalf("points %+v, want table4 (the default) then silicon", pts)
	}
	sil := pts[1].Config
	b, s := reflect.ValueOf(base), reflect.ValueOf(sil)
	var moved []string
	for i := range b.NumField() {
		if b.Field(i).Interface() != s.Field(i).Interface() {
			moved = append(moved, b.Type().Field(i).Name)
		}
	}
	if want := []string{"DRAMLatency", "DRAMOccupancy", "L1HitLatency", "L2HitLatency"}; !slices.Equal(moved, want) {
		t.Fatalf("silicon differs from Table 4 in %v, want %v", moved, want)
	}
	if sil.DRAMLatency <= base.DRAMLatency || sil.DRAMOccupancy <= base.DRAMOccupancy ||
		sil.L1HitLatency <= base.L1HitLatency || sil.L2HitLatency <= base.L2HitLatency {
		t.Fatalf("silicon %+v must add latency to Table 4", sil)
	}
	if err := sil.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCUSweepScalesMachine(t *testing.T) {
	pts, err := SweepPoints("cus")
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, pt := range pts {
		if pt.Config.NumCUs <= last {
			t.Fatalf("cus sweep not strictly increasing at %s", pt.Label)
		}
		last = pt.Config.NumCUs
	}
}

func TestMetricsMath(t *testing.T) {
	m := Metrics{Jobs: 8, Failed: 2, Elapsed: 2e9, JobWall: 6e9}
	if got := m.Throughput(); got != 3 {
		t.Errorf("Throughput = %v, want 3", got)
	}
	if got := m.Speedup(); got != 3 {
		t.Errorf("Speedup = %v, want 3", got)
	}
}

func TestJobString(t *testing.T) {
	j := Job{Label: "banks=4", Workload: "MD", Scale: 2, Abs: core.AbsGCN3}
	want := "banks=4 MD/GCN3@2"
	if got := j.String(); got != want {
		t.Errorf("Job.String() = %q, want %q", got, want)
	}
}
