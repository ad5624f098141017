package exp

import (
	"bytes"
	"errors"
	"testing"

	"ilsim/internal/core"
)

// determinismJobs is a mixed job set exercising both abstractions, two
// workloads (one uniform-loop, one divergent) and two design points, with
// the expensive optional statistics on — the widest deterministic surface
// we can afford at unit scale.
func determinismJobs(t *testing.T) []Job {
	t.Helper()
	pts, err := SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}
	var jobs []Job
	jobs = append(jobs, PairJobs("ArrayBW", 1, pts[:2], opts)...)
	jobs = append(jobs, PairJobs("SpMV", 1, pts[:2], opts)...)
	return jobs
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: the
// same job set at -j 1 and -j 8 yields byte-identical stats.Run results
// per job. Any hidden shared state in core.Machine, workloads.Instance or
// the cached KernelSource would perturb a fingerprint. Run with -race this
// is the determinism gate wired into the `race` CI target.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	jobs := determinismJobs(t)

	serial := New(1)
	serialRes, _, err := serial.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel := New(8)
	parallelRes, _, err := parallel.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	for i := range jobs {
		s, p := serialRes[i], parallelRes[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %s: serial err %v, parallel err %v", jobs[i], s.Err, p.Err)
		}
		sf, pf := s.Run.Fingerprint(), p.Run.Fingerprint()
		if !bytes.Equal(sf, pf) {
			t.Errorf("job %s: -j1 and -j8 disagree:\n--- j1 ---\n%s--- j8 ---\n%s",
				jobs[i], sf, pf)
		}
	}
}

// TestDeterminismRepeatedParallelRuns re-runs the same parallel job set on
// one engine (hitting the instance cache the second time) and requires
// identical fingerprints: cached instances must not accumulate state.
func TestDeterminismRepeatedParallelRuns(t *testing.T) {
	jobs := determinismJobs(t)
	eng := New(8)
	first, _, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("job %s: errs %v / %v", jobs[i], first[i].Err, second[i].Err)
		}
		if !bytes.Equal(first[i].Run.Fingerprint(), second[i].Run.Fingerprint()) {
			t.Errorf("job %s: cached re-run changed results", jobs[i])
		}
	}
}

// TestCollectAllSurvivesMidSweepError plants a failing job in the middle of
// a sweep and requires every other job to complete with results — the
// engine's contract: a failed point must not abort the sweep.
func TestCollectAllSurvivesMidSweepError(t *testing.T) {
	jobs := determinismJobs(t)
	bad := Job{Label: "bad", Workload: "NoSuchWorkload", Scale: 1,
		Abs: core.AbsHSAIL, Config: core.DefaultConfig()}
	mid := len(jobs) / 2
	jobs = append(jobs[:mid:mid], append([]Job{bad}, jobs[mid:]...)...)

	eng := New(4)
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("Run returned error: %v", err)
	}
	if m.Failed != 1 {
		t.Fatalf("metrics count %d failed, want 1", m.Failed)
	}
	for i, r := range results {
		if i == mid {
			if r.Err == nil {
				t.Fatal("planted failure produced no error")
			}
			if errors.Is(r.Err, ErrCanceled) {
				t.Fatal("planted failure reported as canceled")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("job %s aborted by unrelated failure: %v", r.Job, r.Err)
		}
		if r.Run == nil || r.Run.Cycles == 0 {
			t.Errorf("job %s yielded no result", r.Job)
		}
	}
}
