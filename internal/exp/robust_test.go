package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// TestZeroValueEngine proves the zero value degrades gracefully: the
// instance cache initializes lazily instead of panicking in a worker.
func TestZeroValueEngine(t *testing.T) {
	var eng Engine
	results, m, err := eng.Run(tinyJobs(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != 0 {
		t.Fatalf("%d jobs failed on a zero-value engine", m.Failed)
	}
	for _, r := range results {
		if r.Err != nil || r.Run == nil {
			t.Fatalf("job %s: err %v, run %v", r.Job, r.Err, r.Run)
		}
	}
}

// TestPanicRecovery injects a panic into one job of a collect-all sweep:
// it must come back as a classified PanicError carrying the job label and
// a stack, with every other job unharmed and the engine reusable.
func TestPanicRecovery(t *testing.T) {
	jobs := tinyJobs(t, 2)
	eng := New(4)
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[1].String(), Fault{Panic: "injected crash"})

	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("Run returned error: %v", err)
	}
	if m.Failed != 1 {
		t.Fatalf("metrics count %d failed, want 1", m.Failed)
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("panicking job error = %v, want *PanicError", results[1].Err)
	}
	if pe.Job != jobs[1].String() || pe.Value != "injected crash" {
		t.Fatalf("PanicError carries job %q value %v", pe.Job, pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("runJob")) {
		t.Fatalf("PanicError stack does not show the worker frame:\n%s", pe.Stack)
	}
	if got := Classify(results[1].Err); got != ClassPanic {
		t.Fatalf("panic classified as %s", got)
	}
	for i, r := range results {
		if i == 1 {
			continue
		}
		if r.Err != nil || r.Run == nil {
			t.Fatalf("job %s harmed by sibling panic: %v", r.Job, r.Err)
		}
	}
	// The engine survives: a clean rerun on the same engine succeeds.
	eng.Faults = nil
	if _, m, err := eng.Run(jobs); err != nil || m.Failed != 0 {
		t.Fatalf("engine unusable after recovered panic: %v (%d failed)", err, m.Failed)
	}
}

// TestBudgetKillsRunawayJob gives one real simulation an impossible cycle
// budget: the watchdog must kill it mid-run with ErrBudgetExceeded while
// the rest of the sweep completes.
func TestBudgetKillsRunawayJob(t *testing.T) {
	jobs := tinyJobs(t, 1)
	runaway := Job{Label: "runaway", Workload: "ArrayBW", Scale: 1, Abs: core.AbsGCN3,
		Config: core.DefaultConfig(), Opts: core.RunOptions{MaxCycles: 100, CheckEvery: 16}}
	jobs = append(jobs, runaway)

	eng := New(2)
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != 1 {
		t.Fatalf("metrics count %d failed, want 1", m.Failed)
	}
	last := results[len(results)-1]
	if !errors.Is(last.Err, ErrBudgetExceeded) {
		t.Fatalf("budget job error = %v, want ErrBudgetExceeded", last.Err)
	}
	if got := Classify(last.Err); got != ClassBudget {
		t.Fatalf("budget kill classified as %s", got)
	}
	for _, r := range results[:len(results)-1] {
		if r.Err != nil {
			t.Fatalf("job %s harmed by sibling budget kill: %v", r.Job, r.Err)
		}
	}
}

// TestFailedJobsLeaveNothingBehind: a job killed after Setup never reaches
// Check, a job whose outputs fail Check does not hand its machine back, and
// the engine keeps its prepared Instance for its whole life — so nothing of
// the run may be reachable from the Instance or the machine free list. Fifty
// budget-killed jobs and ten that fail their check on one engine: every one of
// their machines (memory image and all) must be collectable while the engine,
// and the instance in its cache, are alive.
func TestFailedJobsLeaveNothingBehind(t *testing.T) {
	var machines, freed atomic.Int32
	var (
		mu   sync.Mutex
		seen []weak.Pointer[core.Machine] // weak: the test must not keep one alive
	)
	reused := func(m *core.Machine) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range seen {
			if p.Value() == m {
				return true
			}
		}
		seen = append(seen, weak.Make(m))
		return false
	}
	eng := &Engine{Workers: 2, cache: NewInstanceCacheFunc(func(workload string, scale int) (*workloads.Instance, error) {
		inst, err := workloads.Prepare(workload, scale)
		if err != nil {
			return nil, err
		}
		setup := inst.Setup
		inst.Setup = func(m *core.Machine) error {
			if reused(m) {
				t.Error("a failed job's machine was handed to the next job")
				return setup(m)
			}
			machines.Add(1)
			runtime.SetFinalizer(m, func(*core.Machine) { freed.Add(1) })
			return setup(m)
		}
		inst.Check = func(*core.Machine) error { return errors.New("outputs do not check") }
		return inst, nil
	})}
	jobs := make([]Job, 60)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprintf("killed-%d", i), Workload: "ArrayBW", Scale: 1,
			Abs: core.Abstraction(i % 2), Config: core.DefaultConfig(),
			Opts: core.RunOptions{MaxCycles: 2000, CheckEvery: 16}}
		if i >= 50 {
			jobs[i].Label, jobs[i].Opts = fmt.Sprintf("unchecked-%d", i), core.RunOptions{}
		}
	}
	results, _, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i < 50 && !errors.Is(r.Err, ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", r.Job, r.Err)
		}
		if i >= 50 && (r.Err == nil || !strings.Contains(r.Err.Error(), "output check")) {
			t.Fatalf("%s: err = %v, want an output check failure", r.Job, r.Err)
		}
	}
	results = nil
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < machines.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got, want := freed.Load(), machines.Load(); want != 60 || got != want {
		t.Fatalf("%d of %d machines of failed jobs were collected (60 jobs)", got, want)
	}
	if eng.instances().Len() != 1 {
		t.Fatalf("engine holds %d prepared instances, want the one it reused", eng.instances().Len())
	}
}

// TestTimeoutKillsSimulationMidRun sets a timeout that has already expired
// when the first watchdog check fires: the real simulation must die with a
// timeout-classified error instead of running to completion.
func TestTimeoutKillsSimulationMidRun(t *testing.T) {
	jobs := tinyJobs(t, 1)[:1]
	jobs[0].Timeout = time.Nanosecond
	jobs[0].Opts.CheckEvery = 16
	results, _, err := New(1).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("1ns-timeout job completed")
	}
	if got := Classify(results[0].Err); got != ClassTimeout {
		t.Fatalf("timeout classified as %s: %v", got, results[0].Err)
	}
}

// TestTimeoutKillsHangingJob uses the hang fault — a livelock stand-in that
// only cancellation can stop — under a short per-job timeout.
func TestTimeoutKillsHangingJob(t *testing.T) {
	jobs := tinyJobs(t, 1)
	jobs[0].Timeout = 20 * time.Millisecond
	eng := New(2)
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{Hang: true})

	start := time.Now()
	results, _, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hang job held the sweep for %v", elapsed)
	}
	if got := Classify(results[0].Err); got != ClassTimeout {
		t.Fatalf("hung job classified as %s: %v", got, results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("sibling job failed: %v", results[1].Err)
	}
}

// TestCancelReleasesHangingJobMidFlight is the mid-job cancellation proof:
// a hanging job (livelock stand-in, no timeout of its own) is released when
// the Run context ends — cancellation does not only shed unstarted jobs.
func TestCancelReleasesHangingJobMidFlight(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(2)
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{Hang: true})
	eng.Faults.Set(jobs[1].String(), Fault{Delay: 5 * time.Millisecond, Err: errors.New("fatal config")})
	eng.OnProgress = func(p Progress) {
		if p.Job == jobs[1] {
			cancel()
		}
	}

	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		results, _, err = eng.RunContext(ctx, jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("canceling the context did not release the hanging job")
	}
	if err != nil {
		t.Fatalf("RunContext returned %v; per-job errors belong in the results", err)
	}
	if got := Classify(results[0].Err); got != ClassCanceled {
		t.Fatalf("hung job classified as %s: %v", got, results[0].Err)
	}
	for _, r := range results[2:] {
		if r.Err == nil {
			continue // may have raced to completion before the cancel
		}
		if !errors.Is(r.Err, ErrCanceled) && Classify(r.Err) != ClassCanceled {
			t.Fatalf("tail job %s: %v", r.Job, r.Err)
		}
	}
}

// TestRunContextPreCanceled proves an already-ended context sheds every
// job as canceled, without executing simulations.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := tinyJobs(t, 2)
	results, m, err := New(4).RunContext(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != len(jobs) {
		t.Fatalf("%d of %d jobs canceled", m.Failed, len(jobs))
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Fatalf("job %s: %v, want ErrCanceled", r.Job, r.Err)
		}
	}
}

// TestFaultedSweepPreservesCleanResults is the headline acceptance
// criterion: a collect-all sweep containing an injected panicking job and
// an injected runaway (budget-killed) job completes, reports those two
// with their classes, and leaves every other result byte-identical (by
// stats.Run.Fingerprint) to a fault-free run of the same points.
func TestFaultedSweepPreservesCleanResults(t *testing.T) {
	base := tinyJobs(t, 2) // 4 jobs
	runaway := Job{Label: "runaway", Workload: "ArrayBW", Scale: 1, Abs: core.AbsGCN3,
		Config: core.DefaultConfig(), Opts: core.RunOptions{MaxCycles: 100, CheckEvery: 16}}

	clean, _, err := New(4).Run(base)
	if err != nil {
		t.Fatal(err)
	}

	jobs := append(append([]Job{}, base...), runaway)
	eng := New(4)
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[1].String(), Fault{Panic: "injected panic"})
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("Run returned error: %v", err)
	}
	if m.Failed != 2 {
		t.Fatalf("metrics count %d failed, want 2", m.Failed)
	}
	if got := Classify(results[1].Err); got != ClassPanic {
		t.Fatalf("panicking job classified as %s", got)
	}
	if got := Classify(results[4].Err); got != ClassBudget {
		t.Fatalf("runaway job classified as %s: %v", got, results[4].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Fatalf("clean job %s failed: %v", results[i].Job, results[i].Err)
		}
		if !bytes.Equal(results[i].Run.Fingerprint(), clean[i].Run.Fingerprint()) {
			t.Errorf("job %s: faulted sweep perturbed a clean result", results[i].Job)
		}
	}
}

// TestClassify pins the taxonomy.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOK},
		{errors.New("boom"), ClassPermanent},
		{ErrCanceled, ClassCanceled},
		{context.Canceled, ClassCanceled},
		{fmt.Errorf("run canceled: %w", context.DeadlineExceeded), ClassTimeout},
		{fmt.Errorf("job: %w", ErrBudgetExceeded), ClassBudget},
		{&PanicError{Job: "x", Value: "v"}, ClassPanic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestJobFingerprint distinguishes every result-relevant field and is
// stable for equal jobs.
func TestJobFingerprint(t *testing.T) {
	base := Job{Label: "p", Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL,
		Config: core.DefaultConfig()}
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	vary := []Job{base, base, base, base, base, base}
	vary[1].Scale = 2
	vary[2].Abs = core.AbsGCN3
	vary[3].Config.VRFBanks++
	vary[4].Opts.MaxCycles = 7
	vary[5].Label = "q"
	seen := map[string]int{}
	for i, j := range vary {
		fp := j.Fingerprint()
		if prev, dup := seen[fp]; dup && prev != i && i != 0 {
			t.Fatalf("jobs %d and %d collide on %s", prev, i, fp)
		}
		seen[fp] = i
	}
	if len(seen) != 6 {
		t.Fatalf("%d distinct fingerprints for 6 distinct jobs", len(seen))
	}
}

// pinnedJobFP is the fingerprint of TestJobFingerprintPinned's job.
const pinnedJobFP = "fc0245221163b27658bce849"

// TestJobFingerprintPinned pins the journal identity of one literal job. A
// job is the model version plus its non-zero fields by name, so the literal
// moves only when core.ModelVersion is bumped, when a field this job sets is
// renamed or changes meaning, or when the encoding itself changes; each of
// those makes every -resume journal re-run instead of resuming, which is
// what the change does. A field added at its zero value, or deleted while
// no job sets it, moves nothing.
func TestJobFingerprintPinned(t *testing.T) {
	job := Job{Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL,
		Config: core.DefaultConfig(), Opts: core.RunOptions{MaxCycles: 7}}
	if fp := job.Fingerprint(); fp != pinnedJobFP {
		t.Fatalf("fingerprint %s, want %s: existing journals no longer resume. Identity:\n%s",
			fp, pinnedJobFP, job.appendIdentity(nil, core.ModelVersion))
	}
	if fp := job.fingerprint(core.ModelVersion + 1); fp == pinnedJobFP {
		t.Error("the same job under the next model version keeps its fingerprint")
	}
	unbounded := job
	unbounded.Opts.MaxCycles = 0
	if fp := unbounded.Fingerprint(); fp == pinnedJobFP {
		t.Error("MaxCycles: 7 does not move the fingerprint")
	}

	// A struct with core.Config's fields plus one more encodes exactly as
	// core.Config does while the extra field is zero, and differently once
	// it is set.
	cfg := reflect.ValueOf(job.Config)
	fields := reflect.VisibleFields(cfg.Type())
	wider := reflect.StructOf(append(fields, reflect.StructField{Name: "NewKnob", Type: reflect.TypeFor[int]()}))
	v := reflect.New(wider).Elem()
	for i := range fields {
		v.Field(i).Set(cfg.Field(i))
	}
	want := appendFields(nil, configFields, cfg)
	widerFields := identityFields("Config", wider)
	if got := appendFields(nil, widerFields, v); !bytes.Equal(got, want) {
		t.Errorf("a zero-valued new Config field changes the encoding:\n%s\nwant\n%s", got, want)
	}
	v.FieldByName("NewKnob").SetInt(3)
	if got := appendFields(nil, widerFields, v); bytes.Equal(got, want) {
		t.Error("a non-zero new Config field leaves the encoding unchanged")
	}
}

// TestLeasedJobWireFormDecodes: a coordinator built before Job.SkipCheck,
// RunOptions.MaxInsts and timing.Config existed leases TestJobFingerprintPinned's
// job as this JSON. It must still decode here into that job, and a worker
// recomputes the fingerprint the coordinator sent with the lease.
func TestLeasedJobWireFormDecodes(t *testing.T) {
	const lease = `{"Label":"","Workload":"ArrayBW","Scale":1,"Abs":0,` +
		`"Config":{"NumCUs":8,"SIMDsPerCU":4,"WFSlots":40,"VRFBanks":16,"IBEntries":8,"FetchWidth":1,` +
		`"L1DSize":16384,"L1DWays":0,"L1ISize":16384,"L1IWays":8,"ScalarL1Size":32768,"ScalarL1Ways":8,` +
		`"L2Size":524288,"L2Ways":16,"L2Banks":8,"DRAMChannels":32,"DRAMLatency":160,"DRAMOccupancy":4,` +
		`"L1HitLatency":16,"L2HitLatency":64,"ScalarHitLatency":16,"LDSLatency":8,"GPUClockMHz":800},` +
		`"Opts":{"TrackValues":false,"ValueSampleEvery":0,"TrackReuse":false,"CUParallelism":0,` +
		`"MemParallelism":0,"MaxCycles":7,"MaxInsts":0,"CheckEvery":0,"DisableCycleSkipping":false},` +
		`"SkipCheck":false,"Timeout":0}`
	var job Job
	if err := json.NewDecoder(strings.NewReader(lease)).Decode(&job); err != nil {
		t.Fatalf("the leased job does not decode: %v", err)
	}
	want := Job{Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL,
		Config: core.DefaultConfig(), Opts: core.RunOptions{MaxCycles: 7}}
	if !reflect.DeepEqual(job, want) {
		t.Fatalf("the leased job decodes as %+v, want %+v", job, want)
	}
	if fp := job.Fingerprint(); fp != pinnedJobFP {
		t.Fatalf("the leased job fingerprints as %s here, %s on the coordinator", fp, pinnedJobFP)
	}
}

// TestWriteFailureSummary checks the stderr failure report the CLIs share.
func TestWriteFailureSummary(t *testing.T) {
	results := []Result{
		{Job: Job{Workload: "A", Abs: core.AbsHSAIL, Scale: 1}},
		{Job: Job{Workload: "B", Abs: core.AbsGCN3, Scale: 1},
			Err: fmt.Errorf("died: %w", ErrBudgetExceeded)},
	}
	var buf bytes.Buffer
	if n := WriteFailureSummary(&buf, results); n != 1 {
		t.Fatalf("summary counted %d failures, want 1", n)
	}
	text := buf.String()
	if !strings.Contains(text, "FAILED") || !strings.Contains(text, "budget-exceeded") ||
		!strings.Contains(text, "B/GCN3@1") {
		t.Fatalf("summary missing fields:\n%s", text)
	}
	buf.Reset()
	if n := WriteFailureSummary(&buf, results[:1]); n != 0 || buf.Len() != 0 {
		t.Fatal("clean results produced a summary")
	}
}
