package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/mem"
	"ilsim/internal/report"
	"ilsim/internal/stats"
	"ilsim/internal/timing"
	"ilsim/internal/workloads"
)

// emptyDevices empties the device free list, so the next run builds its
// device and a test knows every device that is on the list afterwards. The
// tests here are not parallel: nothing else runs while one of them does.
func emptyDevices() {
	for core.TakeDevice() != nil {
	}
}

// emptyMachines is emptyDevices for the machine free list.
func emptyMachines() {
	for core.TakeMachine() != nil {
	}
}

// instances prepares each workload once per test.
type instances map[string]*workloads.Instance

func (c instances) get(t *testing.T, name string, scale int) *workloads.Instance {
	t.Helper()
	if inst, ok := c[name]; ok {
		return inst
	}
	inst, err := workloads.Prepare(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	c[name] = inst
	return inst
}

// runJob runs one engine job the way the engine does, serially, and returns
// its checked run (nil and the error when the run or the check fails). Like
// exp's runJob it hands the machine back only once the outputs check.
func (c instances) runJob(t *testing.T, job exp.Job) (*stats.Run, error) {
	t.Helper()
	sim, err := core.NewSimulator(job.Config)
	if err != nil {
		t.Fatal(err)
	}
	inst := c.get(t, job.Workload, job.Scale)
	run, m, err := sim.Run(job.Abs, job.Workload, inst.Setup, job.Opts)
	if err != nil {
		return nil, err
	}
	if err := inst.Check(m); err != nil {
		return nil, fmt.Errorf("%s: output check: %w", job, err)
	}
	m.Recycle()
	return run, nil
}

// goldenFingerprints reads the Fingerprint column of the suite's golden
// table where it lives, internal/report's testdata, so there stays one copy
// of it: per run ("MD/GCN3"), the first 12 hex digits of the sha256 of its
// stats.Run.Fingerprint. internal/report's TestGoldenFingerprints names the
// fields behind a mismatch.
func goldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile("../report/testdata/goldens.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, header := map[string]string{}, true
	for _, line := range strings.Split(string(src), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case len(f) < 2 || header && f[1] != "Fingerprint":
			t.Fatalf("golden table line %q: want a run and its Fingerprint first", line)
		case header:
			header = false
		default:
			out[f[0]] = f[1]
		}
	}
	if len(out) != 20 {
		t.Fatalf("read %d golden rows from internal/report, want 20", len(out))
	}
	return out
}

// fingerprintHash is a run's Fingerprint column.
func fingerprintHash(run *stats.Run) string {
	s := sha256.Sum256(run.Fingerprint())
	return hex.EncodeToString(s[:6])
}

// otherConfigs are the configurations a device was "just used under": points
// of the sweeps that must not defeat reuse (VRF banks, wavefront slots,
// instruction buffer) and, every fourth, one that changes a cache's size and
// must.
func otherConfigs(t *testing.T) (cfgs []core.Config, sameStorage []bool) {
	t.Helper()
	for _, param := range []string{"banks", "waves", "ib", "l1i"} {
		pts, err := exp.SweepPoints(param)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if p.Config != core.DefaultConfig() {
				cfgs = append(cfgs, p.Config)
				sameStorage = append(sameStorage, param != "l1i")
			}
		}
	}
	// Interleave, so a prefix of any length mixes all four sweeps.
	rand.New(rand.NewSource(4)).Shuffle(len(cfgs), func(i, j int) {
		cfgs[i], cfgs[j] = cfgs[j], cfgs[i]
		sameStorage[i], sameStorage[j] = sameStorage[j], sameStorage[i]
	})
	return cfgs, sameStorage
}

// TestResetMatchesFresh: the 20 suite jobs, in a shuffled order, each on a
// device that a different job under a different configuration has just used,
// produce the fingerprint a newly built device produces — which is the
// committed golden. Serially the test knows which device each run took: the
// same one when the configurations differ in nothing that sizes storage,
// another when a cache size differs. Then the same mix goes through a
// four-worker engine, where the workers trade devices (run under the race
// detector by `make race`).
func TestResetMatchesFresh(t *testing.T) {
	golden := goldenFingerprints(t)
	insts := instances{}
	// The suite jobs with a golden: the report's Fig 3 and ablation extras
	// have none.
	jobs := slices.DeleteFunc(report.SuiteJobs(core.DefaultConfig(), 1, false), func(j exp.Job) bool {
		return golden[j.Workload+"/"+j.Abs.String()] == ""
	})
	if len(jobs) != len(golden) {
		t.Fatalf("%d suite jobs have a golden row, the table holds %d rows", len(jobs), len(golden))
	}
	rand.New(rand.NewSource(22)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	cfgs, sameStorage := otherConfigs(t)
	// before[i] is what runs just before jobs[i]: another suite job under
	// another configuration.
	before := make([]exp.Job, len(jobs))
	for i := range jobs {
		before[i] = jobs[(i+7)%len(jobs)]
		before[i].Config = cfgs[i%len(cfgs)]
	}
	fresh := make([][]byte, len(jobs))

	emptyDevices()
	hits, misses := 0, 0
	for i, job := range jobs {
		// Free list empty: this run builds its device.
		run, err := insts.runJob(t, job)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = run.Fingerprint()
		if got, want := fingerprintHash(run), golden[job.Workload+"/"+job.Abs.String()]; got != want {
			t.Fatalf("%s on a new device: Fingerprint %s → %s (go test ./internal/report names the fields)", job, want, got)
		}
		core.TakeDevice()

		if _, err := insts.runJob(t, before[i]); err != nil {
			t.Fatal(err)
		}
		used := core.TakeDevice()
		if used == nil {
			t.Fatalf("%s left no device on the free list", before[i])
		}
		core.OfferDevice(used)
		// A budget is the run's, not the device's: one cycle above what the
		// run takes passes however long the device has been running.
		for _, k := range run.KernelCycles {
			job.Opts.MaxCycles += k
		}
		job.Opts.MaxCycles++
		run, err = insts.runJob(t, job)
		if err != nil {
			t.Fatal(err)
		}
		after := core.TakeDevice()
		switch same := sameStorage[i%len(cfgs)]; {
		case same && after != used:
			t.Fatalf("%s after %s: the device was not reused", job, before[i])
		case !same && after == used:
			t.Fatalf("%s after %s: a device with another cache geometry was reused", job, before[i])
		case same:
			hits++
		default:
			misses++
		}
		if fp := run.Fingerprint(); !bytes.Equal(fp, fresh[i]) {
			t.Fatalf("%s on the device %s just used differs from a new device:\n-- reused --\n%s-- new --\n%s",
				job, before[i], fp, fresh[i])
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d reuses and %d refusals: the mix must hold both", hits, misses)
	}

	var mix []exp.Job
	for i := range jobs {
		mix = append(mix, before[i], jobs[i])
	}
	results, _, err := exp.New(4).Run(mix)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job, r.Err)
		}
		if i%2 == 1 && !bytes.Equal(r.Run.Fingerprint(), fresh[i/2]) {
			t.Errorf("%s on a four-worker engine differs from a new device", r.Job)
		}
	}
}

// TestFailedRunIsNotReused: a run killed mid-kernel by its cycle budget hands
// on neither its device nor its machine, on the engine's path as on a direct
// call's; a run whose outputs fail their check hands on no machine; and the
// next clean job is what it is on a new device.
func TestFailedRunIsNotReused(t *testing.T) {
	emptyDevices()
	emptyMachines()
	insts := instances{}
	clean := exp.Job{Workload: "SpMV", Scale: 1, Abs: core.AbsGCN3, Config: core.DefaultConfig()}
	want, err := insts.runJob(t, clean)
	if err != nil {
		t.Fatal(err)
	}
	if core.TakeDevice() == nil || core.TakeMachine() == nil {
		t.Fatal("a clean, checked run left no device or no machine on the free lists")
	}
	// The watchdog first polls past the 1,500-cycle launch overhead, with
	// every CU mid-flight.
	killed := exp.Job{Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL, Config: core.DefaultConfig(),
		Opts: core.RunOptions{MaxCycles: 2000, CheckEvery: 16}}
	for round := 0; round < 2; round++ { // from empty lists, then from a used device and machine
		if _, err := insts.runJob(t, killed); err == nil {
			t.Fatal("the budget did not kill the run")
		}
		if core.TakeDevice() != nil || core.TakeMachine() != nil {
			t.Fatal("a failed run put its device or its machine back")
		}
		results, _, err := exp.New(1).Run([]exp.Job{killed})
		if err != nil || results[0].Err == nil {
			t.Fatalf("the budget did not kill the engine's run (%v)", err)
		}
		if core.TakeDevice() != nil || core.TakeMachine() != nil {
			t.Fatal("a failed engine job put its device or its machine back")
		}
		got, err := insts.runJob(t, clean)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Fingerprint(), want.Fingerprint()) {
			t.Fatalf("clean run after a killed one differs:\n%s-- want --\n%s", got.Fingerprint(), want.Fingerprint())
		}
	}

	// An output check that fails: the run's device goes back (the run
	// ended cleanly), its machine does not.
	emptyDevices()
	emptyMachines()
	inst := insts.get(t, clean.Workload, clean.Scale)
	wrong := instances{clean.Workload: &workloads.Instance{Setup: inst.Setup,
		Check: func(*core.Machine) error { return errors.New("outputs do not check") }}}
	if _, err := wrong.runJob(t, clean); err == nil {
		t.Fatal("the failing check passed")
	}
	if core.TakeMachine() != nil {
		t.Fatal("a run whose outputs failed their check put its machine back")
	}
}

// TestKeptDeviceHoldsNoImage: a device on the free list keeps nothing of the
// run it served — the run's memory image is collectable while the device is
// alive (it used to be reachable through the CUs' engine clones and the
// spare capacity of their wave lists; the device's pending-request table
// reaches the run's waves the same way).
func TestKeptDeviceHoldsNoImage(t *testing.T) {
	emptyDevices()
	inst := instances{}.get(t, "ArrayBW", 1)
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	setup := func(m *core.Machine) error {
		runtime.SetFinalizer(m.Ctx.Mem, func(*mem.Memory) { close(freed) })
		return inst.Setup(m)
	}
	if _, _, err := sim.Run(core.AbsHSAIL, "ArrayBW", setup, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	dev := core.TakeDevice()
	if dev == nil {
		t.Fatal("a clean run left no device on the free list")
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(dev)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(dev)
	t.Fatal("the run's memory image stayed reachable while its device was kept")
}

// TestJobAllocBudget: on a warm process — workload prepared, a device and a
// machine on the free lists — one more ArrayBW@1 job allocates under 48 KB:
// its statistics, its dispatch, its timing state. It was over a megabyte
// when every job built and dropped the cache hierarchy, and 176 KB when it
// built a machine: a memory image, wave register files and engines.
func TestJobAllocBudget(t *testing.T) {
	emptyDevices()
	emptyMachines()
	insts := instances{}
	job := exp.Job{Workload: "ArrayBW", Scale: 1, Abs: core.AbsGCN3, Config: core.DefaultConfig()}
	if _, err := insts.runJob(t, job); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := insts.runJob(t, job); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 48<<10 {
		t.Fatalf("second ArrayBW@1 job allocated %d KB, budget 48 KB", got>>10)
	} else {
		t.Logf("second ArrayBW@1 job allocated %d KB", got>>10)
	}
}

// TestRecycledMachineMatchesFresh: every registered workload at scale 1,
// under both abstractions, runs back to back on one single-worker engine —
// twice, the second pass in reverse — so each job inherits the machine the
// job before it used, across workload and abstraction switches. Each must
// produce the fingerprint it produces on a new machine and pass its output
// check, and the engine must leave exactly that one machine on the free
// list.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	var jobs []exp.Job
	for _, w := range append(append(workloads.All(), workloads.Fig3()), workloads.Ablations()...) {
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			jobs = append(jobs, exp.Job{Workload: w.Name, Scale: 1, Abs: abs, Config: core.DefaultConfig()})
		}
	}
	// Alternate the abstraction between neighbours as well as within a
	// workload's pair.
	for i := 2; i < len(jobs); i += 4 {
		jobs[i], jobs[i+1] = jobs[i+1], jobs[i]
	}
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	insts := instances{}
	fresh := map[string][]byte{}
	for _, job := range jobs {
		emptyMachines() // direct runs never hand theirs back
		inst := insts.get(t, job.Workload, job.Scale)
		run, m, err := sim.Run(job.Abs, job.Workload, inst.Setup, job.Opts)
		if err != nil {
			t.Fatalf("%s on a new machine: %v", job, err)
		}
		if err := inst.Check(m); err != nil {
			t.Fatalf("%s on a new machine: %v", job, err)
		}
		fresh[job.String()] = run.Fingerprint()
	}

	emptyMachines()
	for i := len(jobs) - 1; i >= 0; i-- {
		jobs = append(jobs, jobs[i])
	}
	results, _, err := exp.New(1).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s after %s: %v", r.Job, jobs[max(i-1, 0)], r.Err)
		}
		if fp := r.Run.Fingerprint(); !bytes.Equal(fp, fresh[r.Job.String()]) {
			t.Fatalf("%s on the machine %s used differs from a new machine:\n-- recycled --\n%s-- new --\n%s",
				r.Job, jobs[max(i-1, 0)], fp, fresh[r.Job.String()])
		}
	}
	if core.TakeMachine() == nil || core.TakeMachine() != nil {
		t.Fatal("a single-worker engine should leave exactly one machine on the free list")
	}
}

// TestRecycledMachineRelowersMovedKernel: a machine keeps the engines of the
// kernels its last run launched, lowered for where the kernel was loaded. A
// run that loads one of them elsewhere — MD's kernel loaded and launched
// first, where ArrayBW's was — runs it from its new address, under both
// abstractions: outputs check and the fingerprint is a new machine's (an
// engine left at the old address fetches MD's instruction lines).
func TestRecycledMachineRelowersMovedKernel(t *testing.T) {
	insts := instances{}
	arrayBW, md := insts.get(t, "ArrayBW", 1), insts.get(t, "MD", 1)
	moved := func(m *core.Machine) error {
		if err := md.Setup(m); err != nil {
			return err
		}
		return arrayBW.Setup(m)
	}
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
		emptyMachines()
		want, _, err := sim.Run(abs, "ArrayBW", moved, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := insts.runJob(t, exp.Job{Workload: "ArrayBW", Scale: 1, Abs: abs, Config: core.DefaultConfig()}); err != nil {
			t.Fatal(err)
		}
		got, m, err := sim.Run(abs, "ArrayBW", moved, core.RunOptions{})
		if err != nil {
			t.Fatalf("%s, kernel moved on a recycled machine: %v", abs, err)
		}
		if err := arrayBW.Check(m); err != nil {
			t.Fatalf("%s, kernel moved on a recycled machine: %v", abs, err)
		}
		if !bytes.Equal(got.Fingerprint(), want.Fingerprint()) {
			t.Fatalf("%s, kernel moved on a recycled machine:\n%s-- new machine --\n%s", abs, got.Fingerprint(), want.Fingerprint())
		}
	}
}

// BenchmarkNewVsReset times what a run pays for its device: building the
// Table 4 hierarchy, or re-arming one that a run has used.
func BenchmarkNewVsReset(b *testing.B) {
	p := timing.DefaultConfig()
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			timing.NewGPU(p, nil)
		}
	})
	b.Run("reset", func(b *testing.B) {
		g := timing.NewGPU(p, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !g.Reset(p, nil) {
				b.Fatal("Reset refused its own parameters")
			}
		}
	})
}
