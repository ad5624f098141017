package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
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
// its checked run (nil and the error when the run fails).
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
		t.Fatalf("%s: %v", job, err)
	}
	return run, nil
}

// goldens reads the suite's committed fingerprint hashes from where they
// live, internal/report's golden test, so there stays one copy of them.
func goldens(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile("../report/golden_test.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range regexp.MustCompile(`"(\w+/(?:HSAIL|GCN3))":\s+"([0-9a-f]{64})"`).FindAllSubmatch(src, -1) {
		out[string(m[1])] = string(m[2])
	}
	if len(out) != 20 {
		t.Fatalf("read %d golden fingerprints from internal/report, want 20", len(out))
	}
	return out
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
	golden := goldens(t)
	insts := instances{}
	// The suite jobs with a golden: the report's Fig 3 and ablation extras
	// have none.
	jobs := slices.DeleteFunc(report.SuiteJobs(core.DefaultConfig(), 1, false), func(j exp.Job) bool {
		return golden[j.Workload+"/"+j.Abs.String()] == ""
	})
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
		sum := sha256.Sum256(fresh[i])
		if got, want := hex.EncodeToString(sum[:]), golden[job.Workload+"/"+job.Abs.String()]; got != want {
			t.Fatalf("%s on a new device: fingerprint %s, golden %s", job, got, want)
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

// TestFailedRunIsNotReused: a run killed mid-kernel by its cycle budget does
// not hand its device on — the free list is empty afterwards — and the next
// clean job is what it is on a new device.
func TestFailedRunIsNotReused(t *testing.T) {
	emptyDevices()
	insts := instances{}
	clean := exp.Job{Workload: "SpMV", Scale: 1, Abs: core.AbsGCN3, Config: core.DefaultConfig()}
	want, err := insts.runJob(t, clean)
	if err != nil {
		t.Fatal(err)
	}
	if core.TakeDevice() == nil {
		t.Fatal("a clean run left no device on the free list")
	}
	// The watchdog first polls past the 1,500-cycle launch overhead, with
	// every CU mid-flight.
	killed := exp.Job{Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL, Config: core.DefaultConfig(),
		Opts: core.RunOptions{MaxCycles: 2000, CheckEvery: 16}}
	for round := 0; round < 2; round++ { // from an empty list, then from a used device
		if _, err := insts.runJob(t, killed); err == nil {
			t.Fatal("the budget did not kill the run")
		}
		if core.TakeDevice() != nil {
			t.Fatal("a failed run put its device back")
		}
		got, err := insts.runJob(t, clean)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Fingerprint(), want.Fingerprint()) {
			t.Fatalf("clean run after a killed one differs:\n%s-- want --\n%s", got.Fingerprint(), want.Fingerprint())
		}
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

// TestJobAllocBudget: on a warm process — workload prepared, a device on the
// free list — one more ArrayBW@1 job allocates under half a megabyte: its
// memory image, its waves, its statistics. It was over a megabyte when every
// job built and dropped the cache hierarchy.
func TestJobAllocBudget(t *testing.T) {
	emptyDevices()
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
	if got := after.TotalAlloc - before.TotalAlloc; got >= 512<<10 {
		t.Fatalf("second ArrayBW@1 job allocated %d KB, budget 512 KB", got>>10)
	} else {
		t.Logf("second ArrayBW@1 job allocated %d KB", got>>10)
	}
}

// BenchmarkNewVsReset times what a run pays for its device: building the
// Table 4 hierarchy, or re-arming one that a run has used.
func BenchmarkNewVsReset(b *testing.B) {
	p := timing.DefaultParams()
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
