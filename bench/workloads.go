package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
	"ilsim/internal/report"
	"ilsim/internal/workloads"
)

// sizes fixes how much work each workload and ladder rung does. The timed
// loop's length comes from -seconds; everything else is a count here, so the
// simulated statistics repeat exactly.
type sizes struct {
	mdScale, spmvScale int // md_serial, spmv_serial
	mixMD, mixSpMV     int // mix_par
	suiteScale         int // suite_j
	distPoints         int // dist_loopback config points (x2 abstractions)
	setups             int // how often a run sets up, for the setup_s median
	minIters           int // timed iterations, whatever -seconds says

	ladMD, ladSpMV int // scales of the emu/timing/sim rungs
	ladSuite       int // scale of the ladder's suite run
	ladPoints      int // config points of the exp and dist rungs
	streamLen      int // accesses per generated stream
	launches       int // dispatches in timing.dispatch_us
	reps           int // repetitions of each simulation rung (median)
}

var (
	// fullSizes: an iteration of every workload is 1-3 s on the 2-core
	// seed host, so a 12 s loop holds at least five of them.
	fullSizes = sizes{
		mdScale: 6, spmvScale: 16, mixMD: 3, mixSpMV: 6, suiteScale: 2, distPoints: 200,
		setups: 3, minIters: 3,
		ladMD: 2, ladSpMV: 2, ladSuite: 1, ladPoints: 25, streamLen: 1 << 16, launches: 2000, reps: 3,
	}
	// quickSizes is the smoke-test size: every code path, no useful timing.
	quickSizes = sizes{
		mdScale: 1, spmvScale: 1, mixMD: 1, mixSpMV: 1, suiteScale: 1, distPoints: 6,
		setups: 1, minIters: 1,
		ladMD: 1, ladSpMV: 1, ladSuite: 1, ladPoints: 4, streamLen: 1 << 10, launches: 50, reps: 1,
	}
)

// env is what a workload or rung needs from the run it is part of.
type env struct {
	seed     int64
	sz       sizes
	nproc, P int
	tr       *tracer // nil when end-to-end numbers are being measured
	tmp      string  // scratch directory inside the working directory

	// ops counts every simulation job executed and checked, set-up and
	// warm-up included; failed counts the ones that did not come back
	// correct.
	ops, failed int
}

func (e *env) fail(job fmt.Stringer, err error) {
	e.failed++
	fmt.Fprintf(os.Stderr, "bench: op failed: %s: %v\n", job, err)
}

// instance is a set-up workload: iterate runs one closed-loop iteration and
// returns the simulated instructions of the ops that came back correct.
type instance struct {
	iterate func() uint64
	// sha hashes every job's reference fingerprint in job order: two commits
	// simulate the same thing exactly when their stats_sha agree.
	sha string
	// warmup is how long the warm-up iteration took.
	warmup time.Duration
}

type workloadDef struct {
	name, why string
	setup     func(e *env) (*instance, error)
}

var workloadDefs = []workloadDef{
	{"md_serial", "compute-bound f64 divide/rsqrt at full SIMD utilisation: emu and the issue loop dominate, mem barely shows",
		func(e *env) (*instance, error) {
			return setupDirect(e, []simSpec{{"MD", e.sz.mdScale}}, 1)
		}},
	{"spmv_serial", "divergent gathers: the mem drain is half of host time and siminsts/s is the suite's lowest",
		func(e *env) (*instance, error) {
			return setupDirect(e, []simSpec{{"SpMV", e.sz.spmvScale}}, 1)
		}},
	{"mix_par", "MD then SpMV with cu-par = mem-par = P: the pooled two-phase tick and bank waves that serial runs bypass",
		func(e *env) (*instance, error) {
			return setupDirect(e, []simSpec{{"MD", e.sz.mixMD}, {"SpMV", e.sz.mixSpMV}}, e.P)
		}},
	{"suite_j", "the paper's 20-run suite on exp.New(nproc) plus the markdown report: what regenerating the figures costs",
		setupSuite},
	{"dist_loopback", "a loopback campaign of the cheapest jobs: the dist control plane is about half the wall, the simulator little",
		setupDist},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func shaOf(refs [][]byte) string {
	h := sha256.New()
	for _, r := range refs {
		h.Write(r)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// simSpec names one Table 5 workload at one scale.
type simSpec struct {
	wl    string
	scale int
}

type simJob struct {
	simSpec
	abs  core.Abstraction
	inst *workloads.Instance
}

func (j simJob) String() string { return fmt.Sprintf("%s/%s@%d", j.wl, j.abs, j.scale) }

// setupDirect prepares workloads that call Simulator.Run themselves: each
// spec under HSAIL then GCN3 on the Table 4 machine with cu-par = mem-par =
// par. A serial pass records the reference fingerprints; when par > 1 a
// parallel warm-up pass follows and must reproduce them.
func setupDirect(e *env, specs []simSpec, par int) (*instance, error) {
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var jobs []simJob
	for _, s := range specs {
		w, err := workloads.ByName(s.wl)
		if err != nil {
			return nil, err
		}
		end := e.tr.begin(spanPrepare)
		inst, err := w.Prepare(s.scale)
		end()
		if err != nil {
			return nil, err
		}
		for _, abs := range bothAbs {
			jobs = append(jobs, simJob{s, abs, inst})
		}
	}
	refs := make([][]byte, len(jobs))
	pass := func(par int) (insts uint64) {
		opts := core.RunOptions{CUParallelism: par, MemParallelism: par}
		for i, j := range jobs {
			insts += e.runDirect(sim, j, opts, &refs[i])
		}
		return insts
	}
	t0 := time.Now()
	pass(1)
	if par > 1 {
		t0 = time.Now()
		pass(par)
	}
	return &instance{
		iterate: func() uint64 { return pass(par) },
		sha:     shaOf(refs), warmup: time.Since(t0),
	}, nil
}

// runDirect is one op: simulate, check the outputs, and compare the
// statistics fingerprint with the job's reference (recording it when this
// is the job's first run).
func (e *env) runDirect(sim *core.Simulator, j simJob, opts core.RunOptions, ref *[]byte) uint64 {
	e.ops++
	setup := func(m *core.Machine) error {
		defer e.tr.begin(spanCoreSetup)()
		return j.inst.Setup(m)
	}
	end := e.tr.begin(spanCoreRun)
	run, m, err := sim.Run(j.abs, j.wl, setup, opts)
	end()
	if err != nil {
		e.fail(j, err)
		return 0
	}
	end = e.tr.begin(spanCheck)
	err = j.inst.Check(m)
	end()
	if err != nil {
		e.fail(j, err)
		return 0
	}
	end = e.tr.begin(spanFingerprint)
	fp := run.Fingerprint()
	end()
	if *ref == nil {
		*ref = fp
	} else if !bytes.Equal(*ref, fp) {
		e.fail(j, errors.New("statistics fingerprint differs from the job's reference"))
		return 0
	}
	return run.TotalInsts()
}

// setupSuite is the paper's 20-run suite with value and reuse tracking on.
// Every iteration takes a fresh engine, so workload preparation — all 27
// LULESH kernels finalized — is on the path, as it is for a user.
func setupSuite(e *env) (*instance, error) {
	cfg := core.DefaultConfig()
	jobs := report.SuiteJobs(cfg, e.sz.suiteScale, false)
	refs := make([][]byte, len(jobs))
	iterate := func() uint64 {
		_, insts := e.runSuite(cfg, jobs, e.sz.suiteScale, refs)
		return insts
	}
	t0 := time.Now()
	iterate()
	return &instance{iterate: iterate, sha: shaOf(refs), warmup: time.Since(t0)}, nil
}

// suiteOutcome is what the ladder reads off one suite run.
type suiteOutcome struct {
	results *report.Results
	metrics exp.Metrics
	// assemble is the time Assemble and Markdown took.
	assemble time.Duration
}

func (e *env) runSuite(cfg core.Config, jobs []exp.Job, scale int, refs [][]byte) (suiteOutcome, uint64) {
	eng := exp.New(e.nproc)
	if e.tr != nil {
		eng.OnProgress = func(p exp.Progress) {
			now := time.Now()
			e.tr.add(spanExpJob, now.Add(-p.Wall), now)
		}
	}
	end := e.tr.begin(spanEngineRun)
	results, m, err := eng.Run(jobs)
	end()
	if err != nil {
		// CollectAll never returns one; treat it as every op failing.
		for _, j := range jobs {
			e.ops++
			e.fail(j, err)
		}
		return suiteOutcome{}, 0
	}
	var insts uint64
	for i, r := range results {
		e.ops++
		if r.Err != nil {
			e.fail(r.Job, r.Err)
			continue
		}
		end := e.tr.begin(spanFingerprint)
		fp := r.Run.Fingerprint()
		end()
		if refs[i] == nil {
			refs[i] = fp
		} else if !bytes.Equal(refs[i], fp) {
			e.fail(r.Job, errors.New("statistics fingerprint differs between two iterations"))
			continue
		}
		insts += r.Run.TotalInsts()
	}
	t0 := time.Now()
	end = e.tr.begin(spanAssemble)
	res, err := report.Assemble(results, scale, false)
	end()
	if err != nil {
		// Some job failed; it is already counted above.
		return suiteOutcome{metrics: m}, insts
	}
	end = e.tr.begin(spanMarkdown)
	md := res.Markdown(cfg)
	end()
	if md == "" {
		e.fail(jobs[0], errors.New("empty report"))
	}
	return suiteOutcome{results: res, metrics: m, assemble: time.Since(t0)}, insts
}

// setupDist builds the seeded job set, computes each job's reference result
// hash on a local engine, and runs one warm-up campaign.
func setupDist(e *env) (*instance, error) {
	jobs, err := sweepJobs(e.seed, e.sz.distPoints)
	if err != nil {
		return nil, err
	}
	refs, _, err := e.localRefs(jobs)
	if err != nil {
		return nil, err
	}
	iterate := func() uint64 {
		c, err := e.runCampaign(jobs, refs, dist.Options{}, false)
		if err != nil {
			// The campaign itself broke: no op of it counts as done.
			for _, j := range jobs {
				e.ops++
				e.fail(j, err)
			}
			return 0
		}
		return c.insts
	}
	t0 := time.Now()
	iterate()
	// Hashed in sorted order: the seed shuffles the jobs, and a full grid is
	// the same set of simulations under every seed.
	ordered := slices.Clone(refs)
	slices.Sort(ordered)
	h := make([][]byte, len(ordered))
	for i, r := range ordered {
		h[i] = []byte(r)
	}
	return &instance{iterate: iterate, sha: shaOf(h), warmup: time.Since(t0)}, nil
}

// distWorkers is the loopback fleet: two in-process workers of one slot.
const distWorkers = 2

// localRefs runs jobs on a local engine as wide as the loopback fleet and
// returns each job's exp.RunSHA — what a distributed result must hash to —
// and the engine's wall.
func (e *env) localRefs(jobs []exp.Job) ([]string, time.Duration, error) {
	t0 := time.Now()
	results, _, err := exp.New(distWorkers).Run(jobs)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	refs := make([]string, len(jobs))
	for i, r := range results {
		e.ops++
		if r.Err != nil {
			e.fail(r.Job, r.Err)
			continue
		}
		refs[i] = exp.RunSHA(r.Run)
	}
	return refs, wall, nil
}

type campaign struct {
	// wall is Coordinator.Run entry to return; first is entry to the first
	// completed job.
	wall, first time.Duration
	insts       uint64
	// statusRTT are the round trips of the status poller, in seconds.
	statusRTT []float64
}

// runCampaign is one distributed campaign on loopback: a coordinator, two
// workers with a serial engine each, every result checked against refs.
// With poll set a client fetches /status at 20 Hz meanwhile.
func (e *env) runCampaign(jobs []exp.Job, refs []string, opts dist.Options, poll bool) (campaign, error) {
	var out campaign
	var firstAt time.Time
	opts.Addr = "127.0.0.1:0"
	opts.OnProgress = func(p exp.Progress) {
		now := time.Now()
		if firstAt.IsZero() {
			firstAt = now
		}
		e.tr.add(spanDistJob, now.Add(-p.Wall), now)
	}
	c := dist.NewCoordinator(opts)
	if err := c.Start(); err != nil {
		return out, err
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		results []exp.Result
		err     error
	}
	done := make(chan outcome, 1)
	end := e.tr.begin(spanCoordinator)
	t0 := time.Now()
	go func() {
		r, _, err := c.RunContext(ctx, jobs)
		done <- outcome{r, err}
	}()
	// Workers that join before the campaign is installed back off for
	// 250 ms; wait for it so every campaign starts the same way.
	for {
		_, err := dist.FetchStatus(ctx, c.Addr(), dist.ClientOptions{})
		if err == nil {
			break
		}
		if kind, _ := dist.StatusKindOf(err); kind != dist.StatusNotReady {
			end()
			return out, err
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, distWorkers)
	for i := range workerErrs {
		w := &dist.Worker{Coordinator: c.Addr(), Name: fmt.Sprintf("bench-w%d", i), Slots: 1, Engine: exp.New(1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = w.Run(ctx)
		}()
	}
	if poll {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					t := time.Now()
					if _, err := dist.FetchStatus(ctx, c.Addr(), dist.ClientOptions{}); err == nil {
						out.statusRTT = append(out.statusRTT, time.Since(t).Seconds())
					}
				}
			}
		}()
	}
	o := <-done
	out.wall = time.Since(t0)
	end()
	cancel()
	wg.Wait()
	if o.err != nil {
		return out, o.err
	}
	if err := errors.Join(workerErrs...); err != nil && !errors.Is(err, context.Canceled) {
		return out, err
	}
	out.first = firstAt.Sub(t0)
	for i, r := range o.results {
		e.ops++
		switch {
		case r.Err != nil:
			e.fail(r.Job, r.Err)
		case exp.RunSHA(r.Run) != refs[i]:
			e.fail(r.Job, errors.New("distributed result hashes differently from the local reference"))
		default:
			out.insts += r.Run.TotalInsts()
		}
	}
	return out, nil
}
