// Package exp is the experiment engine: the single entry point for running
// declarative sets of (workload × scale × abstraction × config) simulation
// jobs. It executes jobs on a bounded goroutine worker pool, memoizes
// workload preparation per (workload, scale) so kernel finalization and
// input generation run once per sweep instead of once per design point, and
// returns results in deterministic job order regardless of completion
// order. Every multi-run campaign in the repository — the sweep and report
// CLIs, the figure benchmarks — submits through this engine.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/stats"
)

// Job is one experiment point: a workload executed at one input scale under
// one abstraction on one machine configuration.
type Job struct {
	// Label names the point in progress reports and result tables
	// (e.g. "banks=16"); optional.
	Label    string
	Workload string
	Scale    int
	Abs      core.Abstraction
	Config   core.Config
	Opts     core.RunOptions
	// Timeout bounds the job's wall-clock execution (0 = none). The
	// simulator observes it cooperatively (core.RunOptions.CheckEvery),
	// so an overrunning job dies mid-kernel with a timeout-classified
	// error instead of holding its worker forever.
	Timeout time.Duration
}

// String names the job for progress lines and errors.
func (j Job) String() string {
	s := fmt.Sprintf("%s/%s@%d", j.Workload, j.Abs, j.Scale)
	if j.Label != "" {
		s = j.Label + " " + s
	}
	return s
}

// Result is one job's outcome. Results returned by Run are indexed exactly
// like the submitted jobs.
type Result struct {
	Job  Job
	Run  *stats.Run
	Err  error
	Wall time.Duration
	// Resumed marks a result restored from the engine's journal instead
	// of executed.
	Resumed bool
}

// Progress is the snapshot passed to a runner's progress hook each time a
// job finishes. Hook invocations are serialized by the runner (the local
// engine and the distributed coordinator alike).
type Progress struct {
	// Done and Failed count finished and failed jobs so far; Total is the
	// size of the job set.
	Done, Failed, Total int
	// Executed counts jobs that actually ran this campaign — Done minus
	// journal-resumed results — and is the basis of the ETA.
	Executed int
	// Job and Err describe the job that just finished.
	Job Job
	Err error
	// Wall is the finished job's wall time; Elapsed is the time since the
	// Run call started.
	Wall, Elapsed time.Duration
	// ETA estimates the time to drain the remaining jobs at the campaign's
	// observed throughput (Metrics.Throughput over the executed jobs so
	// far); zero until a first executed job establishes a rate.
	ETA time.Duration
	// Worker names the remote worker that executed the job in distributed
	// campaigns; empty for local runs.
	Worker string
}

// Line renders the standard one-line progress report the CLIs print to
// stderr for every finished job.
func (p Progress) Line() string {
	status := "ok"
	if p.Err != nil {
		status = fmt.Sprintf("FAIL [%s]: %s", Classify(p.Err), p.Err)
	}
	s := fmt.Sprintf("[%d/%d] %-28s %8.2fs", p.Done, p.Total, p.Job, p.Wall.Seconds())
	if p.Worker != "" {
		s += "  " + p.Worker
	}
	s += "  " + status
	if p.ETA > 0 {
		s += fmt.Sprintf("  (eta %s)", p.ETA.Round(100*time.Millisecond))
	}
	return s
}

// ProgressETA estimates the time to finish total-done jobs given that
// executed of the done jobs ran in elapsed wall time. It derives the rate
// through Metrics.Throughput so the progress line, the coordinator's status
// feed and the end-of-run summary can never disagree about what "jobs per
// second" means.
func ProgressETA(executed, done, total int, elapsed time.Duration) time.Duration {
	tput := Metrics{Jobs: done, Resumed: done - executed, Elapsed: elapsed}.Throughput()
	if tput <= 0 || total <= done {
		return 0
	}
	return time.Duration(float64(total-done) / tput * float64(time.Second))
}

// Metrics summarizes one Run invocation.
type Metrics struct {
	Jobs   int
	Failed int
	// Resumed counts jobs restored from the journal instead of executed.
	Resumed int
	// Elapsed is the wall time of the whole Run call; JobWall is the sum
	// of per-job wall times for jobs executed this run (resumed results
	// are excluded so Speedup reflects work actually done).
	Elapsed time.Duration
	JobWall time.Duration
}

// Throughput returns jobs completed this run per second of engine wall
// time (resumed jobs did no work and are excluded).
func (m Metrics) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Jobs-m.Failed-m.Resumed) / m.Elapsed.Seconds()
}

// Speedup returns the parallel speedup over serial execution of the same
// job set (sum of job wall times over engine wall time).
func (m Metrics) Speedup() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return m.JobWall.Seconds() / m.Elapsed.Seconds()
}

// ErrCanceled marks jobs shed unstarted because the Run context ended or a
// journal write failed.
var ErrCanceled = errors.New("exp: job canceled before it started")

// Runner executes a job set and returns one Result per job in submission
// order plus aggregate metrics — the contract every campaign consumer
// (the CLIs, report.CollectParallel) programs against. *Engine is the
// in-process runner; dist.Coordinator satisfies the same interface by
// fanning the jobs out to remote workers.
type Runner interface {
	Run(jobs []Job) ([]Result, Metrics, error)
	RunContext(ctx context.Context, jobs []Job) ([]Result, Metrics, error)
}

// Engine executes job sets, each job exactly once: the simulator is
// deterministic, so a job that failed would fail the same way again. A
// failure lives in its own Result and stops no other job. The zero value is
// usable (GOMAXPROCS workers); New is a convenience for setting the pool
// size. An engine may run many job sets; its instance cache persists across
// Run calls, so sweeps over the same workload reuse prepared kernels.
type Engine struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, observes every job completion. Calls are
	// serialized; keep the hook cheap (it is on the completion path).
	OnProgress func(Progress)
	// Journal, when non-nil, records every successful result and pre-fills
	// results the journal already holds, so an interrupted campaign
	// resumes instead of restarting (see OpenJournal).
	Journal *Journal
	// Faults, when non-nil, injects scheduled failures into matching jobs
	// — test instrumentation for the fault-tolerance suite.
	Faults *FaultPlan

	cacheOnce sync.Once
	cache     *InstanceCache
}

var _ Runner = (*Engine)(nil)

// New creates an engine with the given worker-pool bound (<= 0 means
// GOMAXPROCS).
func New(workers int) *Engine {
	return &Engine{Workers: workers, cache: NewInstanceCache()}
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// instances returns the engine's instance cache, lazily initializing it so
// the zero-value Engine degrades gracefully instead of crashing in a
// worker.
func (e *Engine) instances() *InstanceCache {
	e.cacheOnce.Do(func() {
		if e.cache == nil {
			e.cache = NewInstanceCache()
		}
	})
	return e.cache
}

// Run executes the job set and returns one Result per job in submission
// order, regardless of completion order, plus aggregate metrics. Per-job
// errors live in the Results; the returned error reports only a journal
// that could not be bound or written.
func (e *Engine) Run(jobs []Job) ([]Result, Metrics, error) {
	return e.RunContext(context.Background(), jobs)
}

// RunContext is Run under a context: canceling parent stops the sweep —
// in-flight simulations die at their next watchdog check, unstarted jobs
// come back as ErrCanceled. With a Journal attached, jobs the journal
// records are restored instead of executed and every new success is
// appended to it; a failed append ends the sweep the same way.
func (e *Engine) RunContext(parent context.Context, jobs []Job) ([]Result, Metrics, error) {
	start := time.Now()
	results := make([]Result, len(jobs))
	for i := range jobs {
		results[i].Job = jobs[i]
	}
	if len(jobs) == 0 {
		return results, Metrics{}, nil
	}
	if parent == nil {
		parent = context.Background()
	}

	// Resume: restore journaled completions, schedule only the rest.
	pending := make([]int, 0, len(jobs))
	resumed := 0
	if e.Journal != nil {
		if err := e.Journal.Bind(jobs); err != nil {
			return results, Metrics{}, err
		}
		for i := range jobs {
			if r, ok := e.Journal.Completed(i); ok {
				results[i].Run, results[i].Wall, results[i].Resumed = r.Run, r.Wall, true
				resumed++
				continue
			}
			pending = append(pending, i)
		}
	} else {
		for i := range jobs {
			pending = append(pending, i)
		}
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		mu         sync.Mutex // guards counters, journalErr, hook calls
		done       = resumed
		failed     int
		journalErr error
	)
	next := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers()
	if workers > len(pending) {
		workers = len(pending)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := &results[i]
				if ctx.Err() != nil {
					r.Err = ErrCanceled
				} else {
					e.execute(ctx, jobs[i], r)
				}
				mu.Lock()
				done++
				if r.Err != nil {
					failed++
				}
				if e.Journal != nil {
					if err := e.Journal.Record(i, *r); err != nil && journalErr == nil {
						journalErr = err
						cancel()
					}
				}
				if e.OnProgress != nil {
					elapsed := time.Since(start)
					e.OnProgress(Progress{
						Done: done, Failed: failed, Total: len(jobs),
						Executed: done - resumed,
						Job:      jobs[i], Err: r.Err,
						Wall: r.Wall, Elapsed: elapsed,
						ETA: ProgressETA(done-resumed, done, len(jobs), elapsed),
					})
				}
				mu.Unlock()
			}
		}()
	}
	for _, i := range pending {
		next <- i
	}
	close(next)
	wg.Wait()

	m := Metrics{Jobs: len(jobs), Failed: failed, Resumed: resumed, Elapsed: time.Since(start)}
	for i := range results {
		if !results[i].Resumed {
			m.JobWall += results[i].Wall
		}
	}
	if journalErr != nil {
		return results, m, fmt.Errorf("exp: journal: %w", journalErr)
	}
	return results, m, nil
}

// execute runs one job under its wall-clock timeout (if any) and times it.
func (e *Engine) execute(ctx context.Context, job Job, r *Result) {
	start := time.Now()
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}
	r.Run, r.Err = e.runJob(ctx, job)
	r.Wall = time.Since(start)
}

// runJob executes one job: inject faults, prepare (via the cache),
// simulate under ctx, verify, and hand the machine back for the next job.
// A panic anywhere inside — a workload bug, a simulator bug, an injected
// fault — is recovered into a PanicError so it fails only this job, not the
// whole sweep.
func (e *Engine) runJob(ctx context.Context, job Job) (run *stats.Run, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Job: job.String(), Value: p, Stack: debug.Stack()}
		}
	}()
	if e.Faults != nil {
		if err := e.Faults.apply(ctx, job); err != nil {
			return nil, err
		}
	}
	inst, err := e.instances().Get(job.Workload, job.Scale)
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSimulator(job.Config)
	if err != nil {
		return nil, err
	}
	run, m, err := sim.RunContext(ctx, job.Abs, job.Workload, inst.Setup, job.Opts)
	if err != nil {
		return nil, err
	}
	if err := inst.Check(m); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	// Only a run that ended cleanly and checked hands its machine on.
	m.Recycle()
	return run, nil
}

// WriteFailureSummary writes one line per failed result — job, error
// class, error — and returns the number of failures. The CLIs print it to
// stderr so a campaign with failures is visibly (and, via the
// exit code, programmatically) distinguishable from a clean one.
func WriteFailureSummary(w io.Writer, results []Result) int {
	n := 0
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		n++
		fmt.Fprintf(w, "FAILED %-28s [%s] %v\n", r.Job, Classify(r.Err), r.Err)
	}
	return n
}

// PairJobs builds the standard dual-abstraction job set: for each sweep
// point, the workload under HSAIL then GCN3 (the paper's fundamental
// experiment shape). Results come back as consecutive (HSAIL, GCN3) pairs
// per point.
func PairJobs(workload string, scale int, pts []Point, opts core.RunOptions) []Job {
	jobs := make([]Job, 0, 2*len(pts))
	for _, pt := range pts {
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			jobs = append(jobs, Job{
				Label:    pt.Label,
				Workload: workload,
				Scale:    scale,
				Abs:      abs,
				Config:   pt.Config,
				Opts:     opts,
			})
		}
	}
	return jobs
}
