package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ilsim/internal/chaos"
	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

// fleetJobs concatenates the dual-abstraction job sets of several sweeps
// — wide enough campaigns that the autoscaling hint has something to
// chew on (each sweep point pairs into HSAIL + GCN3).
func fleetJobs(t *testing.T, sweeps ...string) []exp.Job {
	t.Helper()
	var pts []exp.Point
	for _, sw := range sweeps {
		p, err := exp.SweepPoints(sw)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p...)
	}
	return exp.PairJobs("ArrayBW", 1, pts, core.RunOptions{})
}

// localFingerprints runs jobs on a local parallel engine — the reference
// every fleet-driven campaign must match byte for byte.
func localFingerprints(t *testing.T, jobs []exp.Job) [][]byte {
	t.Helper()
	results, _, err := exp.New(4).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([][]byte, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("local job %s failed: %v", r.Job, r.Err)
		}
		fps[i] = r.Run.Fingerprint()
	}
	return fps
}

// checkFingerprints asserts the campaign results match the local
// reference in submission order.
func checkFingerprints(t *testing.T, results []exp.Result, want [][]byte) {
	t.Helper()
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s) failed: %v", i, r.Job, r.Err)
		}
		if !bytes.Equal(r.Run.Fingerprint(), want[i]) {
			t.Errorf("job %d (%s): fleet fingerprint differs from local", i, r.Job)
		}
	}
}

// slowEngine delays every job by d so campaigns outlive several
// supervisor reconcile ticks and the EWMA-driven scaling hint is stable.
func slowEngine(jobs []exp.Job, d time.Duration) *exp.Engine {
	eng := exp.New(0)
	eng.Faults = exp.NewFaultPlan()
	for _, job := range jobs {
		eng.Faults.Set(job.String(), exp.Fault{Delay: d})
	}
	return eng
}

// chaosClient wraps a client transport in a seeded chaos plan.
func chaosClient(t *testing.T, spec string) dist.ClientOptions {
	t.Helper()
	plan, err := chaos.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return dist.ClientOptions{Wrap: func(rt http.RoundTripper) http.RoundTripper {
		return plan.Transport(rt)
	}}
}

// logRecorder captures supervisor log lines (and forwards them to the
// test log) so assertions can check which lifecycle events fired.
type logRecorder struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
	l.t.Logf("%s", line)
}

func (l *logRecorder) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// TestSupervisorAutoscaleChaos is the subsystem's acceptance test: under
// a seeded chaos transport (dropped and delayed requests on both the
// workers' and the supervisor's clients), the supervisor grows the fleet
// to the coordinator's WantWorkers hint, shrinks it as the queue drains
// — losing zero jobs to the drains it stops its victims with — winds the
// fleet down when the campaign finishes, and the results are
// byte-identical to a local run.
func TestSupervisorAutoscaleChaos(t *testing.T) {
	jobs := fleetJobs(t, "banks", "ib", "l1i") // 30 jobs
	want := localFingerprints(t, jobs)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	c := dist.NewCoordinator(dist.Options{
		Addr:     "127.0.0.1:0",
		LongPoll: 50 * time.Millisecond,
		// A long TTL means a lease a drained worker left behind comes back
		// quickly only through the explicit POST /release path — if a
		// drain lost jobs, the campaign would stall far past this test's
		// patience waiting for lease expiry.
		LeaseTTL: 60 * time.Second,
		// A tight horizon makes the hint demand several workers while the
		// queue is deep, then decay as it drains: the test sees both a
		// scale-up and a loss-free scale-down in one campaign. At ~50ms a
		// job the hint falls under the fleet's four with 15 jobs left,
		// some ten reconcile ticks before the queue is empty — one-job
		// leases keep all four workers busy to the end, so the window for
		// the scale-down is the queue's tail, not a straggler's bundle.
		ScaleHorizon: 300 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type outcome struct {
		results []exp.Result
		metrics exp.Metrics
		err     error
	}
	out := make(chan outcome, 1)
	go func() {
		results, metrics, err := c.RunContext(ctx, jobs)
		out <- outcome{results, metrics, err}
	}()

	rec := &logRecorder{t: t}
	sup := &Supervisor{
		Coordinator: c.Addr(),
		Client:      chaosClient(t, "seed=11,drop=0.05,delay=5ms:0.1"),
		Fleet:       "chaosfleet",
		Launcher: &LocalLauncher{
			Client: chaosClient(t, "seed=7,drop=0.05,delay=5ms:0.1"),
			Slots:  1,
			NewEngine: func() *exp.Engine {
				return slowEngine(jobs, 50*time.Millisecond)
			},
		},
		Policy: Policy{Min: 1, Max: 4,
			UpCooldown: 20 * time.Millisecond, DownCooldown: 100 * time.Millisecond},
		SlotsPerWorker: 1,
		Poll:           25 * time.Millisecond,
		DrainGrace:     10 * time.Second,
		Logf:           rec.logf,
	}

	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(ctx) }()

	// Sample the fleet while it runs: the peak must reach the hinted
	// ceiling.
	maxRunning := 0
	sample := time.NewTicker(5 * time.Millisecond)
	defer sample.Stop()
	var oc outcome
sampling:
	for {
		select {
		case oc = <-out:
			break sampling
		case <-sample.C:
			snap := sup.Snapshot()
			if snap.Running > maxRunning {
				maxRunning = snap.Running
			}
		}
	}
	if oc.err != nil {
		t.Fatalf("campaign: %v", oc.err)
	}
	if err := <-supDone; err != nil {
		t.Fatalf("supervisor: %v", err)
	}

	// Convergence: the hint wanted several slots for a 30-job queue at
	// ~50ms/job against a 300ms horizon; the fleet must have grown to the
	// policy ceiling, and the decay must have drained someone.
	if maxRunning != 4 {
		t.Errorf("fleet peaked at %d replicas, want the Max of 4", maxRunning)
	}
	if drains := rec.count("draining"); drains == 0 {
		t.Error("no scale-down drain observed in the supervisor log")
	}
	if rec.count("scaling up") == 0 {
		t.Error("no scale-up recorded")
	}

	// The supervisor exited because the fleet is empty.
	if snap := sup.Snapshot(); len(snap.Replicas) > 0 {
		t.Errorf("replicas survived the wind-down: %+v", snap.Replicas)
	}

	// Loss-free: every job completed exactly once with results
	// byte-identical to the local reference, despite drains and chaos.
	checkFingerprints(t, oc.results, want)
	if oc.metrics.Failed != 0 {
		t.Fatalf("metrics: %+v", oc.metrics)
	}
}

// crashyLauncher crashes one lineage on every launch — relaunches reuse
// the lineage name, so the victim keeps crashing until the breaker gives
// up on it — and delegates everything else.
type crashyLauncher struct {
	inner    Launcher
	victim   string
	mu       sync.Mutex
	launches int
}

func (l *crashyLauncher) Launch(ctx context.Context, spec Spec) (Instance, error) {
	if spec.Name == l.victim {
		l.mu.Lock()
		l.launches++
		l.mu.Unlock()
		inst := &fakeInstance{name: spec.Name, done: make(chan struct{})}
		inst.exit(errors.New("simulated crash")) // dead on arrival
		return inst, nil
	}
	return l.inner.Launch(ctx, spec)
}

// TestSupervisorBreaker: a lineage that crashes on every (re)launch
// trips the crash-loop breaker after BreakerCrashes attempts, lowers the
// effective ceiling, and the surviving replica still finishes the
// campaign with results identical to a local run — a broken binary slows
// the fleet, never the campaign.
func TestSupervisorBreaker(t *testing.T) {
	jobs := fleetJobs(t, "banks") // 10 jobs
	want := localFingerprints(t, jobs)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := dist.NewCoordinator(dist.Options{
		Addr:     "127.0.0.1:0",
		LongPoll: 50 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make(chan error, 1)
	var results []exp.Result
	var metrics exp.Metrics
	go func() {
		var err error
		results, metrics, err = c.RunContext(ctx, jobs)
		out <- err
	}()

	rec := &logRecorder{t: t}
	crashy := &crashyLauncher{
		victim: "breaker-2", // the second bootstrap lineage
		inner: &LocalLauncher{Slots: 1, NewEngine: func() *exp.Engine {
			return slowEngine(jobs, 10*time.Millisecond)
		}},
	}
	sup := &Supervisor{
		Coordinator:    c.Addr(),
		Fleet:          "breaker",
		Launcher:       crashy,
		Policy:         Policy{Min: 2, Max: 2, UpCooldown: time.Millisecond, DownCooldown: time.Millisecond},
		Poll:           10 * time.Millisecond,
		BackoffMin:     time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		BreakerCrashes: 3,
		DrainGrace:     10 * time.Second,
		Logf:           rec.logf,
	}
	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(ctx) }()

	if err := <-out; err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if err := <-supDone; err != nil {
		t.Fatalf("supervisor: %v", err)
	}

	// The breaker tripped after exactly BreakerCrashes launches of the
	// doomed lineage, and stopped relaunching it.
	crashy.mu.Lock()
	launches := crashy.launches
	crashy.mu.Unlock()
	if launches != sup.BreakerCrashes {
		t.Errorf("doomed lineage launched %d times, want %d (breaker should stop the loop)", launches, sup.BreakerCrashes)
	}
	if rec.count("breaker tripped") != 1 {
		t.Errorf("breaker log lines: %d, want 1", rec.count("breaker tripped"))
	}
	snap := sup.Snapshot()
	if snap.Broken != 1 {
		t.Errorf("snapshot.Broken = %d, want 1", snap.Broken)
	}

	// The campaign still finished, correctly.
	checkFingerprints(t, results, want)
	if metrics.Failed != 0 {
		t.Fatalf("metrics: %+v", metrics)
	}
}

// TestSupervisorGivesUpOnDeadCoordinator: once the coordinator is gone
// past the shared StatusTracker budget, the supervisor kills the fleet
// and reports the terminal error instead of spinning forever.
func TestSupervisorGivesUpOnDeadCoordinator(t *testing.T) {
	c := dist.NewCoordinator(dist.Options{Addr: "127.0.0.1:0", LongPoll: 50 * time.Millisecond})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	addr := c.Addr()

	jobs := fleetJobs(t, "banks")
	go c.RunContext(context.Background(), jobs)

	rec := &logRecorder{t: t}
	sup := &Supervisor{
		Coordinator: addr,
		Fleet:       "orphan",
		Launcher: &LocalLauncher{Slots: 1, NewEngine: func() *exp.Engine {
			return slowEngine(jobs, 50*time.Millisecond)
		}},
		Policy:          Policy{Min: 1, Max: 1},
		Poll:            20 * time.Millisecond,
		StatusMaxMisses: 3,
		Logf:            rec.logf,
	}
	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(context.Background()) }()

	// Let the supervisor make first contact, then yank the coordinator.
	deadline := time.Now().Add(10 * time.Second)
	for sup.Snapshot().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fleet never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // a few status polls: contact established
	c.Close()

	select {
	case err := <-supDone:
		if err == nil || !strings.Contains(err.Error(), "coordinator gone") {
			t.Fatalf("supervisor exit: %v, want the tracker's give-up error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("supervisor never gave up on the dead coordinator")
	}
	if snap := sup.Snapshot(); snap.Running+snap.Draining+snap.Backoff > 0 {
		t.Errorf("replicas survived the abort: %+v", snap.Replicas)
	}
}
