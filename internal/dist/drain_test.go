package dist

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ilsim/internal/exp"
)

// TestGracefulDrain drains a two-slot worker mid-campaign: the jobs
// executing when Drain fires must finish and report — a /result that says
// the worker is draining, as its slot's last does, is granted no lease — no
// further lease may be taken, nothing may stay leased to the drained worker
// once its Run returns (proven structurally — the lease TTL is 60s, far past
// the test's patience, so a lease stranded by the drain would stall the
// campaign), the status feed must show the worker drained with its slots out
// of the live count, and a second worker must then finish the campaign with
// results byte-identical to a local run.
func TestGracefulDrain(t *testing.T) {
	jobs := testJobs(t, 4) // 8 jobs: each point pairs into HSAIL + GCN3
	want := localFingerprints(t, jobs)

	ctx := context.Background()
	traffic := &trafficLog{}
	w1 := &Worker{Name: "drainer", Slots: 2, Engine: slowEngine(jobs, 20*time.Millisecond),
		Client: ClientOptions{Wrap: func(rt http.RoundTripper) http.RoundTripper {
			traffic.next = rt
			if rt == nil {
				traffic.next = http.DefaultTransport
			}
			return traffic
		}}}
	// The worker's second finished job drains it before the job reports, so
	// that result — its slot's last — says the worker is draining.
	var finished atomic.Int32
	drained := make(chan struct{})
	w1.Engine.OnProgress = func(exp.Progress) {
		if finished.Add(1) == 2 {
			w1.Drain()
			close(drained)
		}
	}
	c, out := startCampaign(t, ctx, Options{
		LongPoll: 100 * time.Millisecond,
		LeaseTTL: 60 * time.Second,
		Logf:     t.Logf,
	}, jobs)
	w1.Coordinator = c.Addr()

	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.Run(ctx) }()
	<-drained
	if err := <-w1Done; err != nil {
		t.Fatalf("draining worker: %v", err)
	}
	if !w1.Draining() {
		t.Fatal("worker does not report Draining after Drain")
	}
	traffic.mu.Lock()
	results := traffic.results
	traffic.mu.Unlock()
	draining := 0
	for i, ex := range results {
		if ex.req.Draining {
			draining++
			if ex.rep != (leaseReply{}) {
				t.Errorf("/result %d said draining and was answered %+v, want no lease", i, ex.rep)
			}
		}
	}
	if draining == 0 { // the job that drained the worker reports after the drain
		t.Errorf("none of the drained worker's %d results said it was draining", len(results))
	}

	// The drained worker's leases are gone NOW — not in 60 seconds — and
	// the jobs it did not get to are pending for the relief worker.
	cp := waitCampaign(t, c)
	cp.mu.Lock()
	left := 0
	for idx, holder := range cp.holder {
		if holder == "drainer" {
			t.Errorf("job %d still leased to the drained worker", idx)
		}
	}
	doneSoFar := cp.done
	for _, st := range cp.state {
		if st != stateDone {
			left++
		}
	}
	cp.mu.Unlock()
	if doneSoFar == 0 || doneSoFar == len(jobs) {
		t.Fatalf("drain landed after %d of %d jobs; want a mid-campaign drain", doneSoFar, len(jobs))
	}
	if left == 0 {
		t.Fatal("no jobs left for the relief worker")
	}

	st, err := FetchStatus(ctx, c.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Draining != 1 || st.Slots != 0 || len(st.PerWorker) != 1 {
		t.Fatalf("status after the drain: %d draining, %d live slots, %d rows; want 1, 0, 1", st.Draining, st.Slots, len(st.PerWorker))
	}
	if row := st.PerWorker[0]; row.Name != "drainer" || !row.Draining {
		t.Fatalf("drained worker's row: %+v", row)
	}
	if tbl := st.Table(); !strings.Contains(tbl, "DRAINING") {
		t.Fatalf("status table missing the drain marker:\n%s", tbl)
	}

	// A relief worker finishes the campaign well inside the lease TTL.
	w2 := &Worker{Coordinator: c.Addr(), Name: "relief", Slots: 2}
	w2Done := make(chan error, 1)
	go func() { w2Done <- w2.Run(ctx) }()
	select {
	case oc := <-out:
		if oc.err != nil {
			t.Fatal(oc.err)
		}
		checkFingerprints(t, oc.results, want)
		if oc.metrics.Failed != 0 {
			t.Fatalf("metrics after drain: %+v", oc.metrics)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish: the drained worker left a lease behind (TTL would take 60s)")
	}
	if err := <-w2Done; err != nil {
		t.Fatalf("relief worker: %v", err)
	}
}

// TestDrainBeforeRun: a worker drained before it starts leases nothing,
// reports nothing, and returns nil immediately.
func TestDrainBeforeRun(t *testing.T) {
	jobs := testJobs(t, 1)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LongPoll: 50 * time.Millisecond, Logf: t.Logf}, jobs)

	w := &Worker{Coordinator: c.Addr(), Name: "stillborn"}
	w.Drain()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("pre-drained worker: %v", err)
	}

	// The job is untouched; a live worker completes the campaign.
	live := &Worker{Coordinator: c.Addr(), Name: "live"}
	if err := live.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if oc := <-out; oc.err != nil || oc.metrics.Failed != 0 {
		t.Fatalf("campaign: %+v, %v", oc.metrics, oc.err)
	}
}

// TestDrainReleasesUnseenGrant covers the grant a draining worker never
// sees: its lease polls were in flight when the drain cut them short, the
// coordinator granted jobs into the closed connections, and the worker
// holds nothing it knows of. Its last word hands back everything the
// coordinator holds in its name, so the jobs are pending again at once
// instead of after the 60 s lease TTL.
func TestDrainReleasesUnseenGrant(t *testing.T) {
	jobs := testJobs(t, 2) // 4 jobs
	want := localFingerprints(t, jobs)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{
		LongPoll: 100 * time.Millisecond,
		LeaseTTL: 60 * time.Second,
		Logf:     t.Logf,
	}, jobs)
	cp := waitCampaign(t, c)

	// The lost grants, as lease polls answered into closed connections
	// leave them behind.
	for range 3 {
		if rep, _, err := cp.lease(leaseRequest{Worker: "drainer", SetFP: cp.setFP}, time.Now()); err != nil || rep.Job == nil {
			t.Fatalf("lease = %+v, %v; want a grant", rep, err)
		}
	}

	w1 := &Worker{Coordinator: c.Addr(), Name: "drainer", Slots: 2, Logf: t.Logf}
	w1.Drain()
	if err := w1.Run(ctx); err != nil {
		t.Fatalf("draining worker: %v", err)
	}
	cp.mu.Lock()
	for idx, holder := range cp.holder {
		if holder == "drainer" {
			t.Errorf("job %d still leased to the drained worker", idx)
		}
	}
	released := cp.workers["drainer"].released
	cp.mu.Unlock()
	if !released {
		t.Error("coordinator does not list the drained worker as drained")
	}

	w2 := &Worker{Coordinator: c.Addr(), Name: "relief", Slots: 2}
	w2Done := make(chan error, 1)
	go func() { w2Done <- w2.Run(ctx) }()
	select {
	case oc := <-out:
		if oc.err != nil {
			t.Fatal(oc.err)
		}
		checkFingerprints(t, oc.results, want)
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish: the unseen grant was never released (TTL would take 60s)")
	}
	if err := <-w2Done; err != nil {
		t.Fatalf("relief worker: %v", err)
	}
}
