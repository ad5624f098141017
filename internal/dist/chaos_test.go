package dist

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"ilsim/internal/chaos"
	"ilsim/internal/exp"
)

// TestChaosCampaignMatchesLocal is the chaos-hardening acceptance test: a
// full campaign runs with every worker's coordinator connection behind a
// seeded fault-injecting transport — dropped, delayed and duplicated
// requests, corrupted and truncated responses — and the final result set
// must still be byte-identical to a local run. In the churn case the fleet
// also changes under it, the way an operator changes it by hand: the second
// worker joins only after the first result, and the first drains
// (Worker.Drain, what SIGTERM does to ilsim-workerd) at half-way.
// The transports' stats prove the chaos actually fired rather than
// matching nothing.
func TestChaosCampaignMatchesLocal(t *testing.T) {
	t.Run("steady", func(t *testing.T) { chaosCampaign(t, false) })
	t.Run("churn", func(t *testing.T) { chaosCampaign(t, true) })
}

func chaosCampaign(t *testing.T, churn bool) {
	jobs := testJobs(t, 4)
	want := localFingerprints(t, jobs)

	// Every-based rules are exactly periodic, so with enough requests each
	// fault class is guaranteed to fire.
	plan := chaos.Plan{
		Seed: 7,
		Rules: []chaos.Rule{
			{Every: 6, Fault: chaos.Fault{Drop: true}},
			{Every: 7, Fault: chaos.Fault{Corrupt: true}},
			{Every: 9, Fault: chaos.Fault{Dup: true}},
			{Every: 11, Fault: chaos.Fault{Truncate: true}},
			{Every: 4, Fault: chaos.Fault{Delay: 5 * time.Millisecond}},
		},
	}

	var mu sync.Mutex
	var transports []*chaos.Transport
	var wg sync.WaitGroup
	ctx := context.Background()
	worker := func(name string) *Worker {
		w := &Worker{
			Name: name, Slots: 2,
			RetryWindow: 30 * time.Second,
			Client: ClientOptions{Wrap: func(inner http.RoundTripper) http.RoundTripper {
				tr := plan.Transport(inner)
				mu.Lock()
				transports = append(transports, tr)
				mu.Unlock()
				return tr
			}},
		}
		if churn {
			// Slow enough that jobs are left when the second worker joins.
			w.Engine = slowEngine(jobs, 20*time.Millisecond)
		}
		return w
	}
	start := func(w *Worker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	c1, c2 := worker("c1"), worker("c2")

	opts := Options{
		LongPoll: 100 * time.Millisecond,
		LeaseTTL: 500 * time.Millisecond,
		Logf:     t.Logf,
	}
	var join, leave sync.Once
	if churn {
		opts.OnProgress = func(p exp.Progress) {
			join.Do(func() { start(c2) })
			if p.Done >= len(jobs)/2 {
				leave.Do(c1.Drain)
			}
		}
	}
	c, out := startCampaign(t, ctx, opts, jobs)
	c1.Coordinator, c2.Coordinator = c.Addr(), c.Addr()
	start(c1)
	if !churn {
		start(c2)
	}

	oc := <-out
	wg.Wait()
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)
	if oc.metrics.Failed != 0 {
		t.Fatalf("metrics under chaos: %+v", oc.metrics)
	}
	if churn && !c1.Draining() {
		t.Fatal("the first worker never drained")
	}

	var total chaos.Stats
	mu.Lock()
	for _, tr := range transports {
		s := tr.Stats()
		total.Requests += s.Requests
		total.Drops += s.Drops
		total.Delays += s.Delays
		total.Dups += s.Dups
		total.Truncates += s.Truncates
		total.Corrupts += s.Corrupts
	}
	mu.Unlock()
	t.Logf("chaos totals: %+v", total)
	if total.Requests < 12 {
		t.Fatalf("only %d requests crossed the chaos transports; the campaign barely exercised them", total.Requests)
	}
	// Delay fires every 4th request and Drop every 6th, so both must have
	// fired; injected faults overall must be plural.
	if total.Delays == 0 || total.Drops == 0 {
		t.Fatalf("expected deterministic delay and drop faults to fire: %+v", total)
	}
	if faults := total.Drops + total.Dups + total.Truncates + total.Corrupts; faults < 3 {
		t.Fatalf("only %d faults injected: %+v", faults, total)
	}
}

// TestChaosCampaignSeededReplay runs the same small campaign twice under
// the same plan: both runs must complete with identical fingerprints —
// chaos may reorder recovery work but can never change results.
func TestChaosCampaignSeededReplay(t *testing.T) {
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)
	plan := chaos.Plan{
		Seed: 11,
		Rules: []chaos.Rule{
			{Every: 5, Fault: chaos.Fault{Corrupt: true}},
			{Every: 3, Fault: chaos.Fault{Delay: 2 * time.Millisecond}},
		},
	}
	for round := 0; round < 2; round++ {
		ctx := context.Background()
		c, out := startCampaign(t, ctx, Options{
			LongPoll: 50 * time.Millisecond,
			LeaseTTL: 400 * time.Millisecond,
		}, jobs)
		w := &Worker{
			Coordinator: c.Addr(), Name: "replay", Slots: 1,
			RetryWindow: 30 * time.Second,
			Client: ClientOptions{Wrap: func(inner http.RoundTripper) http.RoundTripper {
				return plan.Transport(inner)
			}},
		}
		if err := w.Run(ctx); err != nil {
			t.Fatalf("round %d worker: %v", round, err)
		}
		oc := <-out
		if oc.err != nil {
			t.Fatalf("round %d: %v", round, oc.err)
		}
		checkFingerprints(t, oc.results, want)
	}
}
