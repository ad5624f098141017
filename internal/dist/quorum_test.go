package dist

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ilsim/internal/exp"
	"ilsim/internal/stats"
)

// lyingEngine builds an engine whose every finished run is mutated AFTER
// the output check — the model of a worker that computes plausibly but
// wrongly. The mutated run is integrity-hashed as-is, so the wire payload
// is self-consistent and only cross-worker comparison can catch the lie.
func lyingEngine(jobs []exp.Job) *exp.Engine {
	eng := exp.New(0)
	eng.Faults = exp.NewFaultPlan()
	for _, job := range jobs {
		eng.Faults.Set(job.String(), exp.Fault{Mutate: func(run *stats.Run) {
			run.Cycles += 1_000_000 // a subtle lie: everything else intact
		}})
	}
	return eng
}

// slowEngine builds an engine whose jobs each sleep d before running, so a
// deliberately ordered race (liar votes first) is deterministic enough.
func slowEngine(jobs []exp.Job, d time.Duration) *exp.Engine {
	eng := exp.New(0)
	eng.Faults = exp.NewFaultPlan()
	for _, job := range jobs {
		eng.Faults.Set(job.String(), exp.Fault{Delay: d})
	}
	return eng
}

// TestQuorumDetectsLyingWorker is the untrusted-workers acceptance test:
// with -replicas 3, one worker that deterministically mutates every run
// it executes, and two honest workers, the coordinator must accept only
// the majority results (byte-identical to a local run), charge the liar's
// dissents against its health ledger until it is quarantined, record the
// elections in the journal, and resume that journal cleanly.
func TestQuorumDetectsLyingWorker(t *testing.T) {
	jobs := testJobs(t, 3)
	want := localFingerprints(t, jobs)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")

	j, err := exp.OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{
		Replicas: 3,
		LongPoll: 100 * time.Millisecond,
		Journal:  j,
		Logf:     t.Logf,
	}, jobs)

	// The liar runs alone first and casts the first ballot in every
	// election (one vote of three closes nothing); only then do the honest
	// pair join and outvote it job by job. Sequenced, not raced: every
	// election has the lying ballot in it when the honest majority closes it.
	var wg sync.WaitGroup
	run := func(w *Worker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	run(&Worker{Coordinator: c.Addr(), Name: "liar", Slots: 3, Engine: lyingEngine(jobs)})
	cp := waitCampaign(t, c)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st := cp.status(time.Now())
		if len(st.PerWorker) == 1 && st.PerWorker[0].Done == len(jobs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the liar never voted on every job: %+v", st)
		}
	}
	run(&Worker{Coordinator: c.Addr(), Name: "honest-1", Slots: 1})
	run(&Worker{Coordinator: c.Addr(), Name: "honest-2", Slots: 1})

	oc := <-out
	wg.Wait()
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	// Only majority (honest) results were accepted.
	checkFingerprints(t, oc.results, want)
	if oc.metrics.Failed != 0 {
		t.Fatalf("metrics: %+v", oc.metrics)
	}

	// The liar is quarantined and its record is visible in the status feed.
	st, err := FetchStatus(ctx, c.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicas != 3 {
		t.Fatalf("status replicas = %d, want 3", st.Replicas)
	}
	if st.Quarantined != 1 {
		t.Fatalf("status counts %d quarantined workers, want 1", st.Quarantined)
	}
	var liarRow *WorkerStatus
	for i := range st.PerWorker {
		if st.PerWorker[i].Name == "liar" {
			liarRow = &st.PerWorker[i]
		} else if st.PerWorker[i].Quarantined || st.PerWorker[i].Dissents > 0 {
			t.Errorf("honest worker %s carries quarantine state: %+v", st.PerWorker[i].Name, st.PerWorker[i])
		}
	}
	if liarRow == nil {
		t.Fatal("liar missing from status")
	}
	if !liarRow.Quarantined || liarRow.Dissents < 2 {
		t.Fatalf("liar status %+v, want quarantined with >= 2 dissents", *liarRow)
	}
	// The -watch table renders the conviction.
	if table := st.Table(); !strings.Contains(table, "QUARANTINED") {
		t.Fatalf("status table does not show the quarantine:\n%s", table)
	}
	if !strings.Contains(st.Summary(), "3 replicas") {
		t.Fatalf("status summary does not show the quorum width: %s", st.Summary())
	}

	// The journal holds the election audit trail alongside the results.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	votes := strings.Count(string(raw), `"type":"vote"`)
	if votes < len(jobs)*2 {
		t.Fatalf("journal has %d vote records, want at least %d:\n%s", votes, len(jobs)*2, raw)
	}

	// And it resumes cleanly: a second campaign over the same journal
	// restores every job without executing anything.
	j2, err := exp.OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != len(jobs) {
		t.Fatalf("journal resumes %d jobs, want %d", n, len(jobs))
	}
	c2 := NewCoordinator(Options{Replicas: 3, Journal: j2, LongPoll: 50 * time.Millisecond})
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	results2, m2, err := c2.RunContext(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Resumed != len(jobs) {
		t.Fatalf("resumed %d jobs, want %d", m2.Resumed, len(jobs))
	}
	checkFingerprints(t, results2, want)
}

// TestQuorumSplitElectionExtends proves a split election self-extends: two
// replicas, two workers that disagree on every job, and a third honest
// worker joining late — the election must re-lease until some ballot
// reaches a majority, and the accepted results must match a local run.
func TestQuorumSplitElectionExtends(t *testing.T) {
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{
		Replicas: 2,
		LongPoll: 50 * time.Millisecond,
		Logf:     t.Logf,
	}, jobs)
	// Health off: this test is about election flow, not conviction — with
	// replicas=2 every split charges both sides.
	parkHealth(t, c)

	var wg sync.WaitGroup
	workers := []*Worker{
		{Coordinator: c.Addr(), Name: "liar", Slots: 1, Engine: lyingEngine(jobs)},
		{Coordinator: c.Addr(), Name: "honest-1", Slots: 1, Engine: slowEngine(jobs, 10*time.Millisecond)},
		{Coordinator: c.Addr(), Name: "honest-2", Slots: 1, Engine: slowEngine(jobs, 10*time.Millisecond)},
	}
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	oc := <-out
	wg.Wait()
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	// A 2-replica election the liar splits needs a third ballot; majority
	// (2 of the votes cast) must be the honest value on every job.
	checkFingerprints(t, oc.results, want)
}
