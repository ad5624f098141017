package dist

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ilsim/internal/exp"
	"ilsim/internal/stats"
)

// The socket-free campaign suite: every case drives the state machine's
// methods directly with a pinned clock — no listener, no worker goroutine,
// no sleep — so lease expiry, reassignment, acceptance and drains are
// decided by the arguments alone and the suite is exact under -race -count=N.

// t0 is the suite's epoch; rig.at(d) is t0+d.
var t0 = time.Unix(1_700_000_000, 0)

// rig is one campaign under test plus shorthand for its protocol calls.
type rig struct {
	t  *testing.T
	cp *campaign
}

func newRig(t *testing.T, nJobs int, opts Options) *rig {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	return &rig{t: t, cp: newCampaign(testJobs(t, (nJobs+1)/2)[:nJobs], opts, t0)}
}

func (r *rig) at(d time.Duration) time.Time { return t0.Add(d) }

// join registers workers with one slot each at t0.
func (r *rig) join(workers ...string) {
	for _, w := range workers {
		r.cp.join(joinRequest{Version: ProtocolVersion, Worker: w, Slots: 1}, "", t0)
	}
}

// lease polls once for worker at t0+d and returns the reply (Wait when
// nothing is available to it).
func (r *rig) lease(worker string, d time.Duration) leaseReply {
	r.t.Helper()
	rep, _, err := r.cp.lease(leaseRequest{Worker: worker, SetFP: r.cp.setFP}, r.at(d))
	if err != nil {
		r.t.Fatalf("lease(%s): %v", worker, err)
	}
	return rep
}

// grant is lease that must yield job idx.
func (r *rig) grant(worker string, d time.Duration, idx int) {
	r.t.Helper()
	if rep := r.lease(worker, d); rep.Job == nil || rep.Index != idx {
		r.t.Fatalf("lease(%s) at +%s = %+v, want a grant of job %d", worker, d, rep, idx)
	}
}

// waits is lease that must yield nothing.
func (r *rig) waits(worker string, d time.Duration) {
	r.t.Helper()
	if rep := r.lease(worker, d); !rep.Wait {
		r.t.Fatalf("lease(%s) at +%s = %+v, want Wait", worker, d, rep)
	}
}

// wire fabricates a self-consistent result for job idx. Results differ in
// cycles alone, which tells a test whose result a job accepted.
func (r *rig) wire(idx int, cycles uint64) exp.WireResult {
	return exp.EncodeResult(idx, r.cp.fps[idx],
		exp.Result{Run: &stats.Run{Cycles: cycles}, Wall: 10 * time.Millisecond})
}

// report delivers worker's result for job idx at t0+d through take, the
// acceptance half of result: the scripts here lease explicitly, and the next
// lease a result reply carries is TestCampaignResultCarriesNextLease's
// subject.
func (r *rig) report(worker string, d time.Duration, idx int, cycles uint64) error {
	return r.cp.take(resultRequest{Worker: worker, SetFP: r.cp.setFP, Result: r.wire(idx, cycles)}, r.at(d))
}

func (r *rig) mustReport(worker string, d time.Duration, idx int, cycles uint64) {
	r.t.Helper()
	if err := r.report(worker, d, idx, cycles); err != nil {
		r.t.Fatalf("result(%s, job %d): %v", worker, idx, err)
	}
}

// row returns worker's status row at t0+d.
func (r *rig) row(worker string, d time.Duration) WorkerStatus {
	r.t.Helper()
	for _, ws := range r.cp.status(r.at(d)).PerWorker {
		if ws.Name == worker {
			return ws
		}
	}
	r.t.Fatalf("worker %s missing from status", worker)
	return WorkerStatus{}
}

// accepted reports job idx's accepted cycles, or false while it is open.
func (r *rig) accepted(idx int) (uint64, bool) {
	r.cp.mu.Lock()
	defer r.cp.mu.Unlock()
	if r.cp.state[idx] != stateDone {
		return 0, false
	}
	return r.cp.results[idx].Run.Cycles, true
}

func refusalOf(err error) (refusalKind, bool) {
	var ref *refusal
	if errors.As(err, &ref) {
		return ref.kind, true
	}
	return 0, false
}

// TestCampaignLeaseExpiry: a worker takes a lease and goes silent. The
// lease survives while heartbeats renew it, lapses one TTL after the last
// one, and the job goes to the next worker that asks — while a job the
// silent worker had already reported stays done and is never leased again.
func TestCampaignLeaseExpiry(t *testing.T) {
	r := newRig(t, 3, Options{LeaseTTL: 10 * time.Second})
	r.join("doomed", "healthy")
	r.grant("doomed", 0, 0)
	r.mustReport("doomed", time.Second, 0, 100)
	r.grant("doomed", time.Second, 1)
	r.grant("healthy", time.Second, 2)
	r.waits("healthy", 2*time.Second) // everything is held or done

	// A heartbeat at +8s moves job 1's deadline from +11s to +18s; one for
	// a job the worker does not hold renews nothing.
	if err := r.cp.heartbeat(heartbeatRequest{Worker: "doomed", SetFP: r.cp.setFP, Held: []int{1, 2, 99}}, r.at(8*time.Second)); err != nil {
		t.Fatal(err)
	}
	r.mustReport("healthy", 9*time.Second, 2, 300)
	r.waits("healthy", 17*time.Second)
	if row := r.row("doomed", 17*time.Second); row.Held != 1 {
		t.Fatalf("before the deadline: %+v", row)
	}

	// Past the deadline the reclaim sweep frees it, and only it.
	r.cp.reclaim(r.at(18 * time.Second))
	if row := r.row("doomed", 18*time.Second); row.Held != 0 {
		t.Fatalf("after expiry: %+v, want 0 held", row)
	}
	r.grant("healthy", 18*time.Second, 1)
	r.mustReport("healthy", 19*time.Second, 1, 200)
	if rep := r.lease("healthy", 19*time.Second); !rep.Done {
		t.Fatalf("lease after the last result = %+v, want Done", rep)
	}
	for idx, want := range []uint64{100, 200, 300} {
		if got, ok := r.accepted(idx); !ok || got != want {
			t.Errorf("job %d accepted %d (%v), want %d", idx, got, ok, want)
		}
	}
	// The straggler's late result is acknowledged and changes nothing.
	r.mustReport("doomed", 20*time.Second, 1, 201)
	if got, _ := r.accepted(1); got != 200 {
		t.Fatalf("a straggler replaced job 1's result: %d", got)
	}
	if row := r.row("doomed", 20*time.Second); row.Done != 1 {
		t.Fatalf("a dropped straggler counted as work: %+v", row)
	}
}

// TestCampaignRefusals: the typed refusals every method can return.
func TestCampaignRefusals(t *testing.T) {
	r := newRig(t, 2, Options{})
	r.join("w", "bystander")
	r.grant("w", 0, 0)

	cases := []struct {
		name string
		err  error
		want refusalKind
	}{
		{"stale version", validateJoin(joinRequest{Version: ProtocolVersion - 1, Worker: "old"}), refuseStale},
		{"nameless join", validateJoin(joinRequest{Version: ProtocolVersion}), refuseMalformed},
		{"foreign job set", r.cp.release(releaseRequest{Worker: "w", SetFP: "other"}), refuseStale},
		{"index out of range", r.cp.take(resultRequest{Worker: "w", SetFP: r.cp.setFP,
			Result: exp.WireResult{Index: 7}}, t0), refuseMalformed},
		{"drifted job fingerprint", r.cp.take(resultRequest{Worker: "w", SetFP: r.cp.setFP,
			Result: exp.WireResult{Index: 0, Job: "drifted"}}, t0), refuseStale},
	}
	for _, tc := range cases {
		if kind, ok := refusalOf(tc.err); !ok || kind != tc.want {
			t.Errorf("%s: %v (kind %v, typed %v), want kind %v", tc.name, tc.err, kind, ok, tc.want)
		}
	}
	if err := validateJoin(joinRequest{Version: ProtocolVersion, Worker: "w"}); err != nil {
		t.Errorf("current version refused: %v", err)
	}

	// A payload that fails its integrity hash is refused and its lease
	// freed for someone else.
	tampered := r.wire(0, 100)
	tampered.Run.Cycles++
	err := r.cp.take(resultRequest{Worker: "w", SetFP: r.cp.setFP, Result: tampered}, r.at(time.Second))
	if kind, ok := refusalOf(err); !ok || kind != refuseMalformed {
		t.Fatalf("tampered result: %v", err)
	}
	if row := r.row("w", time.Second); row.Held != 0 {
		t.Fatalf("after the integrity failure: %+v", row)
	}
	r.grant("bystander", time.Second, 0)

	// A canceled attempt is not an outcome: acknowledged, lease freed, job
	// still open.
	r.grant("w", time.Second, 1)
	canceled := exp.EncodeResult(1, r.cp.fps[1], exp.Result{Err: exp.ErrCanceled})
	if err := r.cp.take(resultRequest{Worker: "w", SetFP: r.cp.setFP, Result: canceled}, r.at(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, done := r.accepted(1); done {
		t.Fatal("a canceled attempt closed its job")
	}
	r.grant("w", 2*time.Second, 1)
}

// TestCampaignPanickingJobsConvictNobody: the simulator is deterministic, so
// a job that panics panics on every worker — the worker that reports it has
// found a broken sweep point, not shown itself broken. Four panic-class
// results (two points × two abstractions) are accepted as failures like any
// other, and with a live bystander the reporting worker's next poll is still
// granted the next job.
func TestCampaignPanickingJobsConvictNobody(t *testing.T) {
	r := newRig(t, 5, Options{})
	r.join("carrier", "bystander")
	for idx := 0; idx < 4; idx++ {
		d := time.Duration(idx) * time.Second
		r.grant("carrier", d, idx)
		panicked := exp.EncodeResult(idx, r.cp.fps[idx],
			exp.Result{Err: &exp.PanicError{Job: r.cp.jobs[idx].String(), Value: "index out of range"}})
		if err := r.cp.take(resultRequest{Worker: "carrier", SetFP: r.cp.setFP, Result: panicked}, r.at(d)); err != nil {
			t.Fatalf("panic result for job %d: %v", idx, err)
		}
	}
	if st := r.cp.status(r.at(4 * time.Second)); st.Done != 4 || st.Failed != 4 {
		t.Fatalf("after four panics: %d done, %d failed; want 4 and 4", st.Done, st.Failed)
	}
	r.grant("carrier", 4*time.Second, 4)
}

// TestCampaignDrainFlag: the coordinator learns of a drain at the worker's
// /release goodbye and records it as the released mark — the worker shows as
// draining, its slots leave the live count, the completion linger stops
// waiting for it, its in-flight result still counts, and joining again under
// the same name clears the mark.
func TestCampaignDrainFlag(t *testing.T) {
	r := newRig(t, 2, Options{})
	r.join("busy", "idle", "stays")
	r.grant("busy", 0, 0)
	r.grant("stays", 0, 1)
	if st := r.cp.status(r.at(time.Second)); st.Draining != 0 || st.Slots != 3 {
		t.Fatalf("status before any drain: %d draining, %d live slots; want 0 and 3", st.Draining, st.Slots)
	}
	for _, w := range []string{"busy", "idle"} {
		if err := r.cp.release(releaseRequest{Worker: w, SetFP: r.cp.setFP}); err != nil {
			t.Fatal(err)
		}
	}
	// busy's lease went back with its goodbye, and neither drained worker is
	// offered the job.
	if st := r.cp.status(r.at(time.Second)); st.Draining != 2 || st.Slots != 1 || st.Pending != 1 {
		t.Fatalf("status: %d draining, %d live slots, %d pending; want 2, 1 and 1", st.Draining, st.Slots, st.Pending)
	}
	if row := r.row("stays", time.Second); row.Draining || row.Held != 1 {
		t.Fatalf("the drains leaked to another worker: %+v", row)
	}
	r.waits("busy", time.Second)
	r.waits("idle", time.Second)

	// A result that was already on the wire when the worker said goodbye
	// still counts.
	r.mustReport("busy", 2*time.Second, 0, 100)
	r.mustReport("stays", 2*time.Second, 1, 200)
	if ok, _ := r.cp.allAcked(r.at(2 * time.Second)); ok {
		t.Fatal("linger would not wait for the live worker")
	}
	if rep := r.lease("stays", 2*time.Second); !rep.Done {
		t.Fatalf("lease after completion = %+v", rep)
	}
	if err := r.cp.release(releaseRequest{Worker: "stays", SetFP: r.cp.setFP}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.cp.allAcked(r.at(2 * time.Second)); !ok {
		t.Fatal("linger still waiting though every worker has said goodbye")
	}

	// The same name joining again is a live worker again.
	r.join("busy")
	if row := r.row("busy", 2*time.Second); row.Draining {
		t.Fatalf("a rejoined worker still shows as drained: %+v", row)
	}
	if ok, _ := r.cp.allAcked(r.at(2 * time.Second)); ok {
		t.Fatal("linger ignores the rejoined worker")
	}
}

// TestCampaignOneAckPerWorker: the completion handshake is one goodbye per
// worker, however many slots it declared, and it is the goodbye that counts.
// A Done reply merely served proves nothing — it can die between the
// campaign counting it and the worker reading it, and then the worker polls
// again — so the linger waits for the /release a worker posts after reading
// one, and serves Done to every poll until then.
func TestCampaignOneAckPerWorker(t *testing.T) {
	r := newRig(t, 1, Options{})
	r.cp.join(joinRequest{Version: ProtocolVersion, Worker: "wide", Slots: 2}, "", t0)
	r.join("narrow")
	r.grant("wide", 0, 0)
	r.mustReport("wide", time.Second, 0, 100)
	for _, w := range []string{"wide", "wide", "narrow"} { // every slot that polls hears Done
		if rep := r.lease(w, time.Second); !rep.Done {
			t.Fatalf("lease(%s) after completion = %+v", w, rep)
		}
	}
	if ok, _ := r.cp.allAcked(r.at(time.Second)); ok {
		t.Fatal("linger over on Done replies served, before any worker said it read one")
	}
	_, changed := r.cp.allAcked(r.at(time.Second))
	if err := r.cp.release(releaseRequest{Worker: "narrow", SetFP: r.cp.setFP}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-changed:
	default:
		t.Fatal("a goodbye did not wake the linger")
	}
	if ok, _ := r.cp.allAcked(r.at(time.Second)); ok {
		t.Fatal("linger over though the two-slot worker has not said goodbye")
	}
	if err := r.cp.release(releaseRequest{Worker: "wide", SetFP: r.cp.setFP}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.cp.allAcked(r.at(time.Second)); !ok {
		t.Fatal("linger waits for a second goodbye from the two-slot worker")
	}
	// A worker that never says goodbye is waited for only while it is live.
	r.join("silent")
	if ok, _ := r.cp.allAcked(r.at(time.Second)); ok {
		t.Fatal("linger ignores a live worker")
	}
	if ok, _ := r.cp.allAcked(r.at(time.Hour)); !ok {
		t.Fatal("linger waits for a worker silent for a whole lease TTL")
	}
}

// TestCampaignResultCarriesNextLease: a result reply is the sender's next
// lease, answered at once — the lowest pending job while there is one, Wait
// while the rest is held elsewhere, Done once the reported job was the last —
// and nothing at all for a worker that says it is draining, whose result
// still counts. A refused result carries no lease.
func TestCampaignResultCarriesNextLease(t *testing.T) {
	r := newRig(t, 4, Options{})
	r.join("a", "b")
	r.grant("a", 0, 0)
	r.grant("b", 0, 1)
	result := func(worker string, d time.Duration, idx int, draining bool) leaseReply {
		t.Helper()
		rep, err := r.cp.result(resultRequest{Worker: worker, SetFP: r.cp.setFP,
			Result: r.wire(idx, uint64(100*(idx+1))), Draining: draining}, r.at(d))
		if err != nil {
			t.Fatalf("result(%s, job %d): %v", worker, idx, err)
		}
		return rep
	}
	if rep := result("a", time.Second, 0, false); rep.Job == nil || rep.Index != 2 || rep.JobFP != r.cp.fps[2] {
		t.Fatalf("a's first result reply = %+v, want a grant of job 2", rep)
	}
	if rep := result("b", time.Second, 1, true); rep != (leaseReply{}) {
		t.Fatalf("draining b's result reply = %+v, want no lease", rep)
	}
	if row := r.row("b", time.Second); row.Done != 1 || row.Held != 0 {
		t.Fatalf("draining b after its last result: %+v", row)
	}
	if rep := result("a", 2*time.Second, 2, false); rep.Job == nil || rep.Index != 3 {
		t.Fatalf("a's second result reply = %+v, want a grant of job 3", rep)
	}
	r.join("c")
	r.waits("c", 2*time.Second)
	if _, err := r.cp.result(resultRequest{Worker: "c", SetFP: r.cp.setFP,
		Result: exp.WireResult{Index: 9}}, r.at(2*time.Second)); err == nil {
		t.Fatal("an out-of-range result was accepted")
	}
	if rep := result("a", 3*time.Second, 3, false); !rep.Done {
		t.Fatalf("the last result's reply = %+v, want Done", rep)
	}
	for idx := range 4 {
		if got, ok := r.accepted(idx); !ok || got != uint64(100*(idx+1)) {
			t.Errorf("job %d accepted %d (%v)", idx, got, ok)
		}
	}
}

// TestCampaignFinishesAfterLastProgress: the campaign ends — Done replies
// served, RunContext released — only once the last job's OnProgress callback
// has returned, so that no callback runs after Run has.
func TestCampaignFinishesAfterLastProgress(t *testing.T) {
	var r *rig
	finishedInCallback := false
	r = newRig(t, 1, Options{OnProgress: func(exp.Progress) {
		finishedInCallback = r.cp.finishedNow()
	}})
	r.join("w")
	r.grant("w", 0, 0)
	r.mustReport("w", time.Second, 0, 100)
	if finishedInCallback {
		t.Fatal("the campaign was finished while its last progress callback was still to run")
	}
	if !r.cp.finishedNow() {
		t.Fatal("the campaign is not finished after its last result")
	}
}

// TestCampaignReleaseUnseenGrant: a drain cuts a lease poll short while its
// grant is on the wire. The worker knows of no lease, so its goodbye lists
// nothing — and must still hand the job back now rather than at TTL expiry,
// mark the worker drained, and leave other workers' leases and finished
// jobs alone.
func TestCampaignReleaseUnseenGrant(t *testing.T) {
	r := newRig(t, 3, Options{LeaseTTL: time.Hour})
	r.join("drainer", "relief")
	r.grant("drainer", 0, 0)
	r.mustReport("drainer", time.Second, 0, 100)
	r.grant("drainer", time.Second, 1) // the reply the worker never reads
	r.grant("relief", time.Second, 2)
	r.waits("relief", time.Second)

	if err := r.cp.release(releaseRequest{Worker: "drainer", SetFP: r.cp.setFP}); err != nil {
		t.Fatal(err)
	}
	if row := r.row("drainer", time.Second); row.Held != 0 || !row.Draining {
		t.Fatalf("after release: %+v", row)
	}
	r.waits("drainer", time.Second) // a stray poll is held, never granted
	if row := r.row("relief", time.Second); row.Held != 1 {
		t.Fatalf("release touched another worker's lease: %+v", row)
	}
	r.mustReport("relief", 2*time.Second, 2, 300)
	r.grant("relief", 2*time.Second, 1) // long before the hour-long TTL
	if got, _ := r.accepted(0); got != 100 {
		t.Fatalf("release disturbed a finished job: accepted %d", got)
	}
}

// TestCampaignJournalFailure: when the journal write for a job's result
// fails, the result is refused as retryable, the job goes back to pending,
// and the worker's retry closes the job once the journal works again:
// accepted exactly once, and durable before it was acknowledged.
func TestCampaignJournalFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	jobs := testJobs(t, 1)
	broken, err := exp.OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	broken.Close() // every Record now fails
	var progress []exp.Progress
	r := &rig{t: t, cp: newCampaign(jobs, Options{Journal: broken, Logf: t.Logf,
		OnProgress: func(p exp.Progress) { progress = append(progress, p) }}, t0)}
	r.join("w")
	r.grant("w", 0, 0)

	err = r.report("w", time.Second, 0, 100)
	if kind, ok := refusalOf(err); !ok || kind != refuseJournal {
		t.Fatalf("result with a dead journal: %v, want a journal refusal", err)
	}
	r.cp.mu.Lock()
	state := r.cp.state[0]
	r.cp.mu.Unlock()
	if state != statePending || len(progress) != 0 {
		t.Fatalf("after the failed write: state %d, %d progress events; want pending and none", state, len(progress))
	}

	working, err := exp.OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer working.Close()
	r.cp.journal = working
	r.mustReport("w", 2*time.Second, 0, 100)
	r.mustReport("w", 3*time.Second, 0, 100) // and a second retry is harmless
	if got, ok := r.accepted(0); !ok || got != 100 {
		t.Fatalf("retry did not close the job: %d (%v)", got, ok)
	}
	if len(progress) != 1 || progress[0].Worker != "w" || progress[0].Done != 1 {
		t.Fatalf("progress events: %+v", progress)
	}
	if rec, ok := working.Completed(0); !ok || rec.Run.Cycles != 100 {
		t.Fatalf("journal holds %+v (%v)", rec, ok)
	}
	if row := r.row("w", 3*time.Second); row.Done != 1 {
		t.Fatalf("duplicate deliveries counted as work: %+v", row)
	}
}

// TestCampaignResumedJobs: jobs a journal already holds are never
// leased, count as resumed in status and metrics, a stray result for one is
// acknowledged and dropped, and a fully restored campaign is finished before
// any worker arrives.
func TestCampaignResumedJobs(t *testing.T) {
	r := newRig(t, 3, Options{})
	r.cp.restore(0, exp.Result{Run: &stats.Run{Cycles: 100}, Wall: time.Second})
	r.cp.restore(2, exp.Result{Run: &stats.Run{Cycles: 300}, Wall: time.Second})
	r.join("w", "bystander")
	if st := r.cp.status(t0); st.Done != 2 || st.Resumed != 2 || st.Pending != 1 || st.Finished {
		t.Fatalf("status after restore: %+v", st)
	}
	r.grant("w", 0, 1) // the only job left
	r.waits("bystander", 0)

	// A stray pre-restart result leaves the restored one in place.
	r.mustReport("bystander", time.Second, 2, 999)
	if row := r.row("bystander", time.Second); row.Done != 0 {
		t.Fatalf("a stray result counted as work: %+v", row)
	}

	r.mustReport("w", 2*time.Second, 1, 200)
	results, m := r.cp.assemble(r.at(3 * time.Second))
	if m.Jobs != 3 || m.Resumed != 2 || m.Failed != 0 || m.Elapsed != 3*time.Second {
		t.Fatalf("metrics: %+v", m)
	}
	if !results[0].Resumed || results[1].Resumed || !results[2].Resumed || results[2].Run.Cycles != 300 {
		t.Fatalf("results: %+v", results)
	}

	full := newRig(t, 2, Options{})
	full.cp.restore(0, exp.Result{Run: &stats.Run{Cycles: 1}})
	full.cp.restore(1, exp.Result{Run: &stats.Run{Cycles: 2}})
	if !full.cp.finishedNow() {
		t.Fatal("a fully restored campaign is not finished")
	}
	if rep := full.lease("late", 0); !rep.Done {
		t.Fatalf("lease on a fully restored campaign = %+v", rep)
	}
}

// TestCampaignAbort: an aborted campaign reports unfinished jobs as
// canceled, keeps the finished ones, and tells every poller it is over.
func TestCampaignAbort(t *testing.T) {
	r := newRig(t, 2, Options{})
	r.join("w")
	r.grant("w", 0, 0)
	r.mustReport("w", time.Second, 0, 100)
	r.grant("w", time.Second, 1)
	r.cp.abort()
	r.mustReport("w", 2*time.Second, 1, 200) // too late: acknowledged, ignored
	results, m := r.cp.assemble(r.at(2 * time.Second))
	if m.Failed != 1 || results[0].Err != nil || !errors.Is(results[1].Err, exp.ErrCanceled) {
		t.Fatalf("after abort: metrics %+v, errs %v / %v", m, results[0].Err, results[1].Err)
	}
	if rep := r.lease("w", 2*time.Second); !rep.Done {
		t.Fatalf("lease after abort = %+v", rep)
	}
}
