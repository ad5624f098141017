package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/exp"
)

// testJobs builds the standard dual-abstraction job set over the first n
// bank-sweep points at unit scale — the same shape the sweep CLI submits.
func testJobs(t *testing.T, n int) []exp.Job {
	t.Helper()
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < n {
		t.Fatalf("banks sweep has %d points, need %d", len(pts), n)
	}
	return exp.PairJobs("ArrayBW", 1, pts[:n], core.RunOptions{})
}

// localFingerprints runs jobs on a local parallel engine — the reference
// the distributed paths must match byte for byte.
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

// checkFingerprints asserts the distributed results match the local
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
			t.Errorf("job %d (%s): distributed fingerprint differs from local:\n--- local ---\n%s--- dist ---\n%s",
				i, r.Job, want[i], r.Run.Fingerprint())
		}
	}
}

// startCampaign launches a coordinator on a loopback port and runs jobs
// through it in the background, returning the coordinator and a channel
// with the campaign outcome.
type campaignOutcome struct {
	results []exp.Result
	metrics exp.Metrics
	err     error
}

func startCampaign(t *testing.T, ctx context.Context, opts Options, jobs []exp.Job) (*Coordinator, <-chan campaignOutcome) {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	c := NewCoordinator(opts)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	out := make(chan campaignOutcome, 1)
	go func() {
		results, metrics, err := c.RunContext(ctx, jobs)
		out <- campaignOutcome{results, metrics, err}
	}()
	return c, out
}

// waitCampaign blocks until the coordinator's campaign is installed —
// RunContext publishes it asynchronously after the journal prefill.
func waitCampaign(t *testing.T, c *Coordinator) *campaign {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cp := c.campaignFor(); cp != nil {
			return cp
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never installed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// slowEngine builds an engine whose jobs each sleep d before running, so
// a campaign lasts long enough for the fleet to change under it.
func slowEngine(jobs []exp.Job, d time.Duration) *exp.Engine {
	eng := exp.New(0)
	eng.Faults = exp.NewFaultPlan()
	for _, job := range jobs {
		eng.Faults.Set(job.String(), exp.Fault{Delay: d})
	}
	return eng
}

// handlerTransport serves a client's requests with h in process: no socket
// carries them.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// trafficLog is a client transport that records the protocol traffic it
// passes on to next: requests by path, the replies that told a slot to wait,
// and every /result request with the lease its reply carried.
type trafficLog struct {
	next http.RoundTripper

	mu      sync.Mutex
	calls   map[string]int
	waits   int
	results []resultExchange
}

type resultExchange struct {
	req resultRequest
	rep leaseReply
}

func (l *trafficLog) RoundTrip(r *http.Request) (*http.Response, error) {
	var req []byte
	if r.GetBody != nil {
		if b, err := r.GetBody(); err == nil {
			req, _ = io.ReadAll(b)
		}
	}
	resp, err := l.next.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	rep, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(rep))
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.calls == nil {
		l.calls = map[string]int{}
	}
	l.calls[r.URL.Path]++
	if resp.StatusCode != http.StatusOK || (r.URL.Path != "/lease" && r.URL.Path != "/result") {
		return resp, nil
	}
	var lease leaseReply
	if json.Unmarshal(rep, &lease) == nil && lease.Wait {
		l.waits++
	}
	if r.URL.Path == "/result" {
		var res resultRequest
		json.Unmarshal(req, &res)
		l.results = append(l.results, resultExchange{res, lease})
	}
	return resp, nil
}

// TestCampaignOneLeasePerSlot: a result reply carries the slot's next lease,
// so a campaign of N jobs on two single-slot workers makes N /result
// requests and at most 2 + (Wait replies) /lease requests — one per slot for
// its first job and one after each Wait — where polling for every job made
// 2N. The requests are counted on the workers' transport, which hands them
// to Coordinator.Handler() in process; the results are byte-identical to a
// local run.
func TestCampaignOneLeasePerSlot(t *testing.T) {
	jobs := testJobs(t, 4)
	want := localFingerprints(t, jobs)
	c := NewCoordinator(Options{Addr: "127.0.0.1:0", LongPoll: 200 * time.Millisecond})
	t.Cleanup(func() { c.Close() })
	traffic := &trafficLog{next: handlerTransport{c.Handler()}}

	ctx := context.Background()
	out := make(chan campaignOutcome, 1)
	go func() {
		results, metrics, err := c.RunContext(ctx, jobs)
		out <- campaignOutcome{results, metrics, err}
	}()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		w := &Worker{Coordinator: "http://coordinator", Name: name, Engine: exp.New(1),
			Client: ClientOptions{HTTPClient: &http.Client{Transport: traffic}}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	traffic.mu.Lock()
	defer traffic.mu.Unlock()
	if n := traffic.calls["/result"]; n != len(jobs) {
		t.Fatalf("%d /result requests for %d jobs", n, len(jobs))
	}
	t.Logf("%d jobs: %d /result, %d /lease, %d Wait replies", len(jobs), traffic.calls["/result"], traffic.calls["/lease"], traffic.waits)
	if n, most := traffic.calls["/lease"], 2+traffic.waits; n > most {
		t.Fatalf("%d /lease requests for %d jobs on two slots and %d Wait replies, want at most %d",
			n, len(jobs), traffic.waits, most)
	}
}

// TestDistributedMatchesLocal is the subsystem's acceptance criterion: a
// campaign run by a coordinator and two loopback workers produces
// stats.Run fingerprints byte-identical to the same job set run locally.
func TestDistributedMatchesLocal(t *testing.T) {
	jobs := testJobs(t, 3)
	want := localFingerprints(t, jobs)

	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LongPoll: 200 * time.Millisecond}, jobs)

	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		w := &Worker{Coordinator: c.Addr(), Name: name, Slots: 2}
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
	checkFingerprints(t, oc.results, want)
	if oc.metrics.Jobs != len(jobs) || oc.metrics.Failed != 0 {
		t.Fatalf("metrics %+v", oc.metrics)
	}
	// Both workers joined; the campaign was actually distributed.
	if workers := waitCampaign(t, c).status(time.Now()).Workers; workers != 2 {
		t.Fatalf("%d workers joined, want 2", workers)
	}
}

// TestLeaseExpiryReassignment kills a worker mid-job — a fault-injected
// hang followed by cancellation, so it stops heartbeating exactly like a
// crashed machine — and requires the coordinator to reassign its lease to
// a healthy worker with the final result set fingerprint-identical to a
// fault-free local run.
func TestLeaseExpiryReassignment(t *testing.T) {
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)

	var progMu sync.Mutex
	workerByJob := make(map[string]string) // job fingerprint → worker that finished it
	opts := Options{
		LeaseTTL: 150 * time.Millisecond,
		LongPoll: 100 * time.Millisecond,
		OnProgress: func(p exp.Progress) {
			progMu.Lock()
			workerByJob[p.Job.Fingerprint()] = p.Worker
			progMu.Unlock()
		},
	}
	ctx := context.Background()
	c, out := startCampaign(t, ctx, opts, jobs)

	// Worker A hangs forever on job 0 (an injected livelock) and is then
	// canceled — from the coordinator's view it takes a lease and dies.
	hangEng := exp.New(1)
	hangEng.Faults = exp.NewFaultPlan()
	hangEng.Faults.Set(jobs[0].String(), exp.Fault{Hang: true})
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	aDone := make(chan error, 1)
	a := &Worker{Coordinator: c.Addr(), Name: "doomed", Slots: 1, Engine: hangEng}
	go func() { aDone <- a.Run(actx) }()

	// Wait until the doomed worker holds job 0's lease, then kill it.
	cp := waitCampaign(t, c)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cp.mu.Lock()
		byDoomed := cp.holder[0] == "doomed"
		cp.mu.Unlock()
		if byDoomed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never leased job 0")
		}
		time.Sleep(5 * time.Millisecond)
	}
	acancel()
	if err := <-aDone; err != nil {
		t.Fatalf("canceled worker returned %v", err)
	}

	// A healthy worker picks up everything, including the reassigned job.
	b := &Worker{Coordinator: c.Addr(), Name: "healthy", Slots: 2}
	if err := b.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	progMu.Lock()
	who := workerByJob[jobs[0].Fingerprint()]
	progMu.Unlock()
	if who != "healthy" {
		t.Fatalf("job 0 finished by %q, want the healthy worker after reassignment", who)
	}
}

// TestCoordinatorKillResume kills the coordinator mid-campaign and resumes
// it from its journal: the union of results before and after the restart
// must be fingerprint-identical to an uninterrupted local run, with the
// pre-kill completions restored from disk rather than re-executed.
func TestCoordinatorKillResume(t *testing.T) {
	jobs := testJobs(t, 3)
	want := localFingerprints(t, jobs)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")

	j1, err := exp.OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	killed := make(chan struct{})
	var once sync.Once
	opts1 := Options{
		Journal:  j1,
		LongPoll: 100 * time.Millisecond,
		OnProgress: func(p exp.Progress) {
			if p.Done >= 2 {
				once.Do(func() { close(killed); cancel1() })
			}
		},
	}
	c1, out1 := startCampaign(t, ctx1, opts1, jobs)
	w1 := &Worker{Coordinator: c1.Addr(), Name: "w1", Slots: 1}
	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.Run(ctx1) }()

	<-killed
	oc1 := <-out1
	if err := <-w1Done; err != nil {
		t.Fatalf("worker 1: %v", err)
	}
	c1.Close()
	j1.Close()
	recorded := 0
	for _, r := range oc1.results {
		if r.Err == nil && r.Run != nil {
			recorded++
		}
	}
	if recorded == 0 || recorded == len(jobs) {
		t.Fatalf("kill landed after %d of %d jobs; want a mid-campaign kill", recorded, len(jobs))
	}

	// Resume: a fresh coordinator on the same journal restores the
	// completed prefix and serves only the remainder.
	j2, err := exp.OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumable() < 2 {
		t.Fatalf("journal resumes %d jobs, want >= 2", j2.Resumable())
	}
	ctx2 := context.Background()
	c2, out2 := startCampaign(t, ctx2, Options{Journal: j2, LongPoll: 100 * time.Millisecond}, jobs)
	w2 := &Worker{Coordinator: c2.Addr(), Name: "w2", Slots: 2}
	if err := w2.Run(ctx2); err != nil {
		t.Fatal(err)
	}
	oc2 := <-out2
	if oc2.err != nil {
		t.Fatal(oc2.err)
	}
	checkFingerprints(t, oc2.results, want)
	if oc2.metrics.Resumed < 2 {
		t.Fatalf("resumed campaign re-executed everything: metrics %+v", oc2.metrics)
	}
}

// TestPermanentFailureReported runs a job set with one deterministically
// failing job: the worker reports it once, the coordinator records it
// without re-leasing, and the campaign still completes.
func TestPermanentFailureReported(t *testing.T) {
	jobs := testJobs(t, 2)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LongPoll: 100 * time.Millisecond}, jobs)

	eng := exp.New(2)
	eng.Faults = exp.NewFaultPlan()
	eng.Faults.Set(jobs[1].String(), exp.Fault{Err: fmt.Errorf("broken config")})
	var runs atomic.Int32
	eng.OnProgress = func(p exp.Progress) {
		if p.Job.String() == jobs[1].String() {
			runs.Add(1)
		}
	}
	w := &Worker{Coordinator: c.Addr(), Name: "w", Slots: 2, Engine: eng}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	if oc.metrics.Failed != 1 {
		t.Fatalf("metrics %+v, want 1 failed", oc.metrics)
	}
	r := oc.results[1]
	if r.Err == nil || !strings.Contains(r.Err.Error(), "broken config") {
		t.Fatalf("failed job error = %v", r.Err)
	}
	if exp.Classify(r.Err) != exp.ClassPermanent {
		t.Fatalf("failure class %s survived the wire wrong", exp.Classify(r.Err))
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("permanent failure executed %d times", n)
	}
}

// TestJoinVersionMismatch proves the handshake refuses a worker speaking a
// different protocol version with the fatal 409 — before a campaign is
// installed as well as after, because the check needs none: a stale binary
// that dials a coordinator still loading its job set must not be told 503
// and retry for its whole outage window. Socket-free against the adapter's
// handler, so there is no window for the POST to race the install.
func TestJoinVersionMismatch(t *testing.T) {
	c := NewCoordinator(Options{})
	join := func(req joinRequest) int {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/join", bytes.NewReader(body)))
		return rec.Code
	}
	stale := joinRequest{Version: ProtocolVersion + 1, Worker: "old"}
	current := joinRequest{Version: ProtocolVersion, Worker: "new"}

	if code := join(stale); code != http.StatusConflict {
		t.Fatalf("stale-version join before the campaign installs got %d, want %d", code, http.StatusConflict)
	}
	if code := join(joinRequest{Version: ProtocolVersion}); code != http.StatusBadRequest {
		t.Fatalf("nameless join before the campaign installs got %d, want %d", code, http.StatusBadRequest)
	}
	if code := join(current); code != http.StatusServiceUnavailable {
		t.Fatalf("current-version join before the campaign installs got %d, want the retryable %d", code, http.StatusServiceUnavailable)
	}

	cp := newCampaign(testJobs(t, 1), Options{}, time.Now())
	c.mu.Lock()
	c.camp = cp
	c.mu.Unlock()
	if code := join(stale); code != http.StatusConflict {
		t.Fatalf("stale-version join got %d, want %d", code, http.StatusConflict)
	}
	// The refused worker left no trace; a current one joins.
	if code := join(current); code != http.StatusOK {
		t.Fatalf("current-version join got %d", code)
	}
	if st := cp.status(time.Now()); st.Workers != 1 || st.PerWorker[0].Name != "new" {
		t.Fatalf("workers after one refused and one accepted join: %+v", st.PerWorker)
	}
}

// TestStaleProtocolV1Refused pins the version gate over a real socket: a
// worker speaking an older protocol — version 1, the version 6 whose
// workers still announce a supervisor label and read a wanted-slots hint,
// the version 8 whose status carried quorum and health fields, or the
// version 9 that reads a /result reply as an empty ack and would strand the
// lease it carries — is refused at join with 409 before any lease, and the
// campaign still completes on a current worker.
func TestStaleProtocolV1Refused(t *testing.T) {
	jobs := testJobs(t, 1)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{}, jobs)
	cp := waitCampaign(t, c)

	for _, version := range []int{1, 6, 8, 9} {
		body, _ := json.Marshal(joinRequest{Version: version, Worker: "relic"})
		resp, err := http.Post("http://"+c.Addr()+"/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("v%d join got %d, want %d", version, resp.StatusCode, http.StatusConflict)
		}
	}
	if st := cp.status(time.Now()); st.Workers != 0 || st.Leased != 0 {
		t.Fatalf("refused joins left a trace: %d workers, %d leased", st.Workers, st.Leased)
	}

	w := &Worker{Coordinator: c.Addr(), Name: "current"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if oc := <-out; oc.err != nil || oc.metrics.Failed != 0 {
		t.Fatalf("campaign after the refused joins: %+v, %v", oc.metrics, oc.err)
	}
}

// TestVerifyProbeStaleBinary checks the join-time fingerprint handshake: a
// probe whose fingerprint does not recompute identically (the mark of a
// worker binary with a drifted job encoding) is fatal, not retried.
func TestVerifyProbeStaleBinary(t *testing.T) {
	jobs := testJobs(t, 1)
	rep := joinReply{Probe: &jobs[0], ProbeFP: jobs[0].Fingerprint()}
	if err := verifyProbe(rep); err != nil {
		t.Fatalf("matching probe refused: %v", err)
	}
	rep.ProbeFP = "deadbeefdeadbeefdeadbeef"
	err := verifyProbe(rep)
	if err == nil || !isFatal(err) {
		t.Fatalf("stale probe accepted or retryable: %v", err)
	}
}

// TestResultIntegrityRejected posts a tampered result: the coordinator
// must refuse it (400) and leave the job to be completed properly.
func TestResultIntegrityRejected(t *testing.T) {
	jobs := testJobs(t, 1)
	want := localFingerprints(t, jobs)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LeaseTTL: 200 * time.Millisecond, LongPoll: 100 * time.Millisecond}, jobs)
	cp := waitCampaign(t, c)

	// Forge a "successful" result whose run does not hash correctly.
	results, _, err := exp.New(1).Run(jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	wire := exp.EncodeResult(0, cp.fps[0], results[0])
	wire.Run.Cycles += 12345 // tamper after hashing
	body, _ := json.Marshal(resultRequest{Worker: "evil", SetFP: cp.setFP, Result: wire})
	resp, err := http.Post("http://"+c.Addr()+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered result got %d, want 400", resp.StatusCode)
	}

	w := &Worker{Coordinator: c.Addr(), Name: "honest"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)
}

// TestDoneStopsSiblingSlots: the completion handshake is per worker. A
// two-slot worker faces a coordinator that serves exactly one Done reply and
// then is gone — its listener closed, the other lease poll cut off without an
// answer — which is what a coordinator closing behind its finished campaign
// looks like to a slot that was between requests or sleeping out a retry
// backoff. The slot that reads the Done must stop the other one; left to
// itself it retries for the whole RetryWindow and fails the worker with
// "coordinator unreachable".
func TestDoneStopsSiblingSlots(t *testing.T) {
	var served atomic.Bool
	var ts *httptest.Server
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/join":
			reply(w, joinReply{SetFP: "set", LeaseTTLMS: 1000})
		case r.URL.Path == "/lease" && served.CompareAndSwap(false, true):
			ts.Listener.Close()
			reply(w, leaseReply{Done: true})
		case r.URL.Path == "/lease":
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
		default:
			reply(w, ack{})
		}
	}))
	defer ts.Close()

	w := &Worker{Coordinator: ts.URL, Name: "wide", Slots: 2, RetryWindow: 5 * time.Second, Logf: t.Logf}
	start := time.Now()
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker after one Done reply: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("worker took %s to stop after the Done reply; the sibling slot waited out a backoff", elapsed)
	}
}

// TestCloseDeliversInFlightReply: Close lets a reply that a handler is still
// producing reach its client before the connections go. campaign.lease counts
// a worker's Done as served before the adapter has written it, the linger
// returns on that count, and every caller then closes the coordinator — so a
// Close that killed active connections would cut exactly that reply off.
// Here the reply in flight is a held lease poll.
func TestCloseDeliversInFlightReply(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := testJobs(t, 1)
	c, _ := startCampaign(t, ctx, Options{LongPoll: 200 * time.Millisecond}, jobs)
	cp := waitCampaign(t, c)
	for range jobs { // nothing left for the poll below to take
		if rep, _, err := cp.lease(leaseRequest{Worker: "holder", SetFP: cp.setFP}, time.Now()); err != nil || rep.Job == nil {
			t.Fatalf("lease = %+v, %v; want a grant", rep, err)
		}
	}

	type outcome struct {
		rep leaseReply
		err error
	}
	polled := make(chan outcome, 1)
	go func() {
		var oc outcome
		body, _ := json.Marshal(leaseRequest{Worker: "poller", SetFP: cp.setFP, WaitMS: 200})
		resp, err := http.Post("http://"+c.Addr()+"/lease", "application/json", bytes.NewReader(body))
		if err == nil {
			oc.err = json.NewDecoder(resp.Body).Decode(&oc.rep)
			resp.Body.Close()
		} else {
			oc.err = err
		}
		polled <- oc
	}()
	// The poll is inside its handler once the campaign knows the poller.
	deadline := time.Now().Add(10 * time.Second)
	for known := false; !known; {
		cp.mu.Lock()
		_, known = cp.workers["poller"]
		cp.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the lease poll never reached the campaign")
		}
		time.Sleep(time.Millisecond)
	}

	c.Close()
	if oc := <-polled; oc.err != nil || !oc.rep.Wait {
		t.Fatalf("poll in flight across Close = %+v, %v; want its Wait reply", oc.rep, oc.err)
	}
}
