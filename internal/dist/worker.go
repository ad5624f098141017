package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ilsim/internal/exp"
)

// Worker executes leased jobs on a local exp.Engine and streams the
// results back to a coordinator. Every per-job defense the engine has —
// watchdog budgets, panic isolation — applies on the worker exactly as it
// would locally; the coordinator never re-runs a reported failure, it only
// re-leases jobs whose worker went silent.
//
// A lease carries one job; each of the worker's slots leases, executes and
// reports independently, so a crash forfeits only the jobs in flight.
type Worker struct {
	// Coordinator is the coordinator's address (host:port, or a full
	// http(s):// base URL).
	Coordinator string
	// Name identifies this worker in leases and logs; defaults to
	// hostname-pid.
	Name string
	// Slots is the number of jobs leased and executed concurrently
	// (default 1).
	Slots int
	// Engine runs the leased jobs; nil uses a default engine. The
	// engine's Journal must stay nil — durability is the coordinator's
	// job.
	Engine *exp.Engine
	// Client configures transport hardening: the shared auth token and
	// how to trust a TLS coordinator.
	Client ClientOptions
	// RetryWindow bounds how long coordinator outages (connection errors,
	// 503 before a campaign is installed) are retried before the worker
	// gives up; default 2 minutes.
	RetryWindow time.Duration
	// LongPoll asks the coordinator to hold empty lease polls this long
	// (default DefaultLongPoll; the coordinator may cap it).
	LongPoll time.Duration
	// Logf, when non-nil, receives worker lifecycle events.
	Logf func(format string, args ...any)

	client   *http.Client
	base     string
	setFP    string
	leaseTTL time.Duration

	heldMu sync.Mutex
	held   map[int]bool

	drainMu  sync.Mutex
	drainCh  chan struct{}
	draining bool
}

// errStale marks handshake failures that retrying cannot fix: version or
// fingerprint skew between worker and coordinator binaries.
var errStale = errors.New("dist: worker binary is stale")

// errDone is how the slot that reads the coordinator's Done reply ends the
// whole worker: it travels the path a fatal error does, so sibling slots stop
// wherever they are — mid-poll, sleeping out a retry backoff, or executing a
// job whose result no longer matters — and Run says goodbye and returns nil.
var errDone = errors.New("dist: campaign complete")

// Drain asks the worker to stop gracefully: the job currently executing
// in each slot finishes and reports, no further lease is taken, a closing
// POST /release hands back whatever the coordinator still holds in the
// worker's name (a grant that crossed the drain on the wire re-leases at once
// instead of waiting out the TTL), and Run returns nil. Safe to call from any
// goroutine, any number of times, before or during Run.
func (w *Worker) Drain() {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	if !w.draining {
		w.draining = true
		close(w.drainChLocked())
	}
}

// Draining reports whether Drain has been called.
func (w *Worker) Draining() bool {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	return w.draining
}

// drainChan returns the channel closed by Drain.
func (w *Worker) drainChan() <-chan struct{} {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	return w.drainChLocked()
}

// drainChLocked lazily creates the drain channel. Callers hold drainMu.
func (w *Worker) drainChLocked() chan struct{} {
	if w.drainCh == nil {
		w.drainCh = make(chan struct{})
	}
	return w.drainCh
}

// workerSeq disambiguates default worker names within one process.
var workerSeq uint64

// Run joins the coordinator and executes leased jobs until the campaign
// completes or the worker drains (nil, after a closing POST /release), the
// context ends (ctx.Err()), or the coordinator stays unreachable past the
// retry window.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return errors.New("dist: worker needs a coordinator address")
	}
	w.base = w.Client.baseURL(w.Coordinator)
	if w.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		// Names must be unique per coordinator — leases, heartbeats and the
		// completion handshake are all keyed by them — so the default gets a
		// process-wide sequence number in case one process runs several
		// workers (tests, the benchmark).
		w.Name = fmt.Sprintf("%s-%d-w%d", host, os.Getpid(), atomic.AddUint64(&workerSeq, 1))
	}
	if w.Slots <= 0 {
		w.Slots = 1
	}
	if w.Engine == nil {
		w.Engine = exp.New(0)
	}
	if w.RetryWindow <= 0 {
		w.RetryWindow = 2 * time.Minute
	}
	if w.LongPoll <= 0 {
		w.LongPoll = DefaultLongPoll
	}
	if w.Logf == nil {
		w.Logf = func(string, ...any) {}
	}
	client, err := w.Client.Client()
	if err != nil {
		return err
	}
	w.client = client
	w.held = make(map[int]bool)

	if err := w.join(ctx); err != nil {
		return err
	}
	w.Logf("dist: %s joined %s (lease ttl %s)", w.Name, w.base, w.leaseTTL)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go w.heartbeatLoop(runCtx)

	// leaseCtx dies when Drain fires: it cuts short lease long-polls (and
	// their retry backoffs) without interrupting job execution, which
	// keeps running on runCtx until the in-flight work is reported.
	leaseCtx, leaseCancel := context.WithCancel(runCtx)
	defer leaseCancel()
	go func() {
		select {
		case <-w.drainChan():
			leaseCancel()
		case <-leaseCtx.Done():
		}
	}()

	errc := make(chan error, w.Slots)
	for s := 0; s < w.Slots; s++ {
		go func() { errc <- w.slotLoop(runCtx, leaseCtx) }()
	}
	var first error
	for s := 0; s < w.Slots; s++ {
		if err := <-errc; err != nil && first == nil {
			first = err
			cancel() // the campaign ending, or one slot failing fatally, stops the rest
		}
	}
	done := first == errDone
	if done {
		first = nil
	}
	if first == nil && ctx.Err() == nil && (done || w.Draining()) {
		w.release(ctx)
	}
	return first
}

// join performs the handshake, retrying "coordinator not ready" until the
// retry window closes. A version or probe-fingerprint mismatch is fatal
// immediately: the binaries disagree and no amount of retrying helps.
func (w *Worker) join(ctx context.Context) error {
	var rep joinReply
	err := w.postRetry(ctx, "/join", joinRequest{Version: ProtocolVersion, Worker: w.Name, Slots: w.Slots}, &rep)
	if err != nil {
		return err
	}
	if err := verifyProbe(rep); err != nil {
		return err
	}
	w.setFP = rep.SetFP
	w.leaseTTL = time.Duration(rep.LeaseTTLMS) * time.Millisecond
	if w.leaseTTL <= 0 {
		w.leaseTTL = DefaultLeaseTTL
	}
	return nil
}

// verifyProbe recomputes the probe job's fingerprint — the stale-binary
// detector. A worker whose core.ModelVersion or exp.Job encoding (fields,
// config layout, fingerprint format) differs from the coordinator's
// computes a different fingerprint for the same decoded job and is refused
// here, at join time, before it can taint any result.
func verifyProbe(rep joinReply) error {
	if rep.Probe == nil {
		return nil
	}
	if got := rep.Probe.Fingerprint(); got != rep.ProbeFP {
		return fmt.Errorf("%w: probe job fingerprints as %s here, %s on the coordinator", errStale, got, rep.ProbeFP)
	}
	return nil
}

// slotLoop is one concurrent execution slot: lease a job, execute it, and
// run the job the result reply grants next, polling /lease again only for the
// first job and after a Wait — until the coordinator says the campaign is
// done (errDone) or the worker drains (nil). Lease polls run on leaseCtx so
// Drain cuts them short; a grant that arrives after a drain is not run (the
// closing /release hands it back).
func (w *Worker) slotLoop(ctx, leaseCtx context.Context) error {
	var rep leaseReply // the lease in hand
	for ctx.Err() == nil {
		if w.Draining() {
			return nil
		}
		if rep.Job == nil && !rep.Done {
			rep = leaseReply{}
			err := w.postRetry(leaseCtx, "/lease",
				leaseRequest{Worker: w.Name, SetFP: w.setFP, WaitMS: w.LongPoll.Milliseconds()}, &rep)
			if err != nil {
				if ctx.Err() != nil || w.Draining() {
					return nil
				}
				return err
			}
		}
		if rep.Done {
			return errDone
		}
		if rep.Job == nil {
			continue
		}
		next, err := w.runJob(ctx, rep)
		if err != nil {
			return err
		}
		rep = next
	}
	return nil
}

// runJob executes one leased job, streams its result back and returns the
// reply: the slot's next lease (empty when the worker is draining). A
// canceled attempt is abandoned, not reported: the lease expires on the
// coordinator and the job is re-leased to a live worker, exactly as if this
// worker had died.
func (w *Worker) runJob(ctx context.Context, lease leaseReply) (leaseReply, error) {
	idx := lease.Index
	// Re-verify the fingerprint before executing: a drifted job encoding
	// means the whole binary cannot be trusted.
	if got := lease.Job.Fingerprint(); got != lease.JobFP {
		return leaseReply{}, fmt.Errorf("%w: leased job %d fingerprints as %s here, %s on the coordinator", errStale, idx, got, lease.JobFP)
	}
	w.setHeld(idx, true)
	defer w.setHeld(idx, false)
	res := w.execute(ctx, idx, *lease.Job)
	if ctx.Err() != nil || (res.Err != nil && exp.Classify(res.Err) == exp.ClassCanceled) {
		return leaseReply{}, nil
	}
	wire := exp.EncodeResult(idx, lease.JobFP, res)
	var next leaseReply
	req := resultRequest{Worker: w.Name, SetFP: w.setFP, Result: wire, Draining: w.Draining()}
	if err := w.postRetry(ctx, "/result", req, &next); err != nil {
		if ctx.Err() != nil {
			return leaseReply{}, nil
		}
		return leaseReply{}, err
	}
	w.Logf("dist: %s finished job %d (%s)", w.Name, idx, lease.Job)
	return next, nil
}

// release is a departing worker's last word, once every slot has stopped.
// After a drain it hands back every lease the coordinator holds for this
// worker — including one granted to a lease poll the drain had already
// abandoned — at once; after a Done reply it is the acknowledgement the
// coordinator's post-completion linger waits for, sent only once a Done has
// actually been read. Best effort with a short timeout: unheard, the
// coordinator reclaims the leases at TTL expiry and stops lingering at its
// grace.
func (w *Worker) release(ctx context.Context) {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := w.post(rctx, "/release", releaseRequest{Worker: w.Name, SetFP: w.setFP}, &struct{}{}); err != nil {
		w.Logf("dist: %s could not say goodbye (%v); the coordinator times it out", w.Name, err)
	}
}

// setHeld maintains the lease set the heartbeat loop renews.
func (w *Worker) setHeld(idx int, held bool) {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	if held {
		w.held[idx] = true
	} else {
		delete(w.held, idx)
	}
}

// execute runs one leased job through the local engine (a one-job set:
// the engine applies its timeout, fault-injection and panic machinery per
// job anyway, and slots provide the concurrency).
func (w *Worker) execute(ctx context.Context, idx int, job exp.Job) exp.Result {
	results, _, err := w.Engine.RunContext(ctx, []exp.Job{job})
	if err != nil {
		// Only a journal write fails a Run, and a worker's engine has no
		// journal; the job's own error is in its result.
		w.Logf("dist: %s job %d: %v", w.Name, idx, err)
	}
	return results[0]
}

// heartbeatLoop renews held leases at a third of the lease TTL.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	period := w.leaseTTL / 3
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.heldMu.Lock()
			held := make([]int, 0, len(w.held))
			for idx := range w.held {
				held = append(held, idx)
			}
			w.heldMu.Unlock()
			// Best effort: a missed heartbeat only narrows the lease.
			_ = w.post(ctx, "/heartbeat", heartbeatRequest{Worker: w.Name, SetFP: w.setFP, Held: held}, &struct{}{})
		}
	}
}

// httpStatusError is a non-2xx protocol reply.
type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("dist: coordinator replied %d: %s", e.code, strings.TrimSpace(e.msg))
}

// isFatal reports errors retrying cannot fix: handshake conflicts (409),
// rejected credentials (401), certificate-ACL refusals (403), and
// malformed requests (400) — the stale-binary, wrong-token, pinned-CN and
// programming-bug classes.
func isFatal(err error) bool {
	if errors.Is(err, errStale) {
		return true
	}
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.code == http.StatusConflict || he.code == http.StatusBadRequest ||
			he.code == http.StatusUnauthorized || he.code == http.StatusForbidden
	}
	return false
}

// post sends one JSON request and decodes the JSON reply.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	w.Client.authorize(req)
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return &httpStatusError{code: resp.StatusCode, msg: string(msg)}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postRetry wraps post with the worker's outage policy: fatal errors and
// context cancellation return immediately, anything else (connection
// refused mid-restart, 503 while the campaign installs, 5xx hiccups)
// retries with backoff until the retry window closes.
func (w *Worker) postRetry(ctx context.Context, path string, body, out any) error {
	deadline := time.Now().Add(w.RetryWindow)
	backoff := 250 * time.Millisecond
	for {
		err := w.post(ctx, path, body, out)
		if err == nil || ctx.Err() != nil || isFatal(err) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: coordinator %s unreachable for %s: %w", w.base, w.RetryWindow, err)
		}
		w.Logf("dist: %s %s: %v (retrying)", w.Name, path, err)
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// sleepCtx sleeps d or until ctx ends, reporting whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
