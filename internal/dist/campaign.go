package dist

import (
	"fmt"
	"sync"
	"time"

	"ilsim/internal/exp"
)

// The campaign state machine (see the package doc): this file holds the
// type and the lease table, result.go the path a reported result takes to
// acceptance. Neither may import net, net/http or crypto/*.

// refusalKind classifies a protocol refusal; the HTTP adapter maps it to a
// status code and the worker's isFatal maps that back to retry-or-give-up.
type refusalKind int

const (
	// refuseMalformed: the request can never succeed as sent — empty worker
	// name, out-of-range index, payload failing its integrity hash (400).
	refuseMalformed refusalKind = iota
	// refuseStale: version, job-set or job fingerprint skew between the
	// two binaries (409).
	refuseStale
	// refuseJournal: an accepted result could not be made durable; the
	// worker should retry the delivery (500).
	refuseJournal
	// refuseNotReady: no campaign is installed yet; retry (503).
	refuseNotReady
)

// refusal is the typed error campaign methods return.
type refusal struct {
	kind refusalKind
	msg  string
}

func (e *refusal) Error() string { return e.msg }

func refusef(kind refusalKind, format string, args ...any) error {
	return &refusal{kind: kind, msg: fmt.Sprintf(format, args...)}
}

// errNoCampaign is served while no campaign is installed; workers treat it
// as "not yet" and retry.
var errNoCampaign = &refusal{refuseNotReady, "dist: no active campaign"}

// validateJoin is the part of the handshake that needs no campaign: a stale
// binary (or a nameless worker) is refused fatally even while the
// coordinator is still installing its job set, instead of being told 503 and
// retrying for its whole outage window.
func validateJoin(req joinRequest) error {
	if req.Version != ProtocolVersion {
		return refusef(refuseStale, "dist: protocol version %d, coordinator speaks %d (stale binary?)", req.Version, ProtocolVersion)
	}
	if req.Worker == "" {
		return refusef(refuseMalformed, "dist: join without a worker name")
	}
	return nil
}

// ewmaAlpha weights the newest observation in the per-worker runtime
// average the status table runs on: high enough to track a workload change
// within a few jobs, low enough that one outlier cannot swing the estimate.
const ewmaAlpha = 0.3

// workerState is everything the coordinator tracks per worker: liveness,
// the completion handshake and the runtime estimate behind the status
// table's throughput column.
type workerState struct {
	seen time.Time
	// slots is the worker's declared lease-poll concurrency. released
	// records the worker's /release goodbye — it drained, or it read a Done
	// reply: it takes no further lease, and the post-completion linger,
	// which waits for every live worker's goodbye, is through with it.
	slots    int
	released bool
	// done counts results reported by this worker; ewma tracks its
	// observed per-job runtime.
	done int
	ewma time.Duration
	// cn is the CommonName of the worker's client certificate under
	// mutual TLS.
	cn string
}

// campaign is the lease table and result store of one job set. A lease
// covers one job and a job has at most one lease: holder[idx] is the worker
// holding job idx ("" for none) and deadline[idx] the time it lapses
// without a heartbeat. The first valid result for a job is accepted.
type campaign struct {
	mu       sync.Mutex
	jobs     []exp.Job
	fps      []string
	setFP    string
	results  []exp.Result
	state    []jobState
	holder   []string
	deadline []time.Time
	workers  map[string]*workerState

	done, resumed, failed int
	jobWall               time.Duration
	start                 time.Time
	aborted               bool
	// changed is closed and replaced on every state transition a lease
	// long-poller could care about; finished closes once when every job is
	// terminal (or the campaign aborts).
	changed  chan struct{}
	finished chan struct{}

	journal    *exp.Journal
	onProgress func(exp.Progress)
	progressMu sync.Mutex
	leaseTTL   time.Duration
	logf       func(string, ...any)
}

type jobState uint8

const (
	statePending jobState = iota
	// stateRecording: the job's first result is being journaled, with cp.mu
	// released. No lease is granted for it and no second result is taken,
	// so a job is journaled once.
	stateRecording
	stateDone
)

// newCampaign builds the state machine for jobs, started at now.
func newCampaign(jobs []exp.Job, opts Options, now time.Time) *campaign {
	opts = opts.withDefaults()
	cp := &campaign{
		jobs:       jobs,
		fps:        make([]string, len(jobs)),
		setFP:      exp.JobSetFingerprint(jobs),
		results:    make([]exp.Result, len(jobs)),
		state:      make([]jobState, len(jobs)),
		holder:     make([]string, len(jobs)),
		deadline:   make([]time.Time, len(jobs)),
		workers:    make(map[string]*workerState),
		start:      now,
		changed:    make(chan struct{}),
		finished:   make(chan struct{}),
		journal:    opts.Journal,
		onProgress: opts.OnProgress,
		leaseTTL:   opts.LeaseTTL,
		logf:       opts.Logf,
	}
	for i, job := range jobs {
		cp.fps[i] = job.Fingerprint()
		cp.results[i].Job = job
	}
	return cp
}

// restore pre-marks job idx done with a result a journal already holds, so
// it is never leased.
func (cp *campaign) restore(idx int, r exp.Result) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.results[idx].Run, cp.results[idx].Wall, cp.results[idx].Resumed = r.Run, r.Wall, true
	cp.state[idx] = stateDone
	cp.done++
	cp.resumed++
	if cp.done == len(cp.jobs) && !cp.finishedNow() {
		close(cp.finished)
	}
}

// workerLocked returns (creating if needed) the named worker's state.
// Callers hold cp.mu.
func (cp *campaign) workerLocked(name string) *workerState {
	ws := cp.workers[name]
	if ws == nil {
		ws = &workerState{}
		cp.workers[name] = ws
	}
	return ws
}

// broadcastLocked wakes every lease long-poller. Callers hold cp.mu.
func (cp *campaign) broadcastLocked() {
	close(cp.changed)
	cp.changed = make(chan struct{})
}

// finishedNow reports whether the campaign has ended (all terminal or
// aborted).
func (cp *campaign) finishedNow() bool {
	select {
	case <-cp.finished:
		return true
	default:
		return false
	}
}

// checkSet refuses a request addressed to a different job set.
func (cp *campaign) checkSet(setFP string) error {
	if setFP != cp.setFP {
		return refusef(refuseStale, "dist: job-set fingerprint %s does not match campaign %s", setFP, cp.setFP)
	}
	return nil
}

// join registers (or refreshes) a worker that passed validateJoin and
// fixes the campaign identity for its session. cn is the verified
// client-certificate CommonName, "" without mutual TLS. A name that drained
// earlier and joins again is live again.
func (cp *campaign) join(req joinRequest, cn string, now time.Time) joinReply {
	cp.mu.Lock()
	ws := cp.workerLocked(req.Worker)
	ws.seen, ws.slots, ws.cn, ws.released = now, max(1, req.Slots), cn, false
	nWorkers := len(cp.workers)
	cp.mu.Unlock()
	if cn != "" {
		cp.logf("dist: worker %s joined with client cert CN %q (%d known)", req.Worker, cn, nWorkers)
	} else {
		cp.logf("dist: worker %s joined (%d known)", req.Worker, nWorkers)
	}
	rep := joinReply{SetFP: cp.setFP, Total: len(cp.jobs), LeaseTTLMS: cp.leaseTTL.Milliseconds()}
	if len(cp.jobs) > 0 {
		rep.Probe, rep.ProbeFP = &cp.jobs[0], cp.fps[0]
	}
	return rep
}

// lease answers one lease poll at now. A nil wait channel means the reply
// is final (a grant or Done); otherwise nothing is available to this
// worker yet and the channel closes at the next state change worth
// re-asking after — the adapter's long-poll loop. A stray poll of a worker
// that already said goodbye keeps waiting and is never granted a lease.
func (cp *campaign) lease(req leaseRequest, now time.Time) (leaseReply, <-chan struct{}, error) {
	if err := cp.checkSet(req.SetFP); err != nil {
		return leaseReply{}, nil, err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	rep := cp.grantLocked(req.Worker, now)
	if rep.Wait {
		return rep, cp.changed, nil
	}
	return rep, nil, nil
}

// grantLocked is the lease poll's answer at now, without waiting: Done once
// the campaign has ended, else the lowest pending job, else Wait — always
// Wait for a worker that said goodbye. It is also the next lease a result
// reply carries. Callers hold cp.mu.
func (cp *campaign) grantLocked(worker string, now time.Time) leaseReply {
	if cp.finishedNow() {
		return leaseReply{Done: true}
	}
	cp.reclaimLocked(now)
	ws := cp.workerLocked(worker)
	ws.seen = now
	if !ws.released {
		if idx, ok := cp.takeLocked(worker, now); ok {
			job := cp.jobs[idx]
			return leaseReply{Index: idx, Job: &job, JobFP: cp.fps[idx]}
		}
	}
	return leaseReply{Wait: true}
}

// reclaim returns every expired lease to the pending pool.
func (cp *campaign) reclaim(now time.Time) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.reclaimLocked(now)
}

// reclaimLocked returns every expired lease to the pending pool. Callers
// hold cp.mu.
func (cp *campaign) reclaimLocked(now time.Time) {
	woke := false
	for idx, worker := range cp.holder {
		if worker == "" || now.Before(cp.deadline[idx]) {
			continue
		}
		cp.holder[idx] = ""
		woke = true
		cp.logf("dist: lease on job %d (%s) held by %s expired; reassigning", idx, cp.jobs[idx], worker)
	}
	if woke {
		cp.broadcastLocked()
	}
}

// takeLocked leases the lowest pending, unheld job to worker. Callers hold
// cp.mu.
func (cp *campaign) takeLocked(worker string, now time.Time) (int, bool) {
	for idx, st := range cp.state {
		if st == statePending && cp.holder[idx] == "" {
			cp.holder[idx], cp.deadline[idx] = worker, now.Add(cp.leaseTTL)
			return idx, true
		}
	}
	return 0, false
}

// heartbeat extends the deadlines of held leases (only those the worker
// actually owns) and refreshes the worker's last-seen time.
func (cp *campaign) heartbeat(req heartbeatRequest, now time.Time) error {
	if err := cp.checkSet(req.SetFP); err != nil {
		return err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.workerLocked(req.Worker).seen = now
	for _, idx := range req.Held {
		if idx >= 0 && idx < len(cp.holder) && cp.holder[idx] == req.Worker {
			cp.deadline[idx] = now.Add(cp.leaseTTL)
		}
	}
	return nil
}

// dropLeaseLocked returns worker's lease on job idx (if it holds one) to
// the pending pool. Callers hold cp.mu.
func (cp *campaign) dropLeaseLocked(idx int, worker string) {
	if cp.holder[idx] == worker {
		cp.holder[idx] = ""
		cp.broadcastLocked()
	}
}

// release is a departing worker's goodbye, after a drain or after reading
// a Done reply: every lease the coordinator holds in its name goes back to
// the pending pool at once instead of after the TTL — including a grant the
// worker never saw, because its reply was in flight when the drain cut the
// lease poll short. The worker is marked released so status shows it
// draining and drops its slots, the linger is through with it, and a lease
// poll of its still unwinding is not granted.
func (cp *campaign) release(req releaseRequest) error {
	if err := cp.checkSet(req.SetFP); err != nil {
		return err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.workerLocked(req.Worker).released = true
	released := 0
	for idx, worker := range cp.holder {
		if worker == req.Worker {
			cp.holder[idx] = ""
			released++
		}
	}
	cp.broadcastLocked() // pending jobs for the pollers, a goodbye for the linger
	if released > 0 {
		cp.logf("dist: worker %s released %d leases", req.Worker, released)
	}
	return nil
}

// abort ends the campaign early; unfinished jobs become ErrCanceled.
func (cp *campaign) abort() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.finishedNow() {
		return
	}
	cp.aborted = true
	for i := range cp.state {
		if cp.state[i] != stateDone {
			cp.results[i].Err = exp.ErrCanceled
			cp.failed++
		}
	}
	close(cp.finished)
	cp.broadcastLocked()
}

// assemble returns the submission-ordered results and campaign metrics.
func (cp *campaign) assemble(now time.Time) ([]exp.Result, exp.Metrics) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.results, exp.Metrics{
		Jobs: len(cp.jobs), Failed: cp.failed, Resumed: cp.resumed,
		Elapsed: now.Sub(cp.start), JobWall: cp.jobWall,
	}
}

// allAcked reports whether every worker worth waiting for — seen within
// the last lease TTL — has said goodbye, plus the channel that closes at
// the next change. The post-completion linger's condition: a Done reply
// merely served proves nothing (it may die on the wire, and then the worker
// polls again), the /release a worker sends after reading one does.
func (cp *campaign) allAcked(now time.Time) (bool, <-chan struct{}) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, ws := range cp.workers {
		if now.Sub(ws.seen) <= cp.leaseTTL && !ws.released {
			return false, cp.changed
		}
	}
	return true, cp.changed
}

// status assembles the Status snapshot.
func (cp *campaign) status(now time.Time) Status {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	s := Status{
		SetFP: cp.setFP, Total: len(cp.jobs),
		Done: cp.done, Failed: cp.failed, Resumed: cp.resumed,
		Workers:  len(cp.workers),
		Finished: cp.finishedNow(),
	}
	held := make(map[string]int, len(cp.workers))
	// active is the lowest-indexed job each worker holds.
	active := make(map[string]int, len(cp.workers))
	for idx, st := range cp.state {
		w := cp.holder[idx]
		switch {
		case st == stateDone:
		case st == statePending && w == "":
			s.Pending++
		default: // held, or its result is being journaled
			s.Leased++
		}
		if w != "" {
			held[w]++
			if _, ok := active[w]; !ok {
				active[w] = idx
			}
		}
	}
	for name, ws := range cp.workers {
		if ws.released {
			s.Draining++
		} else if now.Sub(ws.seen) <= cp.leaseTTL {
			s.Slots += ws.slots
		}
		row := WorkerStatus{
			Name: name, Slots: ws.slots, Held: held[name],
			Done: ws.done, EWMAMS: ws.ewma.Milliseconds(),
			CN:       ws.cn,
			Draining: ws.released,
		}
		if ws.ewma > 0 {
			row.Throughput = float64(time.Second) / float64(ws.ewma)
		}
		if idx, ok := active[name]; ok {
			row.Job = cp.jobs[idx].String()
		}
		s.PerWorker = append(s.PerWorker, row)
	}
	s.ETAMS = exp.ProgressETA(cp.done-cp.resumed, cp.done, len(cp.jobs), now.Sub(cp.start)).Milliseconds()
	return s
}
