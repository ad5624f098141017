package dist

import (
	"errors"
	"time"

	"ilsim/internal/exp"
)

// result takes one streamed-back result and answers with the sender's next
// lease (see next).
func (cp *campaign) result(req resultRequest, now time.Time) (leaseReply, error) {
	if err := cp.take(req, now); err != nil {
		return leaseReply{}, err
	}
	return cp.next(req.Worker, req.Draining, now), nil
}

// next is the lease a result reply carries: what a lease poll would answer
// at once (grantLocked), so a slot that gets Wait polls /lease and one that
// gets a job runs it — or nothing for a worker that says it is draining.
func (cp *campaign) next(worker string, draining bool, now time.Time) leaseReply {
	if draining {
		return leaseReply{}
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.grantLocked(worker, now)
}

// take validates a result against the job it claims to be, refuses a payload
// that fails its integrity hash (and frees the sender's lease), puts a
// canceled attempt back up for lease, and otherwise accepts it as the job's
// outcome.
func (cp *campaign) take(req resultRequest, now time.Time) error {
	if err := cp.checkSet(req.SetFP); err != nil {
		return err
	}
	idx := req.Result.Index
	if idx < 0 || idx >= len(cp.jobs) {
		return refusef(refuseMalformed, "dist: result index %d out of range", idx)
	}
	if req.Result.Job != cp.fps[idx] {
		return refusef(refuseStale, "dist: result for job %d carries fingerprint %s, want %s (stale binary?)", idx, req.Result.Job, cp.fps[idx])
	}
	res, err := req.Result.Decode()
	if err != nil {
		// The payload was damaged on the wire, or its sender hashed other
		// bytes than it shipped: free the lease so the job re-leases now
		// rather than at the TTL.
		var ie *exp.IntegrityError
		if errors.As(err, &ie) {
			cp.mu.Lock()
			cp.dropLeaseLocked(idx, req.Worker)
			cp.mu.Unlock()
		}
		return refusef(refuseMalformed, "%v", err)
	}
	// A canceled attempt is not an outcome — the worker died mid-job or
	// declined it; put the job back up for lease.
	if res.Err != nil && exp.Classify(res.Err) == exp.ClassCanceled {
		cp.mu.Lock()
		cp.dropLeaseLocked(idx, req.Worker)
		cp.mu.Unlock()
		return nil
	}
	return cp.accept(idx, res, req.Worker, now)
}

// accept makes worker's result job idx's outcome if it is the job's first.
// A later one — a duplicate delivery, or a straggler whose lease expired and
// went to another worker — is acknowledged and dropped: the simulator is
// deterministic, so it holds the same run. The journal write happens before
// the job is marked done, so an acknowledged acceptance is always durable; a
// journal failure returns the job to pending and surfaces as refuseJournal,
// and the worker retries the delivery.
func (cp *campaign) accept(idx int, res exp.Result, worker string, now time.Time) error {
	cp.mu.Lock()
	if cp.aborted {
		cp.mu.Unlock()
		return nil
	}
	ws := cp.workerLocked(worker)
	ws.seen = now
	if cp.state[idx] != statePending {
		cp.mu.Unlock()
		return nil
	}
	cp.state[idx] = stateRecording
	cp.holder[idx] = ""
	cp.mu.Unlock()

	if cp.journal != nil {
		if err := cp.journal.Record(idx, res); err != nil {
			cp.mu.Lock()
			cp.state[idx] = statePending
			cp.broadcastLocked()
			cp.mu.Unlock()
			return refusef(refuseJournal, "dist: journal: %v", err)
		}
	}

	cp.mu.Lock()
	if cp.aborted {
		cp.mu.Unlock()
		return nil
	}
	cp.state[idx] = stateDone
	res.Job = cp.jobs[idx]
	cp.results[idx] = res
	cp.done++
	if res.Err != nil {
		cp.failed++
	}
	cp.jobWall += res.Wall
	ws.done++
	ws.ewma = ewma(ws.ewma, res.Wall)
	done, failed, resumed := cp.done, cp.failed, cp.resumed
	total := len(cp.jobs)
	elapsed := now.Sub(cp.start)
	cp.broadcastLocked()
	cp.mu.Unlock()

	if cp.onProgress != nil {
		cp.progressMu.Lock()
		cp.onProgress(exp.Progress{
			Done: done, Failed: failed, Total: total,
			Executed: done - resumed,
			Job:      res.Job, Err: res.Err,
			Wall: res.Wall, Elapsed: elapsed,
			ETA:    exp.ProgressETA(done-resumed, done, total, elapsed),
			Worker: worker,
		})
		cp.progressMu.Unlock()
	}
	// The campaign ends only once its last job's progress callback has
	// returned: no Done is served, and RunContext does not return, before.
	if done == total {
		cp.mu.Lock()
		if !cp.finishedNow() {
			close(cp.finished)
			cp.broadcastLocked()
		}
		cp.mu.Unlock()
	}
	return nil
}

// ewma folds one new observation into a runtime average (seeding from the
// first observation).
func ewma(prev, obs time.Duration) time.Duration {
	if prev <= 0 {
		return obs
	}
	return time.Duration(ewmaAlpha*float64(obs) + (1-ewmaAlpha)*float64(prev))
}
