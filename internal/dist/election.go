package dist

import (
	"errors"
	"fmt"
	"time"

	"ilsim/internal/exp"
)

// result takes one streamed-back result: validates it against the job it
// claims to be, strikes the sender when the payload fails its integrity
// hash, puts a canceled attempt back up for lease, and otherwise casts it as
// a ballot in the job's election.
func (cp *campaign) result(req resultRequest, now time.Time) error {
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
		// An integrity-hash failure is a health event, not just a bad
		// request: the sender shipped a payload it could not have
		// believed in. Strike it and free its lease for re-assignment.
		var ie *exp.IntegrityError
		if errors.As(err, &ie) {
			cp.mu.Lock()
			cp.workerLocked(req.Worker).integrity++
			cp.strikeLocked(req.Worker, cp.health.WIntegrity, fmt.Sprintf("integrity-hash failure on job %d", idx), now)
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
	return cp.vote(idx, res, req.Worker, voteKey(req.Result, res), now)
}

// voteKey derives the ballot a result casts: the run's integrity hash
// for successes (two workers agree iff their runs fingerprint
// byte-identically), the error class for failures (two workers that both
// hit a permanent failure agree on "the job fails", not on its text).
func voteKey(w exp.WireResult, res exp.Result) string {
	if res.Err != nil {
		return "err:" + exp.Classify(res.Err).String()
	}
	return w.RunSHA
}

// vote records one worker's result for job idx as a ballot in that job's
// election and accepts the first ballot to reach a majority of the
// replica count. With replicas == 1 every election is decided by its
// first vote, which reduces exactly to first-result-wins. The journal write
// happens before the job is marked done, so an acknowledged acceptance is
// always durable; a journal failure clears the tally guard and surfaces as
// refuseJournal, and the worker's retry re-enters the tally through the
// duplicate-vote path. Dissenting ballots — cast before or after
// acceptance — are charged against their workers' health ledgers.
func (cp *campaign) vote(idx int, res exp.Result, worker, key string, now time.Time) error {
	cp.mu.Lock()
	if cp.aborted {
		cp.mu.Unlock()
		return nil
	}
	if cp.quarantinedLocked(worker, now) {
		// Acked but not evidence: a quarantined worker's ballots are
		// exactly what the quarantine exists to keep out of elections.
		cp.logf("dist: dropping result for job %d from quarantined worker %s", idx, worker)
		cp.mu.Unlock()
		return nil
	}
	ws := cp.workerLocked(worker)
	ws.seen = now
	prior, dup := cp.votes[idx][worker]
	if dup {
		key = prior // a duplicate delivery cannot switch ballots
	} else {
		if cp.votes[idx] == nil {
			cp.votes[idx] = make(map[string]string)
			cp.ballots[idx] = make(map[string]voteOutcome)
		}
		cp.votes[idx][worker] = key
		if _, ok := cp.ballots[idx][key]; !ok {
			cp.ballots[idx][key] = voteOutcome{res: res, worker: worker}
		}
		delete(cp.leases[idx], worker)
		ws.done++
		ws.ewma = ewma(ws.ewma, res.Wall)
		if res.Err != nil && exp.Classify(res.Err) == exp.ClassPanic {
			cp.strikeLocked(worker, cp.health.WPanic, fmt.Sprintf("panic-class result on job %d", idx), now)
		}
	}
	if cp.state[idx] == stateDone {
		// Late ballot: the election is over, but agreement is still
		// evidence — a straggler disagreeing with the accepted result is
		// as suspect as a dissenting voter.
		if !dup && cp.accepted[idx] != "" && key != cp.accepted[idx] {
			ws.dissents++
			cp.strikeLocked(worker, cp.health.WDissent, fmt.Sprintf("late dissent on job %d", idx), now)
		}
		cp.mu.Unlock()
		return nil
	}
	bestKey, best := cp.tallyLocked(idx)
	if best < cp.replicas/2+1 {
		// Election still open. Wake the long-pollers: a fresh dissenting
		// ballot can raise this job's wanted-lease count.
		cp.broadcastLocked()
		cp.mu.Unlock()
		return nil
	}
	if cp.tallying[idx] {
		// Another request is journaling this election's winner.
		cp.mu.Unlock()
		return nil
	}
	cp.tallying[idx] = true
	winner := cp.ballots[idx][bestKey]
	voters := make(map[string]string, len(cp.votes[idx]))
	for w, k := range cp.votes[idx] {
		voters[w] = k
	}
	cp.mu.Unlock()

	if cp.journal != nil {
		if err := cp.journal.Record(idx, winner.res); err != nil {
			cp.mu.Lock()
			cp.tallying[idx] = false
			cp.mu.Unlock()
			return refusef(refuseJournal, "dist: journal: %v", err)
		}
		if cp.replicas > 1 {
			for w, k := range voters {
				if err := cp.journal.RecordVote(idx, w, k, bestKey); err != nil {
					cp.logf("dist: journal: vote record for job %d: %v", idx, err)
					break
				}
			}
		}
	}

	cp.mu.Lock()
	cp.tallying[idx] = false
	if cp.state[idx] == stateDone || cp.aborted {
		cp.mu.Unlock()
		return nil
	}
	cp.state[idx] = stateDone
	cp.accepted[idx] = bestKey
	delete(cp.leases, idx) // stragglers still running report as late ballots
	r := winner.res
	r.Job = cp.jobs[idx]
	cp.results[idx] = r
	cp.done++
	if r.Err != nil {
		cp.failed++
	}
	cp.jobWall += r.Wall
	for w, k := range voters {
		if k != bestKey {
			cp.workerLocked(w).dissents++
			cp.logf("dist: quorum on job %d: worker %s dissented (%s vs accepted %s)", idx, w, k, bestKey)
			cp.strikeLocked(w, cp.health.WDissent, fmt.Sprintf("lost quorum vote on job %d", idx), now)
		}
	}
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
			Job:      r.Job, Err: r.Err,
			Wall: r.Wall, Elapsed: elapsed,
			ETA:    exp.ProgressETA(done-resumed, done, total, elapsed),
			Worker: winner.worker,
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

// tallyLocked counts job idx's ballots and returns the leading key with
// its vote count. Callers hold cp.mu.
func (cp *campaign) tallyLocked(idx int) (bestKey string, best int) {
	counts := make(map[string]int, len(cp.votes[idx]))
	for _, k := range cp.votes[idx] {
		counts[k]++
		if counts[k] > best {
			bestKey, best = k, counts[k]
		}
	}
	return bestKey, best
}

// wantLeasesLocked returns how many leases job idx should have
// outstanding given its election so far: provision the full replica
// count up front, then keep enough in flight to reach a majority — so a
// split election (every voter a different ballot) extends itself one
// voter at a time until some ballot wins. Callers hold cp.mu.
func (cp *campaign) wantLeasesLocked(idx int) int {
	_, best := cp.tallyLocked(idx)
	return max(cp.replicas-len(cp.votes[idx]), cp.replicas/2+1-best)
}
