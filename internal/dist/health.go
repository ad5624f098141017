package dist

import (
	"math"
	"time"
)

// healthPolicy tunes the per-worker health ledger. Every suspicious event
// adds its weight to the worker's score; the score decays exponentially
// with HalfLife, and crossing Threshold quarantines the worker — leases
// refused, in-flight jobs re-leased — until Probation elapses, after
// which it is re-admitted carrying half the threshold (one more strike
// while on parole sends it straight back).
//
// The default weights encode severity: an integrity-hash failure or a
// lost quorum vote is direct evidence of wrong results (two of either
// quarantine), a recovered panic is a worker in a bad state, and a lease
// expiry is only weak evidence (slow network, long job) so it takes many.
type healthPolicy struct {
	// Threshold is the score at which a worker is quarantined.
	Threshold float64
	// Probation is how long a quarantine lasts.
	Probation time.Duration
	// HalfLife is the score's exponential-decay half-life: a worker that
	// behaves stops being suspect.
	HalfLife time.Duration
	// Weights per event class.
	WIntegrity float64 // result failed its integrity hash
	WDissent   float64 // lost a quorum vote (result disagreed with majority)
	WExpiry    float64 // let a lease expire
	WPanic     float64 // reported a panic-class failure
}

// defaultHealthPolicy returns the weights described on healthPolicy, the
// policy every campaign runs under (campaign.health). The threshold sits
// just below two serious strikes (2×4), not at it: scores decay
// continuously, so a pair of weight-4 events any time apart sums to
// strictly less than 8 — 7.5 makes "two integrity failures or lost votes
// within a half-life" actually convict.
func defaultHealthPolicy() healthPolicy {
	return healthPolicy{
		Threshold:  7.5,
		Probation:  5 * time.Minute,
		HalfLife:   10 * time.Minute,
		WIntegrity: 4,
		WDissent:   4,
		WExpiry:    1,
		WPanic:     2,
	}
}

// scoreLocked returns the worker's decayed health score as of now,
// updating the stored score in place. Callers hold cp.mu.
func (cp *campaign) scoreLocked(ws *workerState, now time.Time) float64 {
	if ws.score <= 0 {
		ws.scoreAt = now
		return 0
	}
	if dt := now.Sub(ws.scoreAt); dt > 0 && cp.health.HalfLife > 0 {
		ws.score *= math.Exp2(-float64(dt) / float64(cp.health.HalfLife))
		if ws.score < 1e-6 {
			ws.score = 0
		}
	}
	ws.scoreAt = now
	return ws.score
}

// strikeLocked charges one suspicious event against worker's health
// ledger and quarantines it when the decayed score crosses the
// threshold. Quarantining reclaims every lease the worker holds so its
// jobs re-lease immediately. One guard keeps chaos from deadlocking a
// campaign: the last live unquarantined worker is never quarantined — a
// fleet of one suspect still beats a fleet of zero, and the event is
// logged either way. Callers hold cp.mu.
func (cp *campaign) strikeLocked(worker string, weight float64, reason string, now time.Time) {
	ws := cp.workerLocked(worker)
	score := cp.scoreLocked(ws, now) + weight
	ws.score = score
	cp.logf("dist: health: worker %s struck %.1f for %s (score %.1f/%.1f)",
		worker, weight, reason, score, cp.health.Threshold)
	if score < cp.health.Threshold || cp.quarantinedLocked(worker, now) {
		return
	}
	if !cp.otherLiveWorkerLocked(worker, now) {
		cp.logf("dist: health: worker %s over threshold but is the last live worker; not quarantined", worker)
		return
	}
	ws.quarantinedUntil = now.Add(cp.health.Probation)
	ws.quarantines++
	reclaimed := 0
	for _, holders := range cp.leases {
		if _, held := holders[worker]; held {
			delete(holders, worker)
			reclaimed++
		}
	}
	cp.logf("dist: health: worker %s QUARANTINED for %s (score %.1f, %d leases reclaimed)",
		worker, cp.health.Probation, score, reclaimed)
	cp.broadcastLocked()
}

// quarantinedLocked reports whether worker is currently quarantined,
// re-admitting it on parole when its probation has elapsed. Callers hold
// cp.mu.
func (cp *campaign) quarantinedLocked(worker string, now time.Time) bool {
	ws := cp.workers[worker]
	if ws == nil || ws.quarantinedUntil.IsZero() {
		return false
	}
	if now.Before(ws.quarantinedUntil) {
		return true
	}
	// Probation over: re-admit carrying half the threshold, so one more
	// strike within the half-life sends it straight back.
	ws.quarantinedUntil = time.Time{}
	ws.score = cp.health.Threshold / 2
	ws.scoreAt = now
	cp.logf("dist: health: worker %s probation over; re-admitted on parole (score %.1f)", worker, ws.score)
	return false
}

// otherLiveWorkerLocked reports whether any worker besides `except` has
// been seen within the lease TTL and is not quarantined. Callers hold
// cp.mu.
func (cp *campaign) otherLiveWorkerLocked(except string, now time.Time) bool {
	for name, ws := range cp.workers {
		if name == except {
			continue
		}
		if now.Sub(ws.seen) > cp.leaseTTL {
			continue
		}
		if !ws.quarantinedUntil.IsZero() && now.Before(ws.quarantinedUntil) {
			continue
		}
		return true
	}
	return false
}
