package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ilsim/internal/dist"
)

// Supervisor is the reconciliation loop: poll the coordinator's status,
// decide a replica target through the Policy, and drive the Launcher
// until the live fleet matches. It exits nil once the campaign finishes
// and every replica is gone, or with an error when the coordinator stays
// unreachable past the shared give-up policy (dist.StatusTracker).
type Supervisor struct {
	// Coordinator is the coordinator address replicas should join.
	Coordinator string
	// Client is the supervisor's own transport to the coordinator (status
	// polls — the only requests it makes); launchers configure the
	// replicas' transport themselves.
	Client dist.ClientOptions
	// Fleet is the label replicas announce at join and the prefix of
	// generated replica names (default "fleet").
	Fleet string
	// Launcher brings replicas up; required.
	Launcher Launcher
	// Policy bounds the scaling decisions.
	Policy Policy
	// SlotsPerWorker converts the coordinator's WantWorkers slot target
	// into replica counts (default 1). Set it to the -j value the
	// launched workers run with.
	SlotsPerWorker int
	// Poll is the status poll and reconcile interval (default 2s).
	Poll time.Duration
	// DrainGrace bounds how long a replica may take over its drain: one
	// still up this long after it was Stopped is Killed. After the
	// campaign finishes, replicas get the same grace to leave on their own
	// before they are Stopped (default 30s).
	DrainGrace time.Duration
	// BackoffMin and BackoffMax bound the exponential relaunch backoff
	// after a crash (defaults 500ms and 30s).
	BackoffMin, BackoffMax time.Duration
	// BreakerCrashes is the crash-loop breaker: this many consecutive
	// crashes abandon the lineage and lower the fleet's effective Max by
	// one (default 5).
	BreakerCrashes int
	// StatusMaxMisses overrides the tracker's consecutive-failure budget
	// after first contact (default dist.StatusTracker's 5).
	StatusMaxMisses int
	// Logf, when non-nil, receives supervisor lifecycle events.
	Logf func(format string, args ...any)

	mu         sync.Mutex
	replicas   map[string]*replica
	seq        int
	broken     int
	decider    Decider
	status     dist.Status
	haveStatus bool
	target     int
	reason     string
	finished   bool
	finishedAt time.Time
	wake       chan struct{}
	logf       func(format string, args ...any)
}

type replicaState int

const (
	stateRunning replicaState = iota
	stateBackoff
	stateDraining
)

func (st replicaState) String() string {
	switch st {
	case stateRunning:
		return "running"
	case stateBackoff:
		return "backoff"
	default:
		return "draining"
	}
}

// replica is one lineage under supervision: the name survives crashes
// (relaunches rejoin under it), so the coordinator's per-worker history
// and the crash counter both stay coherent.
type replica struct {
	name         string
	seq          int
	state        replicaState
	inst         Instance // nil while waiting out a backoff
	crashes      int      // consecutive; reset by a clean drain, never by time
	backoffUntil time.Time
	drainAt      time.Time // when Stop was called (state is stateDraining)
	killed       bool      // Kill escalation fired
}

// Run reconciles until the campaign completes (nil), the context ends
// (ctx.Err()), or the coordinator is given up on.
func (s *Supervisor) Run(ctx context.Context) error {
	if s.Launcher == nil {
		return errors.New("fleet: supervisor needs a launcher")
	}
	if s.Coordinator == "" {
		return errors.New("fleet: supervisor needs a coordinator address")
	}
	// One client for every status poll: built per poll, TLS options would
	// open a connection each time and strand it idle on both ends.
	client, err := s.Client.Client()
	if err != nil {
		return err
	}
	s.Client.HTTPClient = client
	// Snapshot may run concurrently from the first launch on; defaults
	// and shared state are installed under the same lock it takes.
	s.mu.Lock()
	if s.Fleet == "" {
		s.Fleet = "fleet"
	}
	if s.SlotsPerWorker <= 0 {
		s.SlotsPerWorker = 1
	}
	if s.Poll <= 0 {
		s.Poll = 2 * time.Second
	}
	if s.DrainGrace <= 0 {
		s.DrainGrace = 30 * time.Second
	}
	if s.BackoffMin <= 0 {
		s.BackoffMin = 500 * time.Millisecond
	}
	if s.BackoffMax < s.BackoffMin {
		s.BackoffMax = 30 * time.Second
		if s.BackoffMax < s.BackoffMin {
			s.BackoffMax = s.BackoffMin
		}
	}
	if s.BreakerCrashes <= 0 {
		s.BreakerCrashes = 5
	}
	s.logf = s.Logf
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.replicas = make(map[string]*replica)
	s.wake = make(chan struct{}, 1)
	s.decider = Decider{Policy: s.Policy.withDefaults()}
	s.mu.Unlock()
	tracker := dist.StatusTracker{MaxMisses: s.StatusMaxMisses}

	s.logf("fleet: supervising %q against %s (min %d, max %d, %d slots/worker)",
		s.Fleet, s.Coordinator, s.decider.Policy.Min, s.decider.Policy.Max, s.SlotsPerWorker)

	// Bootstrap: with no status yet the decider clamps to Min, launching
	// the replicas whose observed runtimes will seed the hint.
	s.reconcile(ctx, time.Now())

	ticker := time.NewTicker(s.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			s.killAll("context canceled")
			return ctx.Err()
		case <-s.wake:
		case <-ticker.C:
		}
		now := time.Now()
		if !s.finished {
			st, err := dist.FetchStatus(ctx, s.Coordinator, s.Client)
			if terr := tracker.Observe(err); terr != nil {
				s.killAll(terr.Error())
				return terr
			}
			if err == nil {
				s.mu.Lock()
				s.status, s.haveStatus = st, true
				s.mu.Unlock()
				if st.Finished {
					s.finished, s.finishedAt = true, now
					s.logf("fleet: campaign finished (%d/%d done); winding the fleet down", st.Done, st.Total)
				}
			}
		}
		s.reap(ctx, now)
		if s.finished {
			if s.windDown(now) {
				s.logf("fleet: all replicas gone; supervisor exiting")
				return nil
			}
			continue
		}
		s.reconcile(ctx, now)
	}
}

// poke wakes the run loop without waiting out the poll interval.
func (s *Supervisor) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// watch wakes the loop when an instance exits.
func (s *Supervisor) watch(ctx context.Context, inst Instance) {
	go func() {
		select {
		case <-inst.Done():
			s.poke()
		case <-ctx.Done():
		}
	}()
}

// launch starts a replica for an existing lineage record. Callers hold mu.
func (s *Supervisor) launchLocked(ctx context.Context, r *replica) error {
	inst, err := s.Launcher.Launch(ctx, Spec{Name: r.name, Fleet: s.Fleet, Coordinator: s.Coordinator})
	if err != nil {
		return err
	}
	r.inst, r.state, r.killed = inst, stateRunning, false
	s.watch(ctx, inst)
	return nil
}

// reap folds replica exits back into the ledger: clean drains disappear,
// crashes schedule a backoff relaunch or trip the breaker, expired
// backoffs relaunch, and a drain overdue by DrainGrace is killed.
func (s *Supervisor) reap(ctx context.Context, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, r := range s.replicas {
		if r.inst != nil {
			select {
			case <-r.inst.Done():
				err := r.inst.Err()
				switch {
				case s.finished || r.state == stateDraining:
					if err != nil {
						s.logf("fleet: %s exited while draining: %v", name, err)
					} else {
						s.logf("fleet: %s drained and exited", name)
					}
					delete(s.replicas, name)
					continue
				case err == nil:
					// Workers exit cleanly only when the campaign is over (or
					// after a drain, handled above). On a fast campaign the
					// worker can see completion before our next status poll
					// does — believe it rather than booking a crash, or the
					// relaunch would chase a coordinator that is already gone.
					s.finished, s.finishedAt = true, now
					s.logf("fleet: %s exited cleanly (campaign complete); winding the fleet down", name)
					delete(s.replicas, name)
					continue
				default:
					r.inst = nil
					s.crashLocked(r, now, err)
					if r.crashes >= s.BreakerCrashes {
						continue // breaker deleted the lineage
					}
				}
			default:
			}
		}
		if r.state == stateBackoff && r.inst == nil && !now.Before(r.backoffUntil) {
			if err := s.launchLocked(ctx, r); err != nil {
				s.crashLocked(r, now, err)
			} else {
				s.logf("fleet: %s relaunched after %d crash(es)", name, r.crashes)
			}
			continue
		}
		if r.state == stateDraining && !r.killed && now.Sub(r.drainAt) >= s.DrainGrace {
			s.logf("fleet: %s still up %s after it was stopped; killing it", name, s.DrainGrace)
			r.inst.Kill()
			r.killed = true
		}
	}
}

// stopLocked retires a live replica: Stop is the worker's own loss-free
// drain — in-flight jobs finish and report, /release hands back the rest,
// the replica exits 0 — and reap kills it should it still be up DrainGrace
// from now. Callers hold mu.
func (s *Supervisor) stopLocked(r *replica, now time.Time) {
	r.state, r.drainAt = stateDraining, now
	r.inst.Stop()
}

// crashLocked records one crash (or failed launch) for a lineage:
// exponential backoff up to BackoffMax, and at BreakerCrashes consecutive
// failures the breaker trips — the lineage is abandoned and the fleet's
// effective ceiling drops by one, so a binary that always crashes cannot
// respawn forever while healthy replicas keep the campaign moving.
// Callers hold mu.
func (s *Supervisor) crashLocked(r *replica, now time.Time, err error) {
	r.crashes++
	if r.crashes >= s.BreakerCrashes {
		s.broken++
		delete(s.replicas, r.name)
		s.logf("fleet: %s crashed %d times in a row (%v); breaker tripped, lineage abandoned (effective max now %d)",
			r.name, r.crashes, err, s.effectiveMaxLocked())
		return
	}
	backoff := s.BackoffMin << (r.crashes - 1)
	if backoff > s.BackoffMax || backoff <= 0 {
		backoff = s.BackoffMax
	}
	r.state, r.backoffUntil = stateBackoff, now.Add(backoff)
	s.logf("fleet: %s crashed (%v); relaunch %d/%d in %s", r.name, err, r.crashes+1, s.BreakerCrashes, backoff)
}

// effectiveMaxLocked is the policy ceiling minus tripped breakers; 0 or
// negative Policy.Max means no ceiling and breakers only stop their own
// lineage's relaunches. Callers hold mu.
func (s *Supervisor) effectiveMaxLocked() int {
	if s.Policy.Max <= 0 {
		return 0
	}
	max := s.Policy.Max - s.broken
	if max < 0 {
		max = 0
	}
	return max
}

// reconcile computes the replica target from the latest status and acts
// on the difference: launching fresh lineages to grow, stopping victims
// to shrink.
func (s *Supervisor) reconcile(ctx context.Context, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	current, live := 0, 0
	for _, r := range s.replicas {
		switch r.state {
		case stateRunning:
			current++
			live++
		case stateBackoff:
			current++
		case stateDraining:
			live++
		}
	}
	// Convert the slot hint into replicas, discounting slots we do not
	// manage (manual workers, other fleets): the coordinator's Slots
	// gauge counts the whole live fleet, ours included, so the foreign
	// share is what remains after our live replicas' slots — the running
	// ones and those still draining, which the coordinator keeps counting
	// until their /release goodbye.
	want := current
	if s.haveStatus && s.status.WantWorkers > 0 {
		foreign := s.status.Slots - live*s.SlotsPerWorker
		if foreign < 0 {
			foreign = 0
		}
		need := s.status.WantWorkers - foreign
		want = (need + s.SlotsPerWorker - 1) / s.SlotsPerWorker
		if want < 0 {
			want = 0
		}
	}
	s.decider.Policy = s.Policy.withDefaults()
	s.decider.Policy.Max = s.effectiveMaxLocked()
	target, reason := s.decider.Decide(now, current, want)
	s.target, s.reason = target, reason

	switch {
	case target > current:
		s.logf("fleet: scaling up %d -> %d replicas (hint wants %d)", current, target, want)
		for i := current; i < target; i++ {
			s.seq++
			r := &replica{name: fmt.Sprintf("%s-%d", s.Fleet, s.seq), seq: s.seq}
			if err := s.launchLocked(ctx, r); err != nil {
				s.logf("fleet: %v (retrying next tick)", err)
				break
			}
			s.replicas[r.name] = r
			s.logf("fleet: launched %s", r.name)
		}
	case target < current:
		for _, r := range s.pickVictimsLocked(current - target) {
			if r.state == stateBackoff {
				// Never launched its replacement yet: dropping the
				// lineage is a free scale-down.
				delete(s.replicas, r.name)
				s.logf("fleet: dropped backed-off lineage %s (scale-down)", r.name)
				continue
			}
			s.stopLocked(r, now)
			s.logf("fleet: draining %s (scale-down %d -> %d)", r.name, current, target)
		}
	}
}

// pickVictimsLocked ranks this fleet's lineages by eviction preference —
// backed-off lineages (free), then quarantined workers (the coordinator
// refuses them leases anyway), then idle ones, then the slowest, newest
// first on ties — and returns the n cheapest. Callers hold mu.
func (s *Supervisor) pickVictimsLocked(n int) []*replica {
	byName := make(map[string]dist.WorkerStatus, len(s.status.PerWorker))
	for _, ws := range s.status.PerWorker {
		byName[ws.Name] = ws
	}
	var cands []*replica
	for _, r := range s.replicas {
		if r.state == stateRunning || r.state == stateBackoff {
			cands = append(cands, r)
		}
	}
	class := func(r *replica) int {
		if r.state == stateBackoff {
			return 0
		}
		ws, ok := byName[r.name]
		switch {
		case ok && ws.Quarantined:
			return 1
		case !ok || ws.Held == 0:
			return 2 // idle, or never joined — nothing in flight to move
		default:
			return 3
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		ci, cj := class(cands[i]), class(cands[j])
		if ci != cj {
			return ci < cj
		}
		ti, tj := byName[cands[i].name].Throughput, byName[cands[j].name].Throughput
		if ti != tj {
			return ti < tj
		}
		return cands[i].seq > cands[j].seq
	})
	if n > len(cands) {
		n = len(cands)
	}
	return cands[:n]
}

// windDown runs the post-campaign exit: workers leave on their own once
// the coordinator hands them a Done reply, backed-off lineages are
// dropped, and a straggler still up DrainGrace after the finish is stopped
// like a scale-down victim (reap kills it after as long again). Reports
// whether the fleet is empty.
func (s *Supervisor) windDown(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, r := range s.replicas {
		if r.inst == nil {
			delete(s.replicas, name)
			continue
		}
		if r.state != stateDraining && now.Sub(s.finishedAt) >= s.DrainGrace {
			s.logf("fleet: %s still up %s after the campaign finished; stopping it", name, s.DrainGrace)
			s.stopLocked(r, now)
		}
	}
	return len(s.replicas) == 0
}

// killAll terminates every replica immediately — the abort path for a
// canceled context or an abandoned coordinator — and waits briefly for
// the instances to go down.
func (s *Supervisor) killAll(why string) {
	s.mu.Lock()
	var waits []<-chan struct{}
	for _, r := range s.replicas {
		if r.inst != nil {
			r.inst.Kill()
			waits = append(waits, r.inst.Done())
		}
	}
	s.replicas = make(map[string]*replica)
	s.mu.Unlock()
	if len(waits) > 0 {
		s.logf("fleet: killing %d replica(s): %s", len(waits), why)
	}
	deadline := time.After(5 * time.Second)
	for _, done := range waits {
		select {
		case <-done:
		case <-deadline:
			return
		}
	}
}

// ReplicaStatus is one lineage's row in a Snapshot.
type ReplicaStatus struct {
	Name    string
	State   string
	Crashes int
}

// Snapshot is the supervisor's own status view, for programs embedding it
// (its -v log narrates the same events for people).
type Snapshot struct {
	Fleet     string
	Running   int
	Backoff   int
	Draining  int
	Broken    int
	Target    int
	Reason    string
	WantSlots int
	Replicas  []ReplicaStatus
}

// Snapshot captures the current fleet state; safe to call from any
// goroutine while Run executes.
func (s *Supervisor) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Fleet:     s.Fleet,
		Broken:    s.broken,
		Target:    s.target,
		Reason:    s.reason,
		WantSlots: s.status.WantWorkers,
	}
	for _, r := range s.replicas {
		switch r.state {
		case stateRunning:
			snap.Running++
		case stateBackoff:
			snap.Backoff++
		case stateDraining:
			snap.Draining++
		}
		snap.Replicas = append(snap.Replicas, ReplicaStatus{Name: r.name, State: r.state.String(), Crashes: r.crashes})
	}
	sort.Slice(snap.Replicas, func(i, j int) bool { return snap.Replicas[i].Name < snap.Replicas[j].Name })
	return snap
}
