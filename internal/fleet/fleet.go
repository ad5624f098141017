// Package fleet closes the autoscaling loop the coordinator's /status
// hints open: a Supervisor polls dist.FetchStatus, converts the
// WantWorkers slot target into a desired replica count through a
// hysteresis/cooldown Policy, and drives a Launcher to make the live fleet
// match — growing by launching replicas, shrinking by stopping victims
// through the handle their launch returned, so not one leased job is lost.
//
// The pieces compose top-down:
//
//	Supervisor  reconciliation loop: status → Decider → launch/stop/reap
//	Decider     pure policy math (deadband, cooldowns, min/max)
//	Launcher    how replicas come to exist; ExecLauncher (local
//	            ilsim-workerd child processes) is the one in production,
//	            the tests substitute in-process workers and fakes
//
// Scale-down is loss-free and needs nothing from the coordinator:
// Instance.Stop is the worker's own drain (SIGTERM to ilsim-workerd) — the
// in-flight job finishes and reports, POST /release hands back whatever
// else the coordinator holds in its name, the process exits 0 — and the
// supervisor reaps it, or kills it if it is still up DrainGrace later. The
// only request the supervisor itself ever makes is GET /status. Victims
// are chosen to minimize disruption: lineages still waiting out a crash
// backoff go first (free), then quarantined workers, then idle ones, then
// the slowest.
//
// Crashes are survived, crash loops are not: a replica that exits while
// the campaign is still running relaunches under the same name with
// exponential backoff, and BreakerCrashes consecutive crashes abandon the
// lineage — reducing the fleet's effective ceiling so a universally
// broken binary cannot respawn forever while healthy replicas keep the
// campaign moving.
package fleet

import "context"

// Spec describes the replica a Launcher should bring up: the worker name
// it must join under (lineage identity — relaunches reuse it), the fleet
// label it must announce, and the coordinator it should dial.
type Spec struct {
	Name        string
	Fleet       string
	Coordinator string
}

// Instance is one live replica under supervision. Done is closed when
// the replica is gone — process exited, remote command returned, worker
// goroutine finished — after which Err reports how it ended (nil for a
// clean exit).
type Instance interface {
	// Name returns the worker name from the Spec.
	Name() string
	// Stop asks the replica to drain: finish in-flight jobs, report them,
	// hand back the rest, exit cleanly — SIGTERM for an ilsim-workerd child
	// process. It must not block, and is safe to call more than once. This
	// is the supervisor's scale-down.
	Stop()
	// Kill terminates the replica immediately; held leases lapse via
	// their TTL. It must not block, and is safe to call more than once.
	Kill()
	// Done is closed once the replica has fully exited.
	Done() <-chan struct{}
	// Err reports how the replica exited; valid only after Done closes.
	Err() error
}

// Launcher brings replicas into existence. Launch must return promptly
// (start the process or goroutine, don't wait for it to join) so the
// supervisor's loop never stalls behind a slow target.
type Launcher interface {
	Launch(ctx context.Context, spec Spec) (Instance, error)
}
