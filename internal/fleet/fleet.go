// Package fleet closes the autoscaling loop the coordinator's /status
// hints open: a Supervisor polls dist.FetchStatus, converts the
// WantWorkers slot target into a desired replica count through a
// hysteresis/cooldown Policy, and drives a pluggable Launcher to make the
// live fleet match — growing by launching replicas, shrinking by asking
// the coordinator to drain victims so not one leased job is lost.
//
// The pieces compose top-down:
//
//	Supervisor  reconciliation loop: status → Decider → launch/drain/reap
//	Decider     pure policy math (deadband, cooldowns, min/max)
//	Launcher    how replicas come to exist — two implementations:
//	  ExecLauncher   local ilsim-workerd child processes
//	  LocalLauncher  in-process dist.Worker goroutines (-fleet N)
//
// Scale-down is coordinator-mediated and loss-free: the supervisor POSTs
// /drain for each victim, the coordinator flags the worker's next lease
// poll or heartbeat, the worker finishes its in-flight job, says goodbye
// via POST /release, and exits its run loop — only then does the supervisor reap the process. Victims are chosen to
// minimize disruption: lineages still waiting out a crash backoff go
// first (free), then quarantined workers, then idle ones, then the
// slowest.
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
	// Stop asks the replica to shut down gracefully: SIGTERM for a child
	// process (ilsim-workerd's drain signal), Worker.Drain in-process. Safe to call more
	// than once. The supervisor uses this as the fallback when a
	// coordinator-mediated drain goes unanswered.
	Stop()
	// Kill terminates the replica immediately; held leases lapse via
	// their TTL. Safe to call more than once.
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
