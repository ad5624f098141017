package exp

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Fault is one injected misbehavior, applied at the start of every matching
// job execution (inside the worker's panic-recovery scope, under the job's
// timeout context — exactly where a real failure would land).
type Fault struct {
	// Delay sleeps before the job body; the job's context cuts it short.
	Delay time.Duration
	// Panic, when non-nil, panics with this value.
	Panic any
	// Err, when non-nil, fails the job with this error.
	Err error
	// Hang blocks until the job's context ends and returns its cause — a
	// stand-in for a livelocked simulation that only a watchdog can stop.
	Hang bool
}

// FaultPlan schedules deterministic per-job faults on an engine — the test
// instrumentation behind the fault-tolerance suite. Faults are keyed by
// Job.String(); jobs without an entry run untouched. A plan is safe for
// concurrent use.
type FaultPlan struct {
	mu     sync.Mutex
	faults map[string]Fault
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{faults: make(map[string]Fault)}
}

// Set schedules f for every job whose String() equals key, replacing any
// earlier schedule for that key.
func (p *FaultPlan) Set(key string, f Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[key] = f
}

// apply runs the fault scheduled for job (if any). It returns the injected
// error, panics with the injected value, or returns nil to let the job body
// run.
func (p *FaultPlan) apply(ctx context.Context, job Job) error {
	p.mu.Lock()
	f, ok := p.faults[job.String()]
	p.mu.Unlock()
	if !ok {
		return nil
	}
	if f.Delay > 0 && !sleepContext(ctx, f.Delay) {
		return fmt.Errorf("exp: fault delay interrupted: %w", context.Cause(ctx))
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	if f.Err != nil {
		return f.Err
	}
	if f.Hang {
		<-ctx.Done()
		return fmt.Errorf("exp: fault hang interrupted: %w", context.Cause(ctx))
	}
	return nil
}

// sleepContext sleeps for d or until ctx ends, reporting whether the full
// sleep completed.
func sleepContext(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
