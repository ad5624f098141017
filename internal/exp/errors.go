package exp

import (
	"context"
	"errors"
	"fmt"

	"ilsim/internal/core"
)

// ErrBudgetExceeded marks a job killed by its cycle budget
// (core.RunOptions.MaxCycles); errors.Is-compatible with the core and timing
// sentinels.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// Class is the engine's error taxonomy. Every job failure classifies into
// exactly one class; the journal records it, the distributed coordinator
// scores workers by it, and the CLIs print it next to each failed job.
type Class int

const (
	// ClassOK is the classification of a nil error.
	ClassOK Class = iota
	// ClassPermanent marks deterministic failures: bad configs, unknown
	// workloads, output-check mismatches. Re-running cannot help.
	ClassPermanent
	// ClassCanceled marks jobs stopped by cancellation: a canceled
	// RunContext, a failed journal write, or ctrl-C.
	ClassCanceled
	// ClassTimeout marks jobs killed by their wall-clock Timeout.
	ClassTimeout
	// ClassBudget marks jobs killed by their cycle budget — the
	// runaway/livelock defense.
	ClassBudget
	// ClassPanic marks jobs whose worker recovered a panic.
	ClassPanic
	// ClassIntegrity marks payloads whose integrity hash does not match
	// their content — corruption on disk or in flight, or a sender whose
	// hashing is broken. Never retried by the receiver against the same
	// payload; the sender re-executes or re-sends instead.
	ClassIntegrity
)

// String names the class for summaries and journal entries.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassPermanent:
		return "permanent"
	case ClassCanceled:
		return "canceled"
	case ClassTimeout:
		return "timeout"
	case ClassBudget:
		return "budget-exceeded"
	case ClassPanic:
		return "panic"
	case ClassIntegrity:
		return "integrity"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classify maps a job error onto the taxonomy.
func Classify(err error) Class {
	if err == nil {
		return ClassOK
	}
	// A deserialized failure carries its original class across the wire.
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Class
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return ClassPanic
	}
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return ClassIntegrity
	}
	if errors.Is(err, ErrBudgetExceeded) {
		return ClassBudget
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTimeout
	}
	if errors.Is(err, ErrCanceled) || errors.Is(err, context.Canceled) {
		return ClassCanceled
	}
	return ClassPermanent
}

// PanicError is a panic recovered inside a worker, converted into an
// ordinary job failure so one crashing job cannot take down the sweep. It
// carries the job label and the goroutine stack at the panic site.
type PanicError struct {
	// Job is the panicking job's String().
	Job string
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in job %s: %v", e.Job, e.Value)
}
