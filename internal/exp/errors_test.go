package exp

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// flaggedErr has the `Transient() bool` method older builds treated as a
// retry marker, standing in for callers' own error types; it may wrap an
// inner error.
type flaggedErr struct {
	transient bool
	inner     error
}

func (e *flaggedErr) Error() string   { return "flagged" }
func (e *flaggedErr) Unwrap() error   { return e.inner }
func (e *flaggedErr) Transient() bool { return e.transient }

// TestClassifyWrappedChains pins the taxonomy against realistic error
// chains: every class must survive arbitrary fmt.Errorf("%w") nesting —
// the engine wraps job errors with context before they reach Classify.
func TestClassifyWrappedChains(t *testing.T) {
	panicErr := &PanicError{Job: "job", Value: "boom"}
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassOK},
		{"plain", errors.New("bad config"), ClassPermanent},
		{"wrapped plain", fmt.Errorf("job 3: %w", errors.New("bad config")), ClassPermanent},

		// Panic recovery, bare and buried two wraps deep.
		{"panic", panicErr, ClassPanic},
		{"wrapped panic", fmt.Errorf("worker 2: %w", panicErr), ClassPanic},
		{"double-wrapped panic", fmt.Errorf("sweep: %w", fmt.Errorf("worker 2: %w", panicErr)), ClassPanic},

		// Watchdog timeouts surface as context.DeadlineExceeded, usually
		// wrapped with the job label by the time anyone classifies them.
		{"deadline", context.DeadlineExceeded, ClassTimeout},
		{"wrapped deadline", fmt.Errorf("job timed out: %w", context.DeadlineExceeded), ClassTimeout},
		{"double-wrapped deadline", fmt.Errorf("attempt 2: %w", fmt.Errorf("job timed out: %w", context.DeadlineExceeded)), ClassTimeout},

		// Cancellation: the engine's own sentinel and the context one.
		{"canceled sentinel", fmt.Errorf("shed: %w", ErrCanceled), ClassCanceled},
		{"context canceled", fmt.Errorf("ctrl-c: %w", context.Canceled), ClassCanceled},

		// Budget kills, wrapped the way the timing core reports them.
		{"budget", ErrBudgetExceeded, ClassBudget},
		{"wrapped budget", fmt.Errorf("runaway: %w", ErrBudgetExceeded), ClassBudget},

		// Deserialized failures carry their original class across the wire
		// even when the receiver wraps them again.
		{"remote budget", fmt.Errorf("via worker: %w", &RemoteError{Msg: "x", Class: ClassBudget}), ClassBudget},
		{"remote panic", &RemoteError{Msg: "x", Class: ClassPanic}, ClassPanic},

		// There is no transient class. A failure an older build recorded as
		// "transient" decodes as permanent, and a Transient() bool method is
		// no marker: it neither outranks nor hides the chain it wraps.
		{"transient", &RemoteError{Msg: "transient: flaky", Class: ParseClass("transient")}, ClassPermanent},
		{"remote transient", fmt.Errorf("via worker: %w", &RemoteError{Msg: "x", Class: ParseClass("transient")}), ClassPermanent},
		{"wrapped transient", fmt.Errorf("attempt 1: %w", &flaggedErr{transient: true}), ClassPermanent},
		{"transient over deadline", &flaggedErr{transient: true, inner: context.DeadlineExceeded}, ClassTimeout},
		{"transient over panic", &flaggedErr{transient: true, inner: fmt.Errorf("w: %w", panicErr)}, ClassPanic},
		{"duck-typed transient", &flaggedErr{transient: true}, ClassPermanent},
		{"flag off", &flaggedErr{transient: false}, ClassPermanent},
		{"flag off over deadline", fmt.Errorf("%w: %w", &flaggedErr{transient: false}, context.DeadlineExceeded), ClassTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Errorf("Classify(%v) = %s, want %s", tc.err, got, tc.want)
			}
		})
	}
}
