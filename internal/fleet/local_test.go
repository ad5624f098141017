package fleet

import (
	"context"

	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

// LocalLauncher runs replicas as dist.Worker goroutines inside the test
// process — the suite's fleet-in-a-box, whose Stop is Worker.Drain exactly
// as ExecLauncher's is SIGTERM to ilsim-workerd.
type LocalLauncher struct {
	// Client configures the workers' transport to the coordinator.
	Client dist.ClientOptions
	// Slots is each worker's concurrent execution slots (default 1).
	Slots int
	// NewEngine, when non-nil, supplies each worker's engine; nil lets
	// the worker build its default.
	NewEngine func() *exp.Engine
	// Logf, when non-nil, receives the workers' lifecycle events.
	Logf func(format string, args ...any)
}

// Launch starts one in-process worker. Its lifetime is bounded by ctx
// (the supervisor's run context): cancellation is the Kill path.
func (l *LocalLauncher) Launch(ctx context.Context, spec Spec) (Instance, error) {
	w := &dist.Worker{
		Coordinator: spec.Coordinator,
		Name:        spec.Name,
		Fleet:       spec.Fleet,
		Slots:       l.Slots,
		Client:      l.Client,
		Logf:        l.Logf,
	}
	if l.NewEngine != nil {
		w.Engine = l.NewEngine()
	}
	runCtx, cancel := context.WithCancel(ctx)
	inst := &localInstance{name: spec.Name, worker: w, cancel: cancel, done: make(chan struct{})}
	go func() {
		inst.err = w.Run(runCtx)
		cancel()
		close(inst.done)
	}()
	return inst, nil
}

// localInstance adapts an in-process worker to the Instance interface.
type localInstance struct {
	name   string
	worker *dist.Worker
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

func (i *localInstance) Name() string          { return i.name }
func (i *localInstance) Stop()                 { i.worker.Drain() }
func (i *localInstance) Kill()                 { i.cancel() }
func (i *localInstance) Done() <-chan struct{} { return i.done }
func (i *localInstance) Err() error            { return i.err }
