package fleet

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"syscall"
)

// ExecLauncher runs replicas as local child processes — normally
// `ilsim-workerd -connect <coord> -name <replica> -fleet <label>` plus
// whatever hardening flags (-token, -tls-*, -chaos, -j) the daemon
// inherited from its own command line.
type ExecLauncher struct {
	// Path is the worker binary to spawn.
	Path string
	// Args are appended after the generated -connect/-name/-fleet flags,
	// carrying the inherited transport and engine flags verbatim.
	Args []string
	// Stdout and Stderr receive the child's output streams; nil discards.
	Stdout, Stderr io.Writer
}

// Launch starts one worker process. The child is placed in its own
// process group so Stop and Kill signal the worker without touching the
// supervisor.
func (l *ExecLauncher) Launch(ctx context.Context, spec Spec) (Instance, error) {
	args := append([]string{"-connect", spec.Coordinator, "-name", spec.Name, "-fleet", spec.Fleet}, l.Args...)
	cmd := exec.Command(l.Path, args...)
	cmd.Stdout = l.Stdout
	cmd.Stderr = l.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: launch %s: %w", spec.Name, err)
	}
	inst := &procInstance{
		name: spec.Name,
		done: make(chan struct{}),
		// ilsim-workerd's signal contract: the first SIGTERM drains
		// (finish in-flight, release the rest, exit 0), a second aborts.
		stop: func() { _ = cmd.Process.Signal(syscall.SIGTERM) },
		kill: func() { _ = cmd.Process.Kill() },
	}
	go func() {
		inst.err = cmd.Wait()
		close(inst.done)
	}()
	return inst, nil
}

// procInstance adapts a started worker child to the Instance interface.
type procInstance struct {
	name string
	done chan struct{}
	err  error
	stop func()
	kill func()

	once sync.Once // Stop fires its action at most once
}

func (p *procInstance) Name() string { return p.name }

func (p *procInstance) Stop() {
	p.once.Do(func() {
		select {
		case <-p.done:
		default:
			p.stop()
		}
	})
}

func (p *procInstance) Kill() {
	select {
	case <-p.done:
	default:
		p.kill()
	}
}

func (p *procInstance) Done() <-chan struct{} { return p.done }
func (p *procInstance) Err() error            { return p.err }
