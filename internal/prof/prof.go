// Package prof wires Go's runtime profilers into the CLIs: one call starts
// the requested profilers, one deferred call flushes them. Keeping it here
// (instead of per-main flag plumbing) gives every binary the same
// -cpuprofile/-memprofile/-blockprofile/-mutexprofile semantics as `go
// test`.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options names the profile outputs; empty paths disable the corresponding
// profiler.
type Options struct {
	// CPUPath receives a CPU profile from StartOptions until stop.
	CPUPath string
	// MemPath receives a heap profile taken at stop time (after a GC, so
	// it reflects live memory).
	MemPath string
	// BlockPath receives a blocking profile of every event — time
	// goroutines spend parked on channels, locks and WaitGroups. A
	// simulation is one goroutine, so what shows here is the engine's
	// workers waiting for jobs and the distributed plane waiting on the
	// network.
	BlockPath string
	// MutexPath receives a mutex-contention profile of every event (who
	// made others wait), e.g. contention on the engine's progress lock or
	// the coordinator's campaign state.
	MutexPath string
}

// StartOptions begins every profiler opts requests. The returned stop
// function flushes them all and must be called exactly once; it is never
// nil even on error.
func StartOptions(opts Options) (stop func() error, err error) {
	var cpuFile *os.File
	if opts.CPUPath != "" {
		cpuFile, err = os.Create(opts.CPUPath)
		if err != nil {
			return noop, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return noop, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	if opts.BlockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	if opts.MutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close cpu profile: %w", err)
			}
		}
		if opts.MemPath != "" {
			f, err := os.Create(opts.MemPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("prof: write heap profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("prof: close heap profile: %w", err)
			}
		}
		if opts.BlockPath != "" {
			runtime.SetBlockProfileRate(0)
			if err := writeLookup("block", opts.BlockPath); err != nil {
				return err
			}
		}
		if opts.MutexPath != "" {
			runtime.SetMutexProfileFraction(0)
			if err := writeLookup("mutex", opts.MutexPath); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func noop() error { return nil }

// writeLookup flushes one of the runtime's named profiles to path.
func writeLookup(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("prof: runtime profile %q unavailable", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("prof: write %s profile: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("prof: close %s profile: %w", name, err)
	}
	return nil
}
