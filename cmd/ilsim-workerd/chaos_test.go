package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

// syncBuffer is a bytes.Buffer safe for the daemon's signal goroutine and
// worker logger to write concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func campaignJobs(t *testing.T, points int) []exp.Job {
	t.Helper()
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	return exp.PairJobs("ArrayBW", 1, pts[:points], core.RunOptions{})
}

// TestWorkerdChaosSmoke runs the daemon with -chaos against an in-process
// coordinator: the campaign must complete despite the injected faults, and
// the daemon must announce the chaos plan and report its fault stats.
func TestWorkerdChaosSmoke(t *testing.T) {
	jobs := campaignJobs(t, 2)
	c := dist.NewCoordinator(dist.Options{Addr: "127.0.0.1:0", LongPoll: 100 * time.Millisecond})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, metrics, err := c.Run(jobs)
		if err == nil && metrics.Failed != 0 {
			t.Errorf("campaign failed jobs under chaos: %+v", metrics)
		}
		done <- err
	}()

	var out bytes.Buffer
	errw := &syncBuffer{} // both slots log through -v
	args := []string{"-connect", c.Addr(), "-j", "2",
		"-chaos", "seed=3,delay=1ms:0.5,dup=0.2", "-v"}
	if err := run(args, &out, errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "campaign complete") {
		t.Fatalf("missing completion line:\n%s", out.String())
	}
	log := errw.String()
	if !strings.Contains(log, "chaos: injecting faults") {
		t.Fatalf("-chaos did not announce the plan:\n%s", log)
	}
	if !strings.Contains(log, "requests:") || !strings.Contains(log, "delayed") {
		t.Fatalf("-chaos produced no fault stats:\n%s", log)
	}
}

// TestWorkerdChaosBadSpec rejects an unparsable -chaos plan before dialing
// anything.
func TestWorkerdChaosBadSpec(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-connect", "127.0.0.1:1", "-chaos", "bogus"}, &out, &errw); err == nil {
		t.Fatal("accepted a malformed -chaos spec")
	}
}

// TestWorkerdDrainOnSignal sends the process SIGTERM mid-campaign: the
// daemon must finish its in-flight job, hand back the unstarted remainder,
// and exit cleanly reporting a drain instead of a completion. A relief
// worker then finishes the campaign, proving the drained jobs were
// released rather than stranded behind the lease TTL.
func TestWorkerdDrainOnSignal(t *testing.T) {
	jobs := campaignJobs(t, 5) // 10 jobs, -j 1: plenty left when the signal lands
	var once sync.Once
	c := dist.NewCoordinator(dist.Options{
		Addr:     "127.0.0.1:0",
		LongPoll: 100 * time.Millisecond,
		LeaseTTL: 60 * time.Second, // only an explicit /release frees jobs in time
		OnProgress: func(p exp.Progress) {
			if p.Done >= 1 {
				once.Do(func() {
					syscall.Kill(os.Getpid(), syscall.SIGTERM)
				})
			}
		},
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, metrics, err := c.Run(jobs)
		if err == nil && metrics.Failed != 0 {
			t.Errorf("campaign failed jobs: %+v", metrics)
		}
		done <- err
	}()

	var out bytes.Buffer
	errw := &syncBuffer{}
	if err := run([]string{"-connect", c.Addr(), "-j", "1", "-v"}, &out, errw); err != nil {
		t.Fatalf("drained run exited non-zero: %v\nstderr: %s", err, errw.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("daemon did not report a drain:\n%s\nstderr: %s", out.String(), errw.String())
	}
	if strings.Contains(out.String(), "campaign complete") {
		t.Fatalf("drained daemon claimed completion:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "draining:") {
		t.Fatalf("no drain announcement on stderr:\n%s", errw.String())
	}

	// The campaign is still open; a relief worker must be able to lease the
	// released jobs immediately (the TTL route would take 60 seconds).
	relief := &dist.Worker{Coordinator: c.Addr(), Name: "relief", Slots: 2}
	reliefDone := make(chan error, 1)
	go func() { reliefDone <- relief.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish: drained jobs were never released")
	}
	if err := <-reliefDone; err != nil {
		t.Fatalf("relief worker: %v", err)
	}
}
