package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

// TestMain routes helper re-invocations: when the exec launcher spawns
// this test binary as its "ilsim-workerd" (via -worker-bin), the env
// guard turns the process into a real worker instead of the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("ILSIM_FLEETD_TEST_WORKER") == "1" {
		os.Exit(helperWorker())
	}
	os.Exit(m.Run())
}

// helperWorker is a minimal ilsim-workerd stand-in: it honors the flags
// the exec launcher generates (-connect/-name/-fleet/-j, plus the
// pass-throughs) and the SIGTERM drain contract.
func helperWorker() int {
	fs := flag.NewFlagSet("helper-worker", flag.ContinueOnError)
	connect := fs.String("connect", "", "")
	name := fs.String("name", "", "")
	fleetLabel := fs.String("fleet", "", "")
	slots := fs.Int("j", 1, "")
	token := fs.String("token", "", "")
	verbose := fs.Bool("v", false, "")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w := &dist.Worker{Coordinator: *connect, Name: *name, Fleet: *fleetLabel,
		Slots: *slots, Client: dist.ClientOptions{AuthToken: *token}}
	if *verbose {
		w.Logf = log.Printf
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	go func() { <-sigs; w.Drain() }()
	if err := w.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// logBuffer is a writer safe for the daemon's concurrent log streams.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *logBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *logBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startCampaign runs jobs through a loopback coordinator in the
// background and returns it plus the outcome channel.
func startCampaign(t *testing.T, jobs []exp.Job) (*dist.Coordinator, <-chan error) {
	t.Helper()
	c := dist.NewCoordinator(dist.Options{
		Addr:         "127.0.0.1:0",
		LongPoll:     50 * time.Millisecond,
		ScaleHorizon: 200 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	done := make(chan error, 1)
	go func() {
		_, metrics, err := c.Run(jobs)
		if err == nil && metrics.Failed != 0 {
			err = fmt.Errorf("campaign failed jobs: %+v", metrics)
		}
		done <- err
	}()
	return c, done
}

func testJobs(t *testing.T, n int) []exp.Job {
	t.Helper()
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	return exp.PairJobs("ArrayBW", 1, pts[:n], core.RunOptions{})
}

// TestFleetdSmoke drives the daemon end to end with the exec launcher:
// the helper worker binary is this test binary, the supervisor grows the
// fleet, drains the campaign, winds down and exits 0 with the completion
// line.
func TestFleetdSmoke(t *testing.T) {
	t.Setenv("ILSIM_FLEETD_TEST_WORKER", "1")
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c, campDone := startCampaign(t, testJobs(t, 4))

	var out bytes.Buffer
	errw := &logBuffer{}
	runErr := run([]string{"-connect", c.Addr(), "-fleet", "smoke",
		"-min", "1", "-max", "2", "-deadband", "0",
		"-up-cooldown", "20ms", "-down-cooldown", "200ms",
		"-poll", "50ms",
		"-worker-bin", self, "-v"}, &out, errw)
	if runErr != nil {
		t.Fatalf("ilsim-fleetd: %v\nstderr: %s", runErr, errw.String())
	}
	if err := <-campDone; err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !strings.Contains(out.String(), "campaign complete; fleet drained") {
		t.Errorf("missing completion line:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "launched smoke-1") {
		t.Errorf("-v never logged a launch:\n%s", errw.String())
	}
}

// TestFleetdValidation pins the flag-validation refusals.
func TestFleetdValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no-connect", []string{"-max", "2"}},
		{"bad-bounds", []string{"-connect", "x:1", "-min", "4", "-max", "2"}},
		{"missing-worker-bin", []string{"-connect", "x:1", "-worker-bin", "/does/not/exist"}},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		errw := &logBuffer{}
		if err := run(tc.args, &out, errw); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
