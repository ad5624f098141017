package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

// TestWorkerdSmoke points the daemon's run() at an in-process coordinator
// and asserts it drains the campaign and exits cleanly.
func TestWorkerdSmoke(t *testing.T) {
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	jobs := exp.PairJobs("ArrayBW", 1, pts[:1], core.RunOptions{})

	c := dist.NewCoordinator(dist.Options{Addr: "127.0.0.1:0", LongPoll: 100 * time.Millisecond})
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
	errw := &syncBuffer{} // both slots log through -v
	if err := run([]string{"-connect", c.Addr(), "-j", "2", "-v"}, &out, errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "campaign complete") {
		t.Fatalf("missing completion line:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "joined") {
		t.Fatalf("-v produced no lifecycle log:\n%s", errw.String())
	}
}

// TestWorkerdRequiresConnect asserts the daemon refuses to start without a
// coordinator address.
func TestWorkerdRequiresConnect(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(nil, &out, &errw); err == nil {
		t.Fatal("started without -connect")
	}
}

// TestWorkerdRetriesFlagGone: a job runs once, so there is no -retries.
func TestWorkerdRetriesFlagGone(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-connect", "127.0.0.1:1", "-retries", "2"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -retries") {
		t.Fatalf("-retries: err %v", err)
	}
}

// TestWorkerdNegativeFlags: a negative slot count or retry window is an
// error before the worker dials; 0 keeps its documented meaning. The CA
// file does not exist, so a run that got past the flag checks fails
// building its client, before any connection.
func TestWorkerdNegativeFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{{"-j", "-1"}, {"-window", "-1s"}} {
		var out, errw bytes.Buffer
		err := run([]string{"-connect", "127.0.0.1:1", "-tls-ca", t.TempDir() + "/missing.pem",
			c.flag, c.value}, &out, &errw)
		if want := c.flag + " " + c.value + " is negative"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s: err = %v, want %q", c.flag, c.value, err, want)
		}
	}
}

// TestWorkerdUnreachableCoordinator bounds the give-up time with -window.
func TestWorkerdUnreachableCoordinator(t *testing.T) {
	var out, errw bytes.Buffer
	start := time.Now()
	err := run([]string{"-connect", "127.0.0.1:1", "-window", "300ms"}, &out, &errw)
	if err == nil {
		t.Fatal("connected to nothing")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("gave up after %s despite -window 300ms", time.Since(start))
	}
}
