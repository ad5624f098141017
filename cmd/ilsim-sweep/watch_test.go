package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

// startServe launches a -serve sweep in a goroutine and returns the bound
// coordinator address scraped from its stderr.
func startServe(t *testing.T, args []string, out *bytes.Buffer, errw *syncBuffer) (addr string, done chan error) {
	t.Helper()
	done = make(chan error, 1)
	go func() { done <- run(args, out, errw) }()
	addrRe := regexp.MustCompile(`-connect (127\.0\.0\.1:\d+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(errw.String()); m != nil {
			return m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("coordinator exited early: %v\nstderr: %s", err, errw.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no coordinator address in stderr:\n%s", errw.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSweepWatchAndToken drives the hardened CLI path end to end: a
// coordinator started with -token, a -watch snapshot that must
// authenticate and must carry the autoscaling fields, and a worker that
// needs the token to drain the campaign.
func TestSweepWatchAndToken(t *testing.T) {
	sweep := []string{"-param", "banks", "-workload", "ArrayBW", "-points", "2",
		"-serve", "127.0.0.1:0", "-token", "s3cret"}
	var serveOut bytes.Buffer
	serveErr := &syncBuffer{}
	addr, serveDone := startServe(t, sweep, &serveOut, serveErr)

	// No workers yet: the snapshot shows the whole queue pending. The
	// status endpoint answers 503 for the instant between the listener
	// binding and the campaign installing, so retry briefly.
	var watchOut, watchErr bytes.Buffer
	deadline := time.Now().Add(10 * time.Second)
	for {
		watchOut.Reset()
		watchErr.Reset()
		err := run([]string{"-watch", addr, "-token", "s3cret"}, &watchOut, &watchErr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch: %v\nstderr: %s", err, watchErr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, wantSub := range []string{"0/4 done", "4 pending", "0 workers"} {
		if !strings.Contains(watchOut.String(), wantSub) {
			t.Errorf("watch output missing %q:\n%s", wantSub, watchOut.String())
		}
	}

	// The wrong token watches nothing.
	var badOut, badErr bytes.Buffer
	if err := run([]string{"-watch", addr, "-token", "nope"}, &badOut, &badErr); err == nil {
		t.Fatal("wrong-token -watch succeeded")
	}

	wait := runWorkers(t, addr, 1, dist.ClientOptions{AuthToken: "s3cret"})
	if err := <-serveDone; err != nil {
		t.Fatalf("serve run: %v\nstderr: %s", err, serveErr.String())
	}
	wait()
	if !strings.Contains(serveOut.String(), "sweep banks") {
		t.Fatalf("coordinator produced no sweep table:\n%s", serveOut.String())
	}
}

// TestSweepServeReplicas drives the quorum flag end to end: with
// -replicas 2 every job needs matching ballots from two distinct workers
// before it is accepted, so the campaign only completes once both
// workers have executed the whole job set — and the sweep table still
// prints normally.
func TestSweepServeReplicas(t *testing.T) {
	sweep := []string{"-param", "banks", "-workload", "ArrayBW", "-points", "2",
		"-serve", "127.0.0.1:0", "-replicas", "2"}
	var serveOut bytes.Buffer
	serveErr := &syncBuffer{}
	addr, serveDone := startServe(t, sweep, &serveOut, serveErr)

	wait := runWorkers(t, addr, 2, dist.ClientOptions{})
	if err := <-serveDone; err != nil {
		t.Fatalf("serve run: %v\nstderr: %s", err, serveErr.String())
	}
	wait()
	if !strings.Contains(serveOut.String(), "sweep banks") {
		t.Fatalf("coordinator produced no sweep table:\n%s", serveOut.String())
	}
}

// TestSweepWatchInterval drives -watch -interval against an in-process
// coordinator: the loop redraws until the status reports the campaign
// finished, then exits nil on its own. The sink is a plain buffer, not a
// TTY, so frames must append without ANSI clear sequences.
func TestSweepWatchInterval(t *testing.T) {
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	jobs := exp.PairJobs("ArrayBW", 1, pts[:2], core.RunOptions{})

	c := dist.NewCoordinator(dist.Options{Addr: "127.0.0.1:0", LongPoll: 50 * time.Millisecond})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Closed at the end, not deferred into the race: the finished campaign
	// stays queryable until then, so the watch loop always gets to observe
	// the terminal status.
	campDone := make(chan error, 1)
	go func() {
		_, _, err := c.Run(jobs)
		campDone <- err
	}()
	w := &dist.Worker{Coordinator: c.Addr(), Name: "watched", Slots: 1}
	wDone := make(chan error, 1)
	go func() { wDone <- w.Run(context.Background()) }()

	var out, errw bytes.Buffer
	if err := run([]string{"-watch", c.Addr(), "-interval", "2ms"}, &out, &errw); err != nil {
		t.Fatalf("interval watch: %v\noutput: %s", err, out.String())
	}
	if err := <-wDone; err != nil {
		t.Fatal(err)
	}
	if err := <-campDone; err != nil {
		t.Fatal(err)
	}
	c.Close()

	frames := out.String()
	if !strings.Contains(frames, "4/4 done") {
		t.Fatalf("watch exited without a finished frame:\n%s", frames)
	}
	if strings.Contains(frames, "\x1b[") {
		t.Fatalf("ANSI escape written to a non-TTY sink:\n%q", frames)
	}
}

// TestSweepWatchExclusive rejects -watch combined with -serve.
func TestSweepWatchExclusive(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-watch", "x:1", "-serve", ":0"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}

// TestSparkline pins the throughput ring's math and rendering: the first
// sample only primes, each later sample contributes (done delta)/(time
// delta), bars scale to the window's peak, the latest and peak rates are
// printed, and the ring never outgrows its window.
func TestSparkline(t *testing.T) {
	var s sparkline
	t0 := time.Unix(100, 0)
	if s.observe(dist.Status{Done: 0}, t0); s.line() != "" {
		t.Fatalf("sparkline rendered before two samples: %q", s.line())
	}
	s.observe(dist.Status{Done: 4}, t0.Add(time.Second))   // 4 jobs/s
	s.observe(dist.Status{Done: 6}, t0.Add(2*time.Second)) // 2 jobs/s
	s.observe(dist.Status{Done: 6}, t0.Add(3*time.Second)) // idle
	got := s.line()
	want := "dist: throughput █▄▁ 0.00 jobs/s (peak 4.00)"
	if got != want {
		t.Errorf("sparkline = %q, want %q", got, want)
	}

	// A resumed campaign can report a lower Done than the last sample;
	// the rate clamps at zero instead of going negative.
	s.observe(dist.Status{Done: 2}, t0.Add(4*time.Second))
	if !strings.HasSuffix(s.line(), "0.00 jobs/s (peak 4.00)") {
		t.Errorf("negative delta not clamped: %q", s.line())
	}

	// The ring is bounded by the window.
	for i := 0; i < 3*sparklineWindow; i++ {
		s.observe(dist.Status{Done: 10 + i}, t0.Add(time.Duration(5+i)*time.Second))
	}
	if len(s.rates) != sparklineWindow {
		t.Errorf("ring grew to %d samples, window is %d", len(s.rates), sparklineWindow)
	}
}
