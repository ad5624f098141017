package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"ilsim/internal/dist"
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
// authenticate and must carry the queue-depth fields, and a worker that
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

// TestSweepReplicasFlagGone: a job has one lease, so there is no quorum
// width to set.
func TestSweepReplicasFlagGone(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "banks", "-points", "1", "-serve", "127.0.0.1:0", "-replicas", "2"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -replicas") {
		t.Fatalf("-replicas: err %v", err)
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
