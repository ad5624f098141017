package main

import (
	"bytes"
	"context"
	"regexp"
	"sync"
	"testing"

	"ilsim/internal/dist"
)

// syncBuffer is a bytes.Buffer safe to read while the coordinator
// goroutine writes its stderr stream into it.
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

// timingRe strips the wall-clock summary line, the only part of the sweep
// output that legitimately differs between two runs of the same jobs.
var timingRe = regexp.MustCompile(`(?m)^\d+ jobs in .*$`)

func sweepTable(s string) string { return timingRe.ReplaceAllString(s, "N jobs") }

// runWorkers attaches n two-slot workers (the library behind ilsim-workerd)
// to the coordinator at addr and returns a wait function that fails the test
// if any of them did.
func runWorkers(t *testing.T, addr string, n int, client dist.ClientOptions) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &dist.Worker{Coordinator: addr, Slots: 2, Client: client}
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return wg.Wait
}

// TestSweepServeConnect runs the same tiny sweep twice — once locally,
// once through -serve with two workers connected over loopback — and
// asserts the result tables are identical: the distributed path must not
// change a byte of the science.
func TestSweepServeConnect(t *testing.T) {
	sweep := []string{"-param", "banks", "-workload", "ArrayBW", "-scale", "1", "-points", "2"}

	var localOut, localErr bytes.Buffer
	if err := run(append(sweep, "-j", "2"), &localOut, &localErr); err != nil {
		t.Fatalf("local run: %v\nstderr: %s", err, localErr.String())
	}

	var serveOut bytes.Buffer
	serveErr := &syncBuffer{}
	addr, serveDone := startServe(t, append(sweep, "-serve", "127.0.0.1:0"), &serveOut, serveErr)
	wait := runWorkers(t, addr, 2, dist.ClientOptions{})
	if err := <-serveDone; err != nil {
		t.Fatalf("serve run: %v\nstderr: %s", err, serveErr.String())
	}
	wait()

	if sweepTable(localOut.String()) != sweepTable(serveOut.String()) {
		t.Fatalf("distributed sweep output differs from local:\n--- local ---\n%s--- distributed ---\n%s",
			localOut.String(), serveOut.String())
	}
}
