package fleet

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeScript drops an executable shell script into the test dir.
func writeScript(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitDone asserts an instance's Done closes within a test-scale budget.
func waitDone(t *testing.T, inst Instance, what string) {
	t.Helper()
	select {
	case <-inst.Done():
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: instance never exited", what)
	}
}

// TestExecLauncher covers the process-launcher contract: the generated
// -connect/-name/-fleet flags come first with the inherited args after
// them, Stop delivers the SIGTERM drain signal (clean exit), and Kill
// ends an unresponsive worker with a non-nil Err.
func TestExecLauncher(t *testing.T) {
	// A stand-in worker: record argv, exit 0 on TERM, live forever.
	argvFile := filepath.Join(t.TempDir(), "argv")
	script := writeScript(t, "worker.sh", `echo "$@" > `+argvFile+`
trap 'exit 0' TERM
while :; do sleep 0.05; done`)

	l := &ExecLauncher{Path: script, Args: []string{"-token", "hunter2", "-j", "2"}}
	spec := Spec{Name: "exec-1", Fleet: "execfleet", Coordinator: "127.0.0.1:9"}
	inst, err := l.Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Name() != "exec-1" {
		t.Errorf("instance name %q", inst.Name())
	}

	// The child is up and saw the full flag set.
	wantArgv := "-connect 127.0.0.1:9 -name exec-1 -fleet execfleet -token hunter2 -j 2"
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(argvFile); err == nil && len(b) > 0 {
			if got := string(b); got != wantArgv+"\n" {
				t.Errorf("child argv:\n%qwant:\n%q", got, wantArgv+"\n")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	inst.Stop()
	waitDone(t, inst, "after Stop")
	if inst.Err() != nil {
		t.Errorf("SIGTERM drain should exit clean: %v", inst.Err())
	}

	// A worker that ignores TERM yields to Kill, and the error says so.
	stubborn := writeScript(t, "stubborn.sh", `trap '' TERM
while :; do sleep 0.05; done`)
	inst2, err := (&ExecLauncher{Path: stubborn}).Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the trap install
	inst2.Stop()
	select {
	case <-inst2.Done():
		t.Fatal("TERM-immune child exited on Stop")
	case <-time.After(200 * time.Millisecond):
	}
	inst2.Kill()
	waitDone(t, inst2, "after Kill")
	if inst2.Err() == nil {
		t.Error("killed child reported a clean exit")
	}
}
