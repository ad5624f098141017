package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTableModeBudgetFailureExitsNonZero: in multi-workload table mode a
// budget-killed job must not silently vanish — the table marks it, stderr
// carries a classified FAILED summary, and run returns a non-nil error so
// main exits non-zero.
func TestTableModeBudgetFailureExitsNonZero(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW,SpMV", "-scale", "1",
		"-maxcycles", "10"}, &out, &errw)
	if err == nil {
		t.Fatalf("budget-killed table run returned nil error\nstdout:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "jobs failed") {
		t.Fatalf("error does not summarize failures: %v", err)
	}
	if !strings.Contains(errw.String(), "FAILED") ||
		!strings.Contains(errw.String(), "budget-exceeded") {
		t.Fatalf("stderr missing classified failure summary:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "error [budget-exceeded]") {
		t.Fatalf("table does not mark failed workloads:\n%s", out.String())
	}
}

// TestSingleWorkloadBudgetFailure: the detailed single-workload view reports
// a budget kill the way the table does — a classified FAILED summary on
// stderr and a non-nil error, so main exits 1 — and prints no statistics.
func TestSingleWorkloadBudgetFailure(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW", "-maxcycles", "100"}, &out, &errw)
	if err == nil || err.Error() != "2 of 2 jobs failed" {
		t.Fatalf("single-workload budget kill returned %v", err)
	}
	if n := strings.Count(errw.String(), "FAILED"); n != 2 ||
		strings.Count(errw.String(), "[budget-exceeded]") != 2 {
		t.Fatalf("stderr lacks one classified FAILED line per abstraction:\n%s", errw.String())
	}
	if out.Len() != 0 {
		t.Fatalf("a failed single-workload run printed statistics:\n%s", out.String())
	}
}
