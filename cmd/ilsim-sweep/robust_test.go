package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweepRows extracts only the per-point table rows — the timing footer
// differs between runs, so resume-fidelity checks compare rows alone.
func sweepRows(text string) []string {
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "banks=") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestSweepJournalResume runs a sweep with -journal, then the identical
// sweep with -resume: the second run reports every job as resumed and its
// table rows are byte-identical to the first run's.
func TestSweepJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-param", "banks", "-workload", "ArrayBW",
		"-scale", "1", "-points", "2", "-journal", journal}

	var out1, err1 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("first run: %v\nstderr: %s", err, err1.String())
	}

	var out2, err2 bytes.Buffer
	if err := run(append(args, "-resume"), &out2, &err2); err != nil {
		t.Fatalf("resumed run: %v\nstderr: %s", err, err2.String())
	}
	if !strings.Contains(err2.String(), "resuming: 4 of 4 jobs") {
		t.Fatalf("no resume notice on stderr:\n%s", err2.String())
	}
	if !strings.Contains(out2.String(), "4 resumed from journal") {
		t.Fatalf("footer does not report resumption:\n%s", out2.String())
	}
	r1, r2 := sweepRows(out1.String()), sweepRows(out2.String())
	if len(r1) != 2 || len(r2) != 2 {
		t.Fatalf("row counts %d/%d, want 2/2", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("resumed row differs:\n%q\n%q", r1[i], r2[i])
		}
	}
}

// TestSweepJournalCompact: a journaled sweep writes its journal compact — a
// header plus one line per job — and a resume from it reproduces the
// original table rows byte for byte.
func TestSweepJournalCompact(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-param", "banks", "-workload", "ArrayBW",
		"-scale", "1", "-points", "2", "-journal", journal}

	var out1, err1 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("first run: %v\nstderr: %s", err, err1.String())
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// 2 points × 2 abstractions.
	if n := bytes.Count(raw, []byte("\n")); n != 5 || !bytes.HasSuffix(raw, []byte("\n")) {
		t.Fatalf("journal has %d lines, want the header + 4:\n%s", n, raw)
	}

	var out2, err2 bytes.Buffer
	if err := run(append(args, "-resume"), &out2, &err2); err != nil {
		t.Fatalf("resume: %v\nstderr: %s", err, err2.String())
	}
	if !strings.Contains(out2.String(), "4 resumed from journal") {
		t.Fatalf("journal did not resume all jobs:\n%s", out2.String())
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, after) {
		t.Fatal("a fully resumed sweep changed its journal")
	}
	r1, r2 := sweepRows(out1.String()), sweepRows(out2.String())
	if len(r1) != 2 || len(r2) != 2 {
		t.Fatalf("row counts %d/%d, want 2/2", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("resumed row differs:\n%q\n%q", r1[i], r2[i])
		}
	}
}

// TestSweepResumeRequiresJournal: -resume alone is a usage error.
func TestSweepResumeRequiresJournal(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "banks", "-resume"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-journal") {
		t.Fatalf("bare -resume returned %v", err)
	}
}

// TestSweepJournalRefusesClobber: re-running with -journal but without
// -resume must not overwrite the checkpoint.
func TestSweepJournalRefusesClobber(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-param", "banks", "-workload", "ArrayBW",
		"-scale", "1", "-points", "1", "-journal", journal}
	var out, errw bytes.Buffer
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out, &errw); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("journal clobbered: %v", err)
	}
}

// TestSweepBudgetFailureExitsNonZero: a sweep whose jobs blow a tiny cycle
// budget completes the table (collect-all) but returns an error and prints
// a classified failure summary to stderr — the CLI exit-code contract.
func TestSweepBudgetFailureExitsNonZero(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "banks", "-workload", "ArrayBW",
		"-scale", "1", "-points", "1", "-maxcycles", "10"}, &out, &errw)
	if err == nil {
		t.Fatalf("budget-killed sweep returned nil error\nstdout:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "jobs failed") {
		t.Fatalf("error does not summarize failures: %v", err)
	}
	text := errw.String()
	if !strings.Contains(text, "FAILED") || !strings.Contains(text, "budget-exceeded") {
		t.Fatalf("stderr missing classified failure summary:\n%s", text)
	}
	if !strings.Contains(out.String(), "error [budget-exceeded]") {
		t.Fatalf("table does not mark the failed point:\n%s", out.String())
	}
}

// TestSweepJournalCompactFlagGone: a journal holds only successes, one line
// per job, so there is nothing to compact.
func TestSweepJournalCompactFlagGone(t *testing.T) {
	var out, errw bytes.Buffer
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	err := run([]string{"-journal", journal, "-journal-compact"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -journal-compact") {
		t.Fatalf("-journal-compact: err %v", err)
	}
}

// TestSweepFailfastFlagGone: a sweep always runs every point, so there is
// no second error policy to select.
func TestSweepFailfastFlagGone(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "banks", "-points", "1", "-failfast"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -failfast") {
		t.Fatalf("-failfast: err %v", err)
	}
}
