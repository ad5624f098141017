package exp

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// TestCompactJournalRoundTrip is the compaction acceptance test: a journal
// holding superseded entries (a failure later replaced by a success) and
// quorum vote records is compacted to one entry per job, and a resume from
// the compacted file produces results fingerprint-identical to a resume
// from the original.
func TestCompactJournalRoundTrip(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	path := journalPath(t)

	clean, _, err := New(4).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1's history: two recorded failures, then the success that
	// supersedes them. Jobs 0, 2, 3 are recorded once. Interleave vote
	// audit records like a replicated coordinator would.
	fail := Result{Err: errors.New("flaky board")}
	if err := j.Record(1, fail); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordVote(1, "w1", "err:permanent", "err:permanent"); err != nil {
		t.Fatal(err)
	}
	for i, r := range clean {
		if i == 1 {
			if err := j.Record(1, fail); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Record(i, Result{Run: r.Run, Wall: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := j.RecordVote(i, "w1", RunSHA(r.Run), RunSHA(r.Run)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// 4 result lines survive; 2 superseded failures + 5 votes drop.
	kept, droppedN, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != len(jobs) || droppedN != 7 {
		t.Fatalf("compacted to %d kept / %d dropped, want %d / 7", kept, droppedN, len(jobs))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(raw), "\n"); got != len(jobs)+1 {
		t.Fatalf("compacted journal has %d lines, want header + %d", got, len(jobs))
	}
	if strings.Contains(string(raw), `"type":"vote"`) {
		t.Fatal("vote records survived compaction")
	}

	// The compacted journal resumes every job with identical fingerprints.
	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != len(jobs) {
		t.Fatalf("compacted journal resumes %d jobs, want %d", n, len(jobs))
	}
	eng := New(4)
	eng.Journal = j2
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{Panic: "resumed job re-executed"})
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumed != len(jobs) || m.Failed != 0 {
		t.Fatalf("resume metrics after compaction: %+v", m)
	}
	for i, r := range results {
		if r.Run == nil || !bytes.Equal(r.Run.Fingerprint(), clean[i].Run.Fingerprint()) {
			t.Fatalf("job %d: compacted resume differs from uninterrupted run", i)
		}
	}
}

// TestCompactJournalIdempotent: compacting an already-compact journal
// keeps everything and drops nothing, byte-for-byte.
func TestCompactJournalIdempotent(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	eng.Journal = j
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, _, err := CompactJournal(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, droppedN, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != len(jobs) || droppedN != 0 {
		t.Fatalf("second compaction: %d kept / %d dropped, want %d / 0", kept, droppedN, len(jobs))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("idempotent compaction changed the file")
	}
}

// TestCompactJournalToleratesPartialTrailingLine mirrors the loader's
// kill-mid-write tolerance: a truncated final line is dropped, everything
// before it survives.
func TestCompactJournalToleratesPartialTrailingLine(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	eng.Journal = j
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"result","index":1,"jo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	kept, droppedN, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != len(jobs) || droppedN != 1 {
		t.Fatalf("%d kept / %d dropped, want %d / 1", kept, droppedN, len(jobs))
	}
	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != len(jobs) {
		t.Fatalf("resumes %d jobs after partial-line compaction, want %d", n, len(jobs))
	}
}

// TestCompactJournalDropsEntryMissingItsNewline: a final entry that parses
// but lost its newline is torn to a resume (the next append would fuse with
// it), so compaction drops it too — the compacted journal resumes the same
// jobs as the original, not one more.
func TestCompactJournalDropsEntryMissingItsNewline(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	eng.Journal = j
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(raw, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	resumable := func() int {
		t.Helper()
		j, err := OpenJournal(path, jobs, true)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return j.Resumable()
	}
	before := resumable()
	if before != len(jobs)-1 {
		t.Fatalf("the torn journal resumes %d jobs, want %d", before, len(jobs)-1)
	}
	// The resume above cut the torn line off; put it back for compaction.
	if err := os.WriteFile(path, bytes.TrimSuffix(raw, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompactJournal(path); err != nil {
		t.Fatal(err)
	}
	if after := resumable(); after != before {
		t.Fatalf("the compacted journal resumes %d jobs, the original %d", after, before)
	}
}

// TestCompactJournalRejectsInteriorCorruption: garbage before the end is a
// hard error, and the original file is left untouched.
func TestCompactJournalRejectsInteriorCorruption(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	eng.Journal = j
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(raw, []byte("\n"))
	lines[1] = []byte(`{"type":"result","index":0,"garbage`)
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	if _, _, err := CompactJournal(path); err == nil {
		t.Fatal("compaction accepted interior corruption")
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("failed compaction modified the journal")
	}
}
