package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCompactJournalRoundTrip is the compaction acceptance test: a journal
// holding superseded entries (a failure later replaced by a success) and the
// quorum-vote audit lines replicated campaigns used to write is compacted to
// one entry per job, and a resume restores the same runs from the compacted
// file as from the original, identical to an uninterrupted run.
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
	// supersedes them. Jobs 0, 2, 3 are recorded once. Vote lines follow
	// their results, as a replicated coordinator appended them.
	fail := Result{Err: errors.New("flaky board")}
	if err := j.Record(1, fail); err != nil {
		t.Fatal(err)
	}
	appendVote(t, j, 1, "err:permanent")
	for i, r := range clean {
		if i == 1 {
			if err := j.Record(1, fail); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Record(i, Result{Run: r.Run, Wall: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		appendVote(t, j, i, RunSHA(r.Run))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// resumed is what a resume of the journal restores: each job's run
	// hash, "" for a job it would re-execute.
	resumed := func() []string {
		t.Helper()
		j, err := OpenJournal(path, jobs, true)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		shas := make([]string, len(jobs))
		for i := range jobs {
			if r, ok := j.Completed(i); ok {
				shas[i] = RunSHA(r.Run)
			}
		}
		return shas
	}
	before := resumed()
	for i, r := range clean {
		if before[i] != RunSHA(r.Run) {
			t.Fatalf("job %d: the journal with vote lines resumes %q, want the uninterrupted run", i, before[i])
		}
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
	if after := resumed(); !slices.Equal(after, before) {
		t.Fatalf("the compacted journal resumes %q, the original %q", after, before)
	}

	// An engine resuming the compacted journal executes nothing.
	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
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

// appendVote appends a quorum-vote audit line for job idx in the format
// replicated campaigns wrote before quorum re-execution was removed.
func appendVote(t *testing.T, j *Journal, idx int, vote string) {
	t.Helper()
	line := fmt.Sprintf(`{"type":"vote","index":%d,"job":%q,"worker":"w1","vote":%q,"accepted":%q,"agree":true}`,
		idx, j.fps[idx], vote, vote)
	if err := j.append(json.RawMessage(line)); err != nil {
		t.Fatal(err)
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

// TestCompactJournalKeepsPermissions: the rewritten journal keeps the mode
// of the file it replaces, not the 0600 of a fresh temp file.
func TestCompactJournalKeepsPermissions(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	for _, mode := range []os.FileMode{0o644, 0o640} {
		if err := os.Chmod(path, mode); err != nil {
			t.Fatal(err)
		}
		if _, _, err := CompactJournal(path); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != mode {
			t.Errorf("compaction changed the journal's mode from %v to %v", mode, got)
		}
	}
}
