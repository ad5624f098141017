package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.jsonl")
}

// TestJournalResumeRoundTrip is the checkpoint/resume acceptance test: a
// campaign that loses one job to an injected panic is resumed from its
// journal; the resumed run re-executes only the unfinished job (proven by
// arming a panic fault on an already-journaled job — it never fires), and
// the final result set is fingerprint-identical to an uninterrupted run.
func TestJournalResumeRoundTrip(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	path := journalPath(t)

	clean, _, err := New(4).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// First flight: job 3 dies to an injected panic; the journal records
	// three successes and one failure, then the process "dies" (Close).
	j1, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(4)
	eng.Journal = j1
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[3].String(), Fault{Panic: "simulated crash"})
	first, m1, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Failed != 1 || first[3].Err == nil {
		t.Fatalf("first flight: %d failed (job 3 err %v), want exactly job 3", m1.Failed, first[3].Err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second flight: resume. Only job 3 may execute — a panic armed on
	// job 0 would kill the run if the engine re-executed it.
	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != 3 {
		t.Fatalf("journal resumes %d jobs, want 3", n)
	}
	eng2 := New(4)
	eng2.Journal = j2
	eng2.Faults = NewFaultPlan()
	eng2.Faults.Set(jobs[0].String(), Fault{Panic: "resumed job re-executed"})
	results, m2, err := eng2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Failed != 0 {
		t.Fatalf("resumed flight failed %d jobs: %+v", m2.Failed, results)
	}
	if m2.Resumed != 3 {
		t.Fatalf("metrics count %d resumed, want 3", m2.Resumed)
	}
	for i, r := range results {
		wantResumed := i != 3
		if r.Resumed != wantResumed {
			t.Errorf("job %d: Resumed = %t, want %t", i, r.Resumed, wantResumed)
		}
		if r.Run == nil {
			t.Fatalf("job %d has no run", i)
		}
		if !bytes.Equal(r.Run.Fingerprint(), clean[i].Run.Fingerprint()) {
			t.Errorf("job %d: resumed result differs from uninterrupted run", i)
		}
	}
}

// TestJournalFullyResumed re-runs a completed campaign from its journal:
// nothing executes, everything resumes.
func TestJournalFullyResumed(t *testing.T) {
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

	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	eng2 := New(2)
	eng2.Journal = j2
	eng2.Faults = NewFaultPlan()
	for _, job := range jobs {
		eng2.Faults.Set(job.String(), Fault{Panic: "nothing should execute"})
	}
	results, m, err := eng2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumed != len(jobs) || m.Failed != 0 {
		t.Fatalf("metrics %+v, want all %d jobs resumed", m, len(jobs))
	}
	for _, r := range results {
		if !r.Resumed || r.Run == nil {
			t.Fatalf("job %s not resumed", r.Job)
		}
	}
}

// TestJournalRefusesClobber: opening an existing journal without resume is
// an error — a checkpoint is never silently overwritten.
func TestJournalRefusesClobber(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, jobs, false); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("clobbering open returned %v", err)
	}
}

// TestJournalRefusesMismatchedJobSet: resuming with a different job set
// fails with ErrJournalMismatch, both at open and at engine bind time.
func TestJournalRefusesMismatchedJobSet(t *testing.T) {
	jobs := tinyJobs(t, 2)
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := tinyJobs(t, 2)
	other[0].Scale = 3 // different fingerprint, same count
	if _, err := OpenJournal(path, other, true); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("mismatched resume returned %v, want ErrJournalMismatch", err)
	}
	if _, err := OpenJournal(path, jobs[:2], true); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("shorter job set returned %v, want ErrJournalMismatch", err)
	}

	// Bind-time refusal: a journal opened for one job set cannot be driven
	// with another by attaching it to an engine.
	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	eng := New(2)
	eng.Journal = j2
	if _, _, err := eng.Run(other); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("engine run with mismatched journal returned %v", err)
	}
}

// TestJournalToleratesPartialTrailingLine: a kill mid-write leaves a
// truncated last line; resume drops it and keeps every complete entry.
func TestJournalToleratesPartialTrailingLine(t *testing.T) {
	jobs := tinyJobs(t, 1) // 2 jobs
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
	if _, err := f.WriteString(`{"type":"result","index":1,"job":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatalf("partial trailing line rejected: %v", err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != 2 {
		t.Fatalf("journal resumes %d jobs after truncation, want 2", n)
	}
}

// TestJournalTornTailSurvivesTwoResumes: a kill mid-write, a resume that
// finishes the campaign, and a second resume of the now complete journal.
// The entries the first resume appends must start on a line boundary — not
// directly after the fragment, which would fuse the first of them with it
// into one corrupt interior line, losing that result and bricking the
// checkpoint. A fragment that happens to be a whole entry short of only its
// newline is torn all the same.
func TestJournalTornTailSurvivesTwoResumes(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	results, _, err := New(2).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := json.Marshal(journalEntry{Type: "result", WireResult: EncodeResult(2, jobs[2].Fingerprint(), results[2])})
	if err != nil {
		t.Fatal(err)
	}
	for name, fragment := range map[string][]byte{"half an entry": whole[:len(whole)/2], "all but the newline": whole} {
		path := journalPath(t)
		j, err := OpenJournal(path, jobs, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := j.Record(i, results[i]); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(fragment); err != nil {
			t.Fatal(err)
		}
		f.Close()

		j2, err := OpenJournal(path, jobs, true)
		if err != nil {
			t.Fatalf("%s: first resume: %v", name, err)
		}
		if n := j2.Resumable(); n != 2 {
			t.Fatalf("%s: first resume holds %d results, want 2", name, n)
		}
		eng := New(2)
		eng.Journal = j2
		if _, m, err := eng.Run(jobs); err != nil || m.Resumed != 2 || m.Failed != 0 {
			t.Fatalf("%s: resumed run: %+v, %v", name, m, err)
		}
		j2.Close()

		j3, err := OpenJournal(path, jobs, true)
		if err != nil {
			t.Fatalf("%s: second resume: %v", name, err)
		}
		if n := j3.Resumable(); n != len(jobs) {
			t.Errorf("%s: second resume holds %d results, want %d", name, n, len(jobs))
		}
		j3.Close()
	}
}

// shortWriteFile is a journal file on a disk that fills up: write number
// failAt gets half its bytes out and fails with ENOSPC; the others pass.
type shortWriteFile struct {
	*os.File
	failAt, writes int
}

func (f *shortWriteFile) Write(b []byte) (int, error) {
	f.writes++
	if f.writes == f.failAt {
		n, _ := f.File.Write(b[:len(b)/2])
		return n, syscall.ENOSPC
	}
	return f.File.Write(b)
}

// TestJournalShortWriteLosesOnlyThatEntry: an entry cut short by a full
// disk is reported to the caller and cut back off the file, so the entries
// recorded once space returns do not fuse with its fragment.
func TestJournalShortWriteLosesOnlyThatEntry(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	results, _, err := New(2).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	j.f = &shortWriteFile{File: j.f.(*os.File), failAt: 2}
	for i := range jobs {
		err := j.Record(i, results[i])
		if lost := i == 1; lost != errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Record(%d) returned %v", i, err)
		}
	}
	if _, ok := j.Completed(1); ok {
		t.Error("the entry that was never written counts as completed")
	}
	j.Close()

	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatalf("journal unloadable after a short write: %v", err)
	}
	defer j2.Close()
	for i := range jobs {
		if _, ok := j2.Completed(i); ok != (i != 1) {
			t.Errorf("after reload, job %d completed = %v", i, ok)
		}
	}
}

// TestJournalRejectsInteriorCorruption: a corrupt line that is NOT the
// last one cannot be a partial write — the journal refuses to load.
func TestJournalRejectsInteriorCorruption(t *testing.T) {
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

	// Corrupt the first result entry (line 2 of header+2 entries).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(lines))
	}
	lines[1] = lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, jobs, true); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("interior corruption returned %v", err)
	}
}

// TestJournalRejectsTamperedResult: an entry whose stats.Run no longer
// matches its integrity hash fails the load.
func TestJournalRejectsTamperedResult(t *testing.T) {
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

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	var e journalEntry
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	e.Run.Cycles += 12345 // silent bit-rot stand-in
	tampered, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	lines[1] = string(tampered)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, jobs, true); err == nil ||
		!strings.Contains(err.Error(), "integrity") {
		t.Fatalf("tampered result returned %v", err)
	}
}

// TestJournalDoesNotResumeFailures: recorded failures stay on disk for
// the record but are re-executed on resume.
func TestJournalDoesNotResumeFailures(t *testing.T) {
	jobs := tinyJobs(t, 1) // 2 jobs
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	eng.Journal = j
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[1].String(), Fault{Err: errors.New("bad run")})
	if _, m, err := eng.Run(jobs); err != nil || m.Failed != 1 {
		t.Fatalf("first flight: err %v, %d failed", err, m.Failed)
	}
	j.Close()

	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != 1 {
		t.Fatalf("journal resumes %d jobs, want only the success", n)
	}
	eng2 := New(2)
	eng2.Journal = j2
	results, m, err := eng2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != 0 || results[1].Err != nil || results[1].Resumed {
		t.Fatalf("failed job not re-executed cleanly: %+v", results[1])
	}
}

// TestJournalSkipsCanceledJobs: canceled jobs must not be journaled —
// they are neither completed work nor real failures.
func TestJournalSkipsCanceledJobs(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(1) // serial: job 0 fails, the rest are shed as canceled
	eng.Mode = FailFast
	eng.Journal = j
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{Err: errors.New("fatal")})
	if _, _, err := eng.Run(jobs); err == nil {
		t.Fatal("FailFast run returned nil error")
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n")[1:] {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.ErrClass == ClassCanceled.String() {
			t.Fatalf("canceled job journaled: %s", line)
		}
	}
}

// TestJournalResumesEntriesWithAttempts: journals written before jobs ran
// exactly once carry an "attempts" count on every entry. Decoding ignores
// the field, so such a journal still resumes, and a failure recorded with
// the "transient" class those builds had loads as permanent and is
// re-executed like any recorded failure.
func TestJournalResumesEntriesWithAttempts(t *testing.T) {
	jobs := tinyJobs(t, 1) // 2 jobs
	results, _, err := New(2).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	ok, err := json.Marshal(journalEntry{Type: "result", WireResult: EncodeResult(0, jobs[0].Fingerprint(), results[0])})
	if err != nil {
		t.Fatal(err)
	}
	ok = bytes.Replace(ok, []byte(`"wallNs":`), []byte(`"attempts":1,"wallNs":`), 1)
	if !bytes.Contains(ok, []byte(`"jobName":"`+jobs[0].String()+`","attempts":1,"wallNs":`)) {
		t.Fatalf("entry does not read as the older format:\n%s", ok)
	}
	failed := `{"type":"result","index":1,"job":"` + jobs[1].Fingerprint() + `","jobName":"` + jobs[1].String() +
		`","attempts":3,"wallNs":1000,"err":"transient: flaky link","errClass":"transient"}`
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(append(ok, '\n'), failed+"\n"...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var w WireResult
	if err := json.Unmarshal([]byte(failed), &w); err != nil {
		t.Fatal(err)
	}
	if r, err := w.Decode(); err != nil || Classify(r.Err) != ClassPermanent {
		t.Fatalf("transient-class entry decodes to %v (class %s), want a permanent failure", err, Classify(r.Err))
	}

	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatalf("journal with attempts counts refused: %v", err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != 1 {
		t.Fatalf("journal resumes %d jobs, want the one success", n)
	}
	eng := New(2)
	eng.Journal = j2
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{Panic: "resumed job re-executed"})
	got, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumed != 1 || m.Failed != 0 || !got[0].Resumed || got[1].Resumed {
		t.Fatalf("resume: %+v; job 0 resumed %t, job 1 resumed %t", m, got[0].Resumed, got[1].Resumed)
	}
	for i := range jobs {
		if !bytes.Equal(got[i].Run.Fingerprint(), results[i].Run.Fingerprint()) {
			t.Errorf("job %d differs from a fresh run", i)
		}
	}
}
