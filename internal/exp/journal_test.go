package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
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
	// the three successes, then the process "dies" (Close).
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

// The TestCompactJournal tests hold the journal to its invariant: it is
// compact as written — a header plus at most one line per job — and stays
// so through torn tails and the resumes that repair them.

// journaledRun runs jobs with a fresh journal at path and closes it.
func journaledRun(t *testing.T, path string, jobs []Job) {
	t.Helper()
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	eng.Journal = j
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// requireCompact fails unless the journal at path is whole lines only: a
// header, then one line for each of jobs, each job's fingerprint once.
func requireCompact(t *testing.T, path string, jobs []Job) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("journal does not end on a line boundary:\n%s", data)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != len(jobs)+1 {
		t.Fatalf("journal has %d lines, want the header + %d", len(lines), len(jobs))
	}
	for i, job := range jobs {
		fp := fmt.Sprintf(`"job":%q`, job.Fingerprint())
		if n := strings.Count(strings.Join(lines[1:], "\n"), fp); n != 1 {
			t.Fatalf("job %d has %d journal lines, want 1", i, n)
		}
	}
}

// TestCompactJournalToleratesPartialTrailingLine: a truncated final line
// after a complete campaign is cut off by the resume, which leaves the file
// compact again and restores every job.
func TestCompactJournalToleratesPartialTrailingLine(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	journaledRun(t, path, jobs)
	requireCompact(t, path, jobs)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"result","index":1,"jo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := j.Resumable(); n != len(jobs) {
		t.Fatalf("resumes %d jobs after a partial line, want %d", n, len(jobs))
	}
	requireCompact(t, path, jobs)
}

// TestCompactJournalDropsEntryMissingItsNewline: a final entry that parses
// but lost its newline is torn (the next append would fuse with it), so the
// resume drops it and re-executes that job — and the journal it leaves holds
// that job once, not twice.
func TestCompactJournalDropsEntryMissingItsNewline(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	journaledRun(t, path, jobs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(raw, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Resumable(); n != len(jobs)-1 {
		t.Fatalf("the torn journal resumes %d jobs, want %d", n, len(jobs)-1)
	}
	eng := New(2)
	eng.Journal = j
	if _, m, err := eng.Run(jobs); err != nil || m.Resumed != len(jobs)-1 || m.Failed != 0 {
		t.Fatalf("resumed run: %+v, %v", m, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	requireCompact(t, path, jobs)
}

// TestCompactJournalRejectsInteriorCorruption: garbage before the end is a
// hard error on resume, and the refused journal is left byte-for-byte as it
// was — the loader cuts off only a torn last line.
func TestCompactJournalRejectsInteriorCorruption(t *testing.T) {
	jobs := tinyJobs(t, 1)
	path := journalPath(t)
	journaledRun(t, path, jobs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(raw, []byte("\n"))
	lines[1] = []byte(`{"type":"result","index":0,"garbage`)
	before := bytes.Join(lines, []byte("\n"))
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, jobs, true); err == nil {
		t.Fatal("resume accepted interior corruption")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a refused resume modified the journal")
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

// TestJournalDoesNotResumeFailures: a failed job is not journaled, so the
// file holds no line carrying an error, and a resume re-executes the job.
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 {
		t.Fatalf("journal has %d lines, want the header and the one success", n)
	}
	if bytes.Contains(data, []byte(`"err"`)) {
		t.Fatalf("the failure was journaled:\n%s", data)
	}

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

// TestJournalSkipsCanceledJobs: jobs shed because the Run context ended are
// not journaled — they are neither completed work nor real failures.
func TestJournalSkipsCanceledJobs(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	path := journalPath(t)
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(1) // serial: job 0 runs, then the context ends
	eng.Journal = j
	eng.OnProgress = func(Progress) { cancel() }
	results, m, err := eng.RunContext(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if results[0].Err != nil || m.Failed != len(jobs)-1 {
		t.Fatalf("job 0: %v; %d failed, want the %d shed", results[0].Err, m.Failed, len(jobs)-1)
	}
	for _, r := range results[1:] {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Fatalf("job %s: %v, want ErrCanceled", r.Job, r.Err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 {
		t.Fatalf("journal has %d lines, want the header and job 0:\n%s", n, data)
	}
}

// faultyDisk is a journal file on a failing disk: from write number failFrom
// on (0: never), writes fail with ENOSPC having written nothing, and every
// Sync fails with syncErr when it is set.
type faultyDisk struct {
	*os.File
	failFrom, writes int
	syncErr          error
}

func (f *faultyDisk) Write(b []byte) (int, error) {
	f.writes++
	if f.failFrom > 0 && f.writes >= f.failFrom {
		return 0, syscall.ENOSPC
	}
	return f.File.Write(b)
}

func (f *faultyDisk) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

// TestEngineFullDiskShedsUnstartedJobs drives a journaled engine onto a
// failing disk. The first failed journal write ends the sweep: Run reports it
// as a journal error wrapping the disk's errno, every job not yet started
// comes back ErrCanceled and unjournaled, and a resume restores exactly the
// entries that reached the file, identical to a clean run.
func TestEngineFullDiskShedsUnstartedJobs(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	clean, _, err := New(2).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		disk    faultyDisk
		errno   syscall.Errno
		reached int // entries on disk: jobs 0..reached-1
		shed    int // first job shed unstarted
	}{
		// Jobs 0 and 1 are written; job 2's write fails, job 3 is shed.
		{"ENOSPC from the third write", faultyDisk{failFrom: 3}, syscall.ENOSPC, 2, 3},
		// Job 0's entry is written but its Sync fails; jobs 1-3 are shed.
		{"Sync fails", faultyDisk{syncErr: syscall.EIO}, syscall.EIO, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			j, err := OpenJournal(path, jobs, false)
			if err != nil {
				t.Fatal(err)
			}
			disk := tc.disk
			disk.File = j.f.(*os.File)
			j.f = &disk
			eng := New(1) // serial, so which jobs start is fixed
			eng.Journal = j
			results, m, err := eng.Run(jobs)
			j.Close()
			if err == nil || !strings.HasPrefix(err.Error(), "exp: journal: ") || !errors.Is(err, tc.errno) {
				t.Fatalf("Run returned %v, want an exp: journal: error wrapping %v", err, tc.errno)
			}
			for i, r := range results {
				if shed := i >= tc.shed; shed != errors.Is(r.Err, ErrCanceled) {
					t.Errorf("job %d: %v, shed %t", i, r.Err, shed)
				}
			}
			if m.Failed != len(jobs)-tc.shed {
				t.Errorf("%d failed, want the %d shed", m.Failed, len(jobs)-tc.shed)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(data, []byte("\n")); n != 1+tc.reached {
				t.Fatalf("journal has %d lines, want the header and %d entries:\n%s", n, tc.reached, data)
			}

			j2, err := OpenJournal(path, jobs, true)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			for i := range jobs {
				r, ok := j2.Completed(i)
				if ok != (i < tc.reached) {
					t.Fatalf("after reload, job %d completed = %t", i, ok)
				}
				if ok && !bytes.Equal(r.Run.Fingerprint(), clean[i].Run.Fingerprint()) {
					t.Errorf("job %d: the journaled run differs from a clean run", i)
				}
			}
			eng2 := New(2)
			eng2.Journal = j2
			resumed, m2, err := eng2.Run(jobs)
			if err != nil || m2.Failed != 0 || m2.Resumed != tc.reached {
				t.Fatalf("resume: %+v, %v", m2, err)
			}
			for i, r := range resumed {
				if !bytes.Equal(r.Run.Fingerprint(), clean[i].Run.Fingerprint()) {
					t.Errorf("job %d: the resumed campaign differs from a clean run", i)
				}
			}
		})
	}
}

// TestJournalResumesParentFormatLines: journals written before failures were
// left out hold failure entries, and journals of replicated campaigns hold
// quorum-vote audit lines. Such a journal, here with a job that failed twice
// before it succeeded, still opens and resumes to the uninterrupted run, and
// an engine resuming it executes nothing.
func TestJournalResumesParentFormatLines(t *testing.T) {
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
	j.Close()

	failure := fmt.Sprintf(`{"type":"result","index":1,"job":%q,"jobName":%q,"err":"flaky board","errClass":"permanent"}`+"\n",
		jobs[1].Fingerprint(), jobs[1].String())
	vote := func(i int, v string) string {
		return fmt.Sprintf(`{"type":"vote","index":%d,"job":%q,"worker":"w1","vote":%q,"accepted":%q,"agree":true}`+"\n",
			i, jobs[i].Fingerprint(), v, v)
	}
	var lines strings.Builder
	lines.WriteString(failure)
	lines.WriteString(vote(1, "err:permanent"))
	for i, r := range clean {
		if i == 1 {
			lines.WriteString(failure)
		}
		ok, err := json.Marshal(journalEntry{Type: "result", WireResult: EncodeResult(i, jobs[i].Fingerprint(),
			Result{Job: jobs[i], Run: r.Run, Wall: 5 * time.Millisecond})})
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(append(ok, '\n'))
		lines.WriteString(vote(i, RunSHA(r.Run)))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(lines.String()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatalf("journal with failure and vote lines refused: %v", err)
	}
	defer j2.Close()
	if n := j2.Resumable(); n != len(jobs) {
		t.Fatalf("journal resumes %d jobs, want %d", n, len(jobs))
	}
	eng := New(4)
	eng.Journal = j2
	eng.Faults = NewFaultPlan()
	for _, job := range jobs {
		eng.Faults.Set(job.String(), Fault{Panic: "resumed job re-executed"})
	}
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumed != len(jobs) || m.Failed != 0 {
		t.Fatalf("resume metrics: %+v", m)
	}
	for i, r := range results {
		if r.Run == nil || !bytes.Equal(r.Run.Fingerprint(), clean[i].Run.Fingerprint()) {
			t.Fatalf("job %d: resumed result differs from the uninterrupted run", i)
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
