package exp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"ilsim/internal/stats"
)

// ErrJournalMismatch marks a journal whose recorded job set does not match
// the job set it is being reused for. Resuming such a journal would splice
// results from a different campaign into this one, so the engine refuses.
var ErrJournalMismatch = errors.New("exp: journal job set does not match")

// journalVersion is the on-disk format version; bumped on incompatible
// changes so old journals fail loudly instead of resuming garbage.
const journalVersion = 1

// journalHeader is the first JSONL line: the identity of the campaign the
// journal checkpoints, as the ordered job fingerprints.
type journalHeader struct {
	Type    string   `json:"type"` // "header"
	Version int      `json:"version"`
	Jobs    []string `json:"jobs"`
}

// journalEntry is one successfully completed job in the shared WireResult
// encoding (the same bytes a distributed worker streams to its coordinator):
// the full stats.Run plus a hash of its fingerprint, so corruption is
// detected at load. Journals written before failures were left out may also
// hold failure entries, carrying the error text and its class; resume
// re-executes those jobs.
type journalEntry struct {
	Type string `json:"type"` // "result"
	WireResult
}

// voteType is the type of the quorum-vote audit lines a replicated
// distributed campaign used to append. Nothing writes them any more; resume
// skips them, so such a journal still resumes.
const voteType = "vote"

// Journal persists the successful results of one job set as JSONL, one
// fsynced line per job, so a killed campaign loses at most the jobs in
// flight. A failure is not written: the simulator is deterministic, so a
// resume re-executes the job, and a journal is a header plus at most one
// line per job. Attach it to an Engine (Engine.Journal); the next Run skips
// every job the journal records and appends the rest as they succeed. The
// file is self-describing: a header line fixes the job set (ordered job
// fingerprints) and every entry is validated against it on load.
type Journal struct {
	path string
	fps  []string

	mu sync.Mutex
	f  journalFile
	// size is the committed length of the file: the offset just past the
	// last whole line. Every append starts there, so a torn or failed write
	// can never fuse with the entry that follows it.
	size int64
	done map[int]Result
}

// journalFile is what the journal needs of its file — an *os.File opened
// O_APPEND, so that after a Truncate the next Write lands at the new end.
// Tests substitute one whose writes fail.
type journalFile interface {
	Write([]byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OpenJournal binds a journal file to a job set. When path does not exist
// a fresh journal is created (with or without resume). When it exists,
// resume must be true — refusing to silently clobber a checkpoint — and
// the file's recorded job set must match jobs exactly, or the open fails
// with ErrJournalMismatch. A partial trailing line (the mark of a kill
// mid-write) is tolerated and cut off the file, so the entries appended
// next start on a line boundary.
func OpenJournal(path string, jobs []Job, resume bool) (*Journal, error) {
	j := &Journal{path: path, fps: fingerprints(jobs), done: make(map[int]Result)}
	switch _, err := os.Stat(path); {
	case err == nil:
		if !resume {
			return nil, fmt.Errorf("exp: journal %s already exists (use resume to continue it)", path)
		}
		if err := j.load(); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(j.size); err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: journal %s: dropping the partial last line: %w", path, err)
		}
		j.f = f
		return j, nil
	case errors.Is(err, fs.ErrNotExist):
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		j.f = f
		if err := j.append(journalHeader{Type: "header", Version: journalVersion, Jobs: j.fps}); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	default:
		return nil, err
	}
}

// load parses an existing journal line by line, validating every entry
// against the bound job set, and leaves in j.size the offset just past the
// last good line. The header line must be whole, of this version and for this
// job set. A later line cut short of its newline (the next append would fuse
// with it, even when what is there parses), a line that does not parse and a
// line admit refuses are fatal only when more lines follow: the last line may
// be a partial write from a killed process, and is then left out.
func (j *Journal) load() error {
	f, err := os.Open(j.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, 1<<20)
	b, err := rd.ReadBytes('\n')
	if len(b) == 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("exp: journal %s: empty or unreadable header: %w", j.path, err)
	}
	var hdr journalHeader
	// err is io.EOF here for a header cut short of its newline: torn, even
	// if what is there parses.
	if jerr := json.Unmarshal(b, &hdr); jerr != nil || hdr.Type != "header" || err != nil {
		return fmt.Errorf("exp: journal %s: bad header line", j.path)
	}
	if hdr.Version != journalVersion {
		return fmt.Errorf("exp: journal %s: version %d, want %d", j.path, hdr.Version, journalVersion)
	}
	if err := matchFingerprints(hdr.Jobs, j.fps); err != nil {
		return fmt.Errorf("%w (%s: %v)", ErrJournalMismatch, j.path, err)
	}
	j.size = int64(len(b))
	var pendingErr error
	for line := 2; ; line++ { // the file's line number; the header is 1
		b, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("exp: journal %s: %w", j.path, err)
		}
		if len(b) > 0 {
			if pendingErr != nil {
				return pendingErr
			}
			var e journalEntry
			var lerr error
			if err != nil {
				lerr = errors.New("corrupt entry: no newline")
			} else if jerr := json.Unmarshal(b, &e); jerr != nil {
				lerr = fmt.Errorf("corrupt entry: %v", jerr)
			} else if e.Type != voteType {
				lerr = j.admit(e)
			}
			if lerr != nil {
				pendingErr = fmt.Errorf("exp: journal %s:%d: %w", j.path, line, lerr)
			} else {
				j.size += int64(len(b))
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// admit validates one loaded entry and, for a success, stores it as
// completed.
func (j *Journal) admit(e journalEntry) error {
	if e.Type != "result" || e.Index < 0 || e.Index >= len(j.fps) {
		return fmt.Errorf("invalid entry (type %q, index %d)", e.Type, e.Index)
	}
	if e.Job != j.fps[e.Index] {
		return fmt.Errorf("%w: entry for job %d", ErrJournalMismatch, e.Index)
	}
	if e.Err != "" {
		return nil // a failure an older build recorded: re-executed on resume
	}
	r, err := e.Decode()
	if err != nil {
		return err
	}
	j.done[e.Index] = Result{Run: r.Run, Wall: r.Wall}
	return nil
}

// Bind verifies that jobs is exactly the job set this journal checkpoints.
// The engine calls it at the top of every Run with a journal attached.
func (j *Journal) Bind(jobs []Job) error {
	if err := matchFingerprints(j.fps, fingerprints(jobs)); err != nil {
		return fmt.Errorf("%w (%s: %v)", ErrJournalMismatch, j.path, err)
	}
	return nil
}

// Completed returns the journaled successful result for job index i.
func (j *Journal) Completed(i int) (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.done[i]
	return r, ok
}

// Resumable reports how many jobs the journal already holds successful
// results for.
func (j *Journal) Resumable() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends one successful result, syncs it to disk and makes it
// resumable in-process, so repeated Run calls on the same engine observe it.
// A failed result is not written: a resume re-executes the job.
func (j *Journal) Record(index int, r Result) error {
	if index < 0 || index >= len(j.fps) {
		return fmt.Errorf("exp: journal: index %d out of range", index)
	}
	if r.Err != nil {
		return nil
	}
	e := journalEntry{Type: "result", WireResult: EncodeResult(index, j.fps[index], r)}
	if err := j.append(e); err != nil {
		return err
	}
	j.mu.Lock()
	j.done[index] = Result{Run: r.Run, Wall: r.Wall}
	j.mu.Unlock()
	return nil
}

// append marshals v as one JSONL line, writes and fsyncs it. Jobs complete
// at sweep granularity (seconds, not microseconds), so per-entry durability
// is cheap relative to what it buys: a kill -9 loses only in-flight jobs.
// A failed or short write (a full disk) is cut back off the file, best
// effort, so that only this entry is lost and not the next one with it.
func (j *Journal) append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("exp: journal %s is closed", j.path)
	}
	n, err := j.f.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		if n > 0 {
			_ = j.f.Truncate(j.size) // best effort: the write's error is the one to report
		}
		return err
	}
	j.size += int64(len(b))
	return j.f.Sync()
}

// Close releases the journal file. The journal stays resumable on disk.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// fingerprints maps jobs to their ordered fingerprints.
func fingerprints(jobs []Job) []string {
	fps := make([]string, len(jobs))
	for i, job := range jobs {
		fps[i] = job.Fingerprint()
	}
	return fps
}

// matchFingerprints compares two ordered job-fingerprint sets.
func matchFingerprints(recorded, current []string) error {
	if len(recorded) != len(current) {
		return fmt.Errorf("recorded %d jobs, current set has %d", len(recorded), len(current))
	}
	for i := range recorded {
		if recorded[i] != current[i] {
			return fmt.Errorf("job %d differs", i)
		}
	}
	return nil
}

// runSHA hashes a run's fingerprint for journal integrity checking.
func runSHA(run *stats.Run) string {
	sum := sha256.Sum256(run.Fingerprint())
	return hex.EncodeToString(sum[:16])
}

// RunSHA exposes the integrity hash of a run — the quantity
// WireResult.RunSHA carries.
func RunSHA(run *stats.Run) string { return runSHA(run) }
