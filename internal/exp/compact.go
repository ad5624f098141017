package exp

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
)

// CompactJournal rewrites the journal at path keeping the header and only
// the latest result entry per job index, dropping vote audit records and
// superseded entries (a failure later replaced by a success, or repeated
// failures). Entries are rewritten in job-index order, byte-for-byte as
// they were appended, so a compacted journal resumes to exactly the same
// state as the original. The rewrite is crash-safe: a temp file in the
// same directory is fully written and fsynced, then atomically renamed
// over the original. Returns how many entries were kept and dropped.
func CompactJournal(path string) (kept, dropped int, err error) {
	// Entries are checked as a resume checks them, against the header's own
	// job set; the latest raw line per job index is kept verbatim, so
	// compaction cannot perturb what a resume decodes.
	j := &Journal{path: path, done: make(map[int]Result)}
	var headerLine []byte
	latest := make(map[int][]byte)
	_, lines, err := readJournal(path, func(hdr journalHeader, raw []byte) error {
		j.fps, headerLine = hdr.Jobs, raw
		return nil
	}, func(e journalEntry, raw []byte) error {
		if e.Type == "vote" {
			return nil
		}
		if err := j.admit(e); err != nil {
			return err
		}
		latest[e.Index] = raw
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	dropped = lines - len(latest)

	indexes := make([]int, 0, len(latest))
	for i := range latest {
		indexes = append(indexes, i)
	}
	sort.Ints(indexes)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".compact-*")
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriter(tmp)
	w.Write(headerLine)
	for _, i := range indexes {
		w.Write(latest[i])
		kept++
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, 0, err
	}
	tmpName := tmp.Name()
	if err := tmp.Close(); err != nil {
		return 0, 0, err
	}
	tmp = nil
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, 0, err
	}
	// Persist the rename itself; best-effort on filesystems that refuse
	// directory fsync.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return kept, dropped, nil
}
