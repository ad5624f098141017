package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"ilsim/internal/stats"
)

// WireResult is the portable serialization of one job's Result: what the
// journal appends per successful job and what a distributed worker streams
// back to its coordinator. Jobs are identified by fingerprint rather than
// by value, and successful runs carry an integrity hash so corruption —
// on disk or in flight — is detected at decode time. exp.Job itself needs
// no wire twin: every field is a plain exported value, so it marshals
// directly as JSON.
type WireResult struct {
	// Index is the job's position in the submitted job set.
	Index int `json:"index"`
	// Job is the job's Fingerprint(); the receiving side validates it
	// against its own job set before accepting the result.
	Job string `json:"job"`
	// JobName is the job's String(), kept for human-readable records.
	JobName string `json:"jobName,omitempty"`
	WallNS  int64  `json:"wallNs,omitempty"`
	// Err and ErrClass record a failure (the job is not re-run by the
	// receiver; the taxonomy class survives the wire via RemoteError).
	Err      string `json:"err,omitempty"`
	ErrClass string `json:"errClass,omitempty"`
	// Run and RunSHA record a success; RunSHA hashes Run.Fingerprint().
	Run    *stats.Run `json:"run,omitempty"`
	RunSHA string     `json:"runSha,omitempty"`
}

// EncodeResult serializes one result for index i of a job set whose i-th
// fingerprint is fp.
func EncodeResult(i int, fp string, r Result) WireResult {
	w := WireResult{Index: i, Job: fp, JobName: r.Job.String(), WallNS: int64(r.Wall)}
	if r.Err != nil {
		w.Err = r.Err.Error()
		w.ErrClass = Classify(r.Err).String()
	} else {
		w.Run = r.Run
		w.RunSHA = runSHA(r.Run)
	}
	return w
}

// Decode reconstructs the Result. Failures come back with a *RemoteError
// preserving the sender's error class; successes are verified against
// their integrity hash and rejected (with a non-nil second return) when
// the run does not hash to RunSHA.
func (w WireResult) Decode() (Result, error) {
	r := Result{Wall: time.Duration(w.WallNS)}
	if w.Err != "" {
		r.Err = &RemoteError{Msg: w.Err, Class: ParseClass(w.ErrClass)}
		return r, nil
	}
	if w.Run == nil {
		return r, fmt.Errorf("exp: wire result for job %d has neither run nor error", w.Index)
	}
	if got := runSHA(w.Run); got != w.RunSHA {
		return r, &IntegrityError{Index: w.Index, Want: w.RunSHA, Got: got}
	}
	r.Run = w.Run
	return r, nil
}

// RemoteError is a job failure that crossed a serialization boundary (the
// journal or the distributed-worker wire). The original error value is
// gone; its text and taxonomy class survive, so Classify keeps working on
// the receiving side.
type RemoteError struct {
	// Msg is the original error text.
	Msg string
	// Class is the original error's Classify result.
	Class Class
}

func (e *RemoteError) Error() string { return e.Msg }

// IntegrityError is a payload whose content does not hash to its declared
// integrity hash — corruption on disk or in flight, or a sender computing
// hashes over different bytes than it shipped. Classifies as
// ClassIntegrity; a distributed coordinator refuses the result and frees
// the sender's lease on the job.
type IntegrityError struct {
	// Index is the job index the payload claimed to answer.
	Index int
	// Want is the hash the payload declared; Got is the hash of its
	// actual content.
	Want, Got string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("exp: wire result for job %d fails its integrity hash (declared %s, content hashes to %s)",
		e.Index, e.Want, e.Got)
}

// ParseClass is the inverse of Class.String. Unknown names — among them
// "transient", a class older journals may hold — parse as ClassPermanent,
// the conservative reading.
func ParseClass(s string) Class {
	for _, c := range []Class{ClassOK, ClassPermanent,
		ClassCanceled, ClassTimeout, ClassBudget, ClassPanic, ClassIntegrity} {
		if c.String() == s {
			return c
		}
	}
	return ClassPermanent
}

// JobSetFingerprint hashes the ordered job fingerprints into one campaign
// identity. Coordinator and workers exchange it during the distributed
// handshake, and any two processes that disagree on it — different job
// sets, or different binaries that serialize jobs differently — refuse to
// cooperate instead of silently mixing results.
func JobSetFingerprint(jobs []Job) string {
	h := sha256.New()
	for _, fp := range fingerprints(jobs) {
		io.WriteString(h, fp)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
