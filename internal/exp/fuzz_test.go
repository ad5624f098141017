package exp

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzWireResult fuzzes the wire codec shared by the journal and the
// distributed-worker protocol. Any byte stream may arrive; the invariant
// is that whatever Decode accepts is internally consistent — a success
// must satisfy its integrity hash and survive a re-encode round trip, a
// failure must classify as the class it declares — and that mutating an
// accepted success is always detected. The corpus seeds from a real
// journal (golden lines produced by actually executing a job) plus
// hand-broken variants.
func FuzzWireResult(f *testing.F) {
	jobs := tinyJobs(f, 1)
	results, _, err := New(1).Run(jobs)
	if err != nil {
		f.Fatal(err)
	}

	// Golden journal lines: run a journaled campaign with one success, then
	// seed every JSONL line the file holds, plus the failure line journals
	// held before only successes were journaled.
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	j, err := OpenJournal(path, jobs, false)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Record(0, results[0]); err != nil {
		f.Fatal(err)
	}
	j.Close()
	golden, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		f.Add([]byte(line))
	}
	fail := Result{Job: jobs[1], Err: errors.New("flaky link")}
	fb, err := json.Marshal(journalEntry{Type: "result", WireResult: EncodeResult(1, jobs[1].Fingerprint(), fail)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fb)

	// Failure variants for every taxonomy class, plus broken payloads:
	// a flipped integrity hash, a truncated run, and raw garbage.
	for _, werr := range []error{
		errors.New("deterministic"),
		context.DeadlineExceeded,
		ErrBudgetExceeded,
		&PanicError{Job: jobs[0].String(), Value: "boom"},
	} {
		b, err := json.Marshal(EncodeResult(0, jobs[0].Fingerprint(), Result{Job: jobs[0], Err: werr}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	good := EncodeResult(0, jobs[0].Fingerprint(), results[0])
	tampered := good
	tampered.RunSHA = strings.Repeat("0", len(good.RunSHA))
	tb, _ := json.Marshal(tampered)
	f.Add(tb)
	runless := good
	runless.Run = nil
	rb, _ := json.Marshal(runless)
	f.Add(rb)
	f.Add([]byte(`{"index":-3,"job":""}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireResult
		if json.Unmarshal(data, &w) != nil {
			return // not a wire result; nothing to hold to account
		}
		r, err := w.Decode()
		if err != nil {
			return // rejected: the codec may refuse anything it distrusts
		}
		switch {
		case w.Err != "":
			if r.Err == nil {
				t.Fatalf("declared failure decoded with nil error: %q", data)
			}
			var re *RemoteError
			if !errors.As(r.Err, &re) {
				t.Fatalf("decoded failure is not a RemoteError: %T", r.Err)
			}
			if got := Classify(r.Err); got != ParseClass(w.ErrClass) {
				t.Fatalf("decoded class %s, declared %s", got, ParseClass(w.ErrClass))
			}
		default:
			if r.Run == nil {
				t.Fatalf("accepted success carries no run: %q", data)
			}
			// The accepted run must hash to its declared integrity hash…
			if got := runSHA(r.Run); got != w.RunSHA {
				t.Fatalf("accepted success violates its integrity hash: %s != %s", got, w.RunSHA)
			}
			// …must survive a re-encode round trip…
			reb, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			var back WireResult
			if err := json.Unmarshal(reb, &back); err != nil {
				t.Fatal(err)
			}
			if _, err := back.Decode(); err != nil {
				t.Fatalf("accepted result failed its own round trip: %v", err)
			}
			// …and any mutation of the payload must be detected.
			mutated := w
			run := *w.Run
			run.Cycles++
			mutated.Run = &run
			if _, err := mutated.Decode(); err == nil {
				t.Fatalf("mutated run passed the integrity check: %q", data)
			}
		}
	})
}
