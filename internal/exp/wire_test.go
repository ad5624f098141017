package exp

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// wireResultFor executes one tiny job and encodes its result, giving the
// round-trip tests a real stats.Run to carry.
func wireResultFor(t *testing.T) (Job, WireResult) {
	t.Helper()
	jobs := tinyJobs(t, 1)[:1]
	results, _, err := New(1).Run(jobs)
	if err != nil || results[0].Err != nil {
		t.Fatalf("run: %v / %v", err, results[0].Err)
	}
	return jobs[0], EncodeResult(0, jobs[0].Fingerprint(), results[0])
}

// TestWireResultRoundTrip proves a successful result survives
// JSON + Decode with its run fingerprint intact — the byte-identity the
// distributed campaign's determinism guarantee rests on.
func TestWireResultRoundTrip(t *testing.T) {
	_, w := wireResultFor(t)
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	r, err := back.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Err != nil || r.Run == nil {
		t.Fatalf("decoded result: err %v, run %v", r.Err, r.Run)
	}
	if string(r.Run.Fingerprint()) != string(w.Run.Fingerprint()) {
		t.Fatal("run fingerprint changed across the wire")
	}
	if r.Wall != time.Duration(w.WallNS) {
		t.Fatalf("wall lost: %v", r.Wall)
	}
}

// TestWireResultIntegrity tampers with a serialized run and expects Decode
// to reject it.
func TestWireResultIntegrity(t *testing.T) {
	_, w := wireResultFor(t)
	w.Run.Cycles++
	if _, err := w.Decode(); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("tampered result decoded: %v", err)
	}
	w.Run = nil
	if _, err := w.Decode(); err == nil {
		t.Fatal("run-less success decoded")
	}
}

// TestWireResultErrorClassSurvives encodes each failure class and checks
// Classify agrees on the decoded side, so remote failures keep their
// report semantics.
func TestWireResultErrorClassSurvives(t *testing.T) {
	job := tinyJobs(t, 1)[0]
	for _, class := range []Class{ClassPermanent, ClassTimeout, ClassBudget, ClassPanic} {
		var err error
		switch class {
		case ClassPermanent:
			err = errors.New("deterministic")
		case ClassTimeout:
			err = context.DeadlineExceeded
		case ClassBudget:
			err = ErrBudgetExceeded
		case ClassPanic:
			err = &PanicError{Job: job.String(), Value: "boom"}
		}
		w := EncodeResult(0, job.Fingerprint(), Result{Job: job, Err: err})
		r, derr := w.Decode()
		if derr != nil {
			t.Fatalf("%s: decode: %v", class, derr)
		}
		if got := Classify(r.Err); got != class {
			t.Errorf("class %s became %s after the wire", class, got)
		}
	}
}

// TestParseClassRoundTrip checks every class name parses back, and unknown
// names — "transient" among them — land on the conservative ClassPermanent.
func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassOK, ClassPermanent,
		ClassCanceled, ClassTimeout, ClassBudget, ClassPanic, ClassIntegrity} {
		if got := ParseClass(c.String()); got != c {
			t.Errorf("ParseClass(%q) = %s", c.String(), got)
		}
	}
	for _, name := range []string{"martian", "transient"} {
		if got := ParseClass(name); got != ClassPermanent {
			t.Errorf("unknown class %q parsed as %s", name, got)
		}
	}
}

// TestJobSetFingerprint pins the handshake identity: stable across calls,
// sensitive to any job change and to job order.
func TestJobSetFingerprint(t *testing.T) {
	jobs := tinyJobs(t, 2)
	if JobSetFingerprint(jobs) != JobSetFingerprint(jobs) {
		t.Fatal("fingerprint unstable")
	}
	reordered := []Job{jobs[1], jobs[0], jobs[2], jobs[3]}
	if JobSetFingerprint(jobs) == JobSetFingerprint(reordered) {
		t.Fatal("fingerprint ignores job order")
	}
	changed := append([]Job(nil), jobs...)
	changed[0].Scale++
	if JobSetFingerprint(jobs) == JobSetFingerprint(changed) {
		t.Fatal("fingerprint ignores job content")
	}
}
