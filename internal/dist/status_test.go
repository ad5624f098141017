package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStatusTableGolden pins the exact rendering of the operator board:
// summary counters and one row per worker — sorted by name, CN suffix,
// held-lease count with the active job label, the DRAINING marker. A
// conscious
// golden test: the table is an interface to operators and to the -watch
// board, and accidental reformatting should fail loudly.
func TestStatusTableGolden(t *testing.T) {
	s := Status{
		SetFP: "abc", Total: 16, Done: 6, Failed: 1, Resumed: 2,
		Pending: 5, Leased: 4, Workers: 3, Slots: 4,
		ETAMS:    12_300,
		Draining: 1, RejectedCNs: 2,
		PerWorker: []WorkerStatus{
			{Name: "manual-1", Slots: 2, Held: 3, Done: 4, EWMAMS: 250, Throughput: 4,
				Job: "banks=16 MD/GCN3@2"},
			{Name: "auto-2", Slots: 1, Held: 0, Done: 0, Draining: true},
			{Name: "auto-1", Slots: 1, Held: 1, Done: 2, EWMAMS: 500, Throughput: 2,
				CN: "lab-client", Job: "banks=8 MD/HSAIL@2"},
		},
	}
	want := strings.Join([]string{
		"dist: 6/16 done (1 failed, 2 resumed), 5 pending, 4 leased, 3 workers/4 slots, eta 12.3s, 1 draining, 2 CN-rejected",
		"  auto-1 (lab-client)      slots 1   held 1   done 2    ewma 500ms    2.00 jobs/s  on banks=8 MD/HSAIL@2",
		"  auto-2                   slots 1   held 0   done 0    ewma 0s       0.00 jobs/s  DRAINING",
		"  manual-1                 slots 2   held 3   done 4    ewma 250ms    4.00 jobs/s  on banks=16 MD/GCN3@2",
		"",
	}, "\n")
	if got := s.Table(); got != want {
		t.Errorf("Table() drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatusSnapshot drives a campaign's counters by hand and checks what
// the /status snapshot tells an operator sizing the fleet by hand: queue
// depth, lease backlog, live slots, and per-worker held leases, active job
// and throughput.
func TestStatusSnapshot(t *testing.T) {
	jobs := testJobs(t, 4) // 4 sweep points, 8 jobs
	now := time.Now()
	cp := newCampaign(jobs, Options{}, now)

	cp.mu.Lock()
	ws := cp.workerLocked("w1")
	ws.seen, ws.slots, ws.done, ws.ewma = now, 2, 2, 5*time.Second
	cp.state[0], cp.state[1] = stateDone, stateDone
	cp.done = 2
	cp.takeLocked("w1", now) // leases job 2
	cp.takeLocked("w1", now) // and job 3
	cp.mu.Unlock()
	s := cp.status(now)

	if s.Total != 8 || s.Done != 2 || s.Finished {
		t.Fatalf("status counters: %+v", s)
	}
	if s.Pending != 4 || s.Leased != 2 {
		t.Fatalf("queue depth %d / backlog %d, want 4 / 2", s.Pending, s.Leased)
	}
	if s.Slots != 2 || s.Workers != 1 {
		t.Fatalf("fleet: %d workers / %d slots, want 1 / 2", s.Workers, s.Slots)
	}
	if len(s.PerWorker) != 1 || s.PerWorker[0].Held != 2 || s.PerWorker[0].Done != 2 {
		t.Fatalf("per-worker rows: %+v", s.PerWorker)
	}
	// The active-job label names the lowest-indexed held lease.
	if want := jobs[2].String(); s.PerWorker[0].Job != want {
		t.Fatalf("active job %q, want %q", s.PerWorker[0].Job, want)
	}
	if tp := s.PerWorker[0].Throughput; tp < 0.19 || tp > 0.21 {
		t.Fatalf("throughput %v, want ~0.2 jobs/s", tp)
	}
	// The rendered forms carry the load-bearing numbers.
	if sum := s.Summary(); !strings.Contains(sum, "2/8 done") || !strings.Contains(sum, "4 pending") {
		t.Fatalf("summary line: %q", sum)
	}
	if tbl := s.Table(); !strings.Contains(tbl, "w1") || !strings.Contains(tbl, "held 2") {
		t.Fatalf("table: %q", tbl)
	}
	cp.abort()
	if fin := cp.status(now); !fin.Finished || !strings.Contains(fin.Summary(), "finished") {
		t.Fatalf("status after abort: %+v", fin)
	}
}

// TestStatusErrorKinds classifies every failure class FetchStatus can
// hit: transport errors are Unreachable, 503 is NotReady, 401/403 are
// Denied, other refusals and undecodable bodies are Protocol.
func TestStatusErrorKinds(t *testing.T) {
	ctx := context.Background()
	serve := func(code int, body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			fmt.Fprint(w, body)
		}))
	}
	cases := []struct {
		name string
		code int
		body string
		want StatusErrKind
	}{
		{"not-ready", http.StatusServiceUnavailable, "no campaign", StatusNotReady},
		{"unauthorized", http.StatusUnauthorized, "bad token", StatusDenied},
		{"forbidden", http.StatusForbidden, "bad CN", StatusDenied},
		{"server-error", http.StatusInternalServerError, "boom", StatusProtocol},
		{"bad-body", http.StatusOK, "this is not json", StatusProtocol},
	}
	for _, tc := range cases {
		ts := serve(tc.code, tc.body)
		_, err := FetchStatus(ctx, ts.URL, ClientOptions{})
		ts.Close()
		if err == nil {
			t.Fatalf("%s: FetchStatus succeeded", tc.name)
		}
		if kind, ok := StatusKindOf(err); !ok || kind != tc.want {
			t.Errorf("%s: kind = %v (typed %v), want %v", tc.name, kind, ok, tc.want)
		}
	}

	// A dead endpoint is Unreachable.
	ts := serve(http.StatusOK, "{}")
	addr := ts.URL
	ts.Close()
	_, err := FetchStatus(ctx, addr, ClientOptions{})
	if kind, ok := StatusKindOf(err); !ok || kind != StatusUnreachable {
		t.Errorf("closed server: kind = %v (typed %v), want %v", kind, ok, StatusUnreachable)
	}

	// Success decodes; non-StatusError values classify as Protocol and
	// report untyped.
	ts2 := serve(http.StatusOK, `{"total": 3}`)
	defer ts2.Close()
	st, err := FetchStatus(ctx, ts2.URL, ClientOptions{})
	if err != nil || st.Total != 3 {
		t.Fatalf("healthy fetch: %+v, %v", st, err)
	}
	if kind, ok := StatusKindOf(errors.New("plain")); ok || kind != StatusProtocol {
		t.Errorf("plain error: kind = %v (typed %v)", kind, ok)
	}
}
