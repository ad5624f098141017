package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStatusTableGolden pins the exact rendering of the operator board:
// summary counters and one row per worker — sorted by name, fleet column
// ("manual" for hand-launched workers), CN suffix, held-lease count with
// the active job label, DRAINING and QUARANTINED markers. A conscious
// golden test: the table is an interface to operators and to the -watch
// board, and accidental reformatting should fail loudly.
func TestStatusTableGolden(t *testing.T) {
	s := Status{
		SetFP: "abc", Total: 16, Done: 6, Failed: 1, Resumed: 2,
		Pending: 5, Leased: 4, Workers: 3, Slots: 4,
		ETAMS: 12_300, WantWorkers: 6,
		Quarantined: 1, Draining: 1, RejectedCNs: 2,
		PerWorker: []WorkerStatus{
			{Name: "manual-1", Slots: 2, Held: 3, Done: 4, EWMAMS: 250, Throughput: 4,
				Job: "banks=16 MD/GCN3@2"},
			{Name: "auto-2", Slots: 1, Held: 0, Done: 0, Fleet: "gcn3", Draining: true},
			{Name: "auto-1", Slots: 1, Held: 1, Done: 2, EWMAMS: 500, Throughput: 2,
				Fleet: "gcn3", CN: "lab-client", Quarantined: true, Score: 6.5,
				Dissents: 1, Integrity: 2, Expiries: 3,
				Job: "banks=8 MD/HSAIL@2"},
		},
	}
	want := strings.Join([]string{
		"dist: 6/16 done (1 failed, 2 resumed), 5 pending, 4 leased, 3 workers/4 slots, eta 12.3s, want 6 slots, 1 quarantined, 1 draining, 2 CN-rejected",
		"  auto-1 (lab-client)      gcn3       slots 1   held 1   done 2    ewma 500ms    2.00 jobs/s  on banks=8 MD/HSAIL@2  QUARANTINED (score 6.5, 1 dissents, 2 integrity, 3 expiries)",
		"  auto-2                   gcn3       slots 1   held 0   done 0    ewma 0s       0.00 jobs/s  DRAINING",
		"  manual-1                 manual     slots 2   held 3   done 4    ewma 250ms    4.00 jobs/s  on banks=16 MD/GCN3@2",
		"",
	}, "\n")
	if got := s.Table(); got != want {
		t.Errorf("Table() drifted.\ngot:\n%s\nwant:\n%s", got, want)
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

// TestStatusTracker pins the shared retry/give-up policy: startup noise
// before first contact is endless, Denied aborts immediately even before
// first contact, and after first contact MaxMisses consecutive failures
// give up while any success resets the budget.
func TestStatusTracker(t *testing.T) {
	unreachable := &StatusError{Addr: "x", Kind: StatusUnreachable, Err: errors.New("refused")}
	notReady := &StatusError{Addr: "x", Kind: StatusNotReady, Err: errors.New("503")}
	denied := &StatusError{Addr: "x", Kind: StatusDenied, Err: errors.New("401")}

	// Pre-contact noise never gives up.
	var tr StatusTracker
	for i := 0; i < 50; i++ {
		if err := tr.Observe(notReady); err != nil {
			t.Fatalf("pre-contact 503 #%d became terminal: %v", i, err)
		}
		if err := tr.Observe(unreachable); err != nil {
			t.Fatalf("pre-contact refusal #%d became terminal: %v", i, err)
		}
	}
	if tr.Connected() {
		t.Fatal("tracker claims contact before any success")
	}

	// Denied is fatal immediately, contact or not.
	var deny StatusTracker
	if err := deny.Observe(denied); err == nil {
		t.Fatal("Denied before contact was tolerated")
	}

	// After contact: misses accumulate, a success resets, the budget
	// exhausts.
	tr2 := StatusTracker{MaxMisses: 3}
	if err := tr2.Observe(nil); err != nil || !tr2.Connected() {
		t.Fatalf("first success: %v, connected %v", err, tr2.Connected())
	}
	for i := 0; i < 2; i++ {
		if err := tr2.Observe(unreachable); err != nil {
			t.Fatalf("miss %d within budget became terminal: %v", i+1, err)
		}
	}
	if err := tr2.Observe(nil); err != nil {
		t.Fatalf("success after misses: %v", err)
	}
	var terminal error
	for i := 0; i < 3; i++ {
		terminal = tr2.Observe(unreachable)
	}
	if terminal == nil {
		t.Fatal("tracker never gave up after MaxMisses consecutive failures")
	}
	if !strings.Contains(terminal.Error(), "coordinator gone") {
		t.Errorf("terminal error lacks the give-up wording: %v", terminal)
	}
	if !errors.Is(terminal, unreachable.Err) && !strings.Contains(terminal.Error(), "refused") {
		t.Errorf("terminal error dropped the cause: %v", terminal)
	}
}
