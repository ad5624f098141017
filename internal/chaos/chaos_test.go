package chaos

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer answers every request with a fixed JSON body and counts hits.
func echoServer(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"answer":42,"payload":"abcdefghijklmnopqrstuvwxyz"}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// get issues one GET through the transport.
func get(t *testing.T, tr *Transport, url string) (*http.Response, error) {
	t.Helper()
	client := &http.Client{Transport: tr}
	return client.Get(url)
}

func TestEveryIsExactlyPeriodic(t *testing.T) {
	srv := echoServer(t, nil)
	plan := Plan{Seed: 1, Rules: []Rule{{Every: 3, Fault: Fault{Drop: true}}}}
	tr := plan.Transport(nil)
	var drops []int
	for i := 1; i <= 12; i++ {
		resp, err := get(t, tr, srv.URL)
		if err != nil {
			drops = append(drops, i)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	want := []int{3, 6, 9, 12}
	if len(drops) != len(want) {
		t.Fatalf("drops at %v, want %v", drops, want)
	}
	for i := range want {
		if drops[i] != want[i] {
			t.Fatalf("drops at %v, want %v", drops, want)
		}
	}
	if st := tr.Stats(); st.Drops != 4 || st.Requests != 12 {
		t.Fatalf("stats = %+v, want 4 drops / 12 requests", st)
	}
}

func TestSeededScheduleReplays(t *testing.T) {
	srv := echoServer(t, nil)
	outcomes := func() string {
		plan := Plan{Seed: 99, Rules: []Rule{{Prob: 0.4, Fault: Fault{Drop: true}}}}
		tr := plan.Transport(nil)
		var b strings.Builder
		for i := 0; i < 40; i++ {
			resp, err := get(t, tr, srv.URL)
			if err != nil {
				b.WriteByte('x')
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			b.WriteByte('.')
		}
		return b.String()
	}
	first, second := outcomes(), outcomes()
	if first != second {
		t.Fatalf("same seed, different schedules:\n%s\n%s", first, second)
	}
	if !strings.Contains(first, "x") || !strings.Contains(first, ".") {
		t.Fatalf("p=0.4 over 40 requests produced a degenerate schedule %q", first)
	}
}

func TestCorruptBreaksJSONDecode(t *testing.T) {
	srv := echoServer(t, nil)
	plan := Plan{Seed: 5, Rules: []Rule{{Every: 1, Fault: Fault{Corrupt: true}}}}
	tr := plan.Transport(nil)
	for i := 0; i < 20; i++ {
		resp, err := get(t, tr, srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d read: %v", i, err)
		}
		var v struct {
			Answer int `json:"answer"`
		}
		if err := json.Unmarshal(body, &v); err == nil {
			t.Fatalf("request %d: corrupted body still decodes: %q", i, body)
		}
		if !bytes.Contains(body, []byte{0x01}) {
			t.Fatalf("request %d: no control byte in %q", i, body)
		}
	}
	if st := tr.Stats(); st.Corrupts != 20 {
		t.Fatalf("stats = %+v, want 20 corrupts", st)
	}
}

func TestTruncateHalvesBody(t *testing.T) {
	srv := echoServer(t, nil)
	plan := Plan{Seed: 1, Rules: []Rule{{Every: 1, Fault: Fault{Truncate: true}}}}
	resp, err := get(t, plan.Transport(nil), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	full := len(`{"answer":42,"payload":"abcdefghijklmnopqrstuvwxyz"}`)
	if len(body) != full/2 {
		t.Fatalf("truncated body is %d bytes, want %d", len(body), full/2)
	}
	if resp.ContentLength != int64(full/2) {
		t.Fatalf("ContentLength %d, want %d", resp.ContentLength, full/2)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	var hits atomic.Int64
	srv := echoServer(t, &hits)
	plan := Plan{Seed: 1, Rules: []Rule{{Every: 2, Fault: Fault{Dup: true}}}}
	tr := plan.Transport(nil)
	client := &http.Client{Transport: tr}
	for i := 0; i < 4; i++ {
		resp, err := client.Post(srv.URL+"/result", "application/json",
			strings.NewReader(`{"worker":"w1"}`))
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// 4 posts, 2 of them duplicated -> 6 server-side deliveries.
	if got := hits.Load(); got != 6 {
		t.Fatalf("server saw %d deliveries, want 6", got)
	}
	if st := tr.Stats(); st.Dups != 2 {
		t.Fatalf("stats = %+v, want 2 dups", st)
	}
}

func TestPathScoping(t *testing.T) {
	srv := echoServer(t, nil)
	plan := Plan{Seed: 1, Rules: []Rule{{Path: "/lease", Every: 1, Fault: Fault{Drop: true}}}}
	tr := plan.Transport(nil)
	if _, err := get(t, tr, srv.URL+"/lease"); err == nil {
		t.Fatal("/lease should have been dropped")
	}
	resp, err := get(t, tr, srv.URL+"/status")
	if err != nil {
		t.Fatalf("/status should be untouched: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func TestDelayIsApplied(t *testing.T) {
	srv := echoServer(t, nil)
	plan := Plan{Seed: 1, Rules: []Rule{{Every: 1, Fault: Fault{Delay: 50 * time.Millisecond}}}}
	tr := plan.Transport(nil)
	start := time.Now()
	resp, err := get(t, tr, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("request took %v, want >= 50ms delay", elapsed)
	}
	if st := tr.Stats(); st.Delays != 1 {
		t.Fatalf("stats = %+v, want 1 delay", st)
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("seed=7,drop=0.1,dup=0.05,corrupt=0.2,truncate=0.1,delay=50ms:0.3")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 {
		t.Fatalf("seed = %d, want 7", plan.Seed)
	}
	if len(plan.Rules) != 5 {
		t.Fatalf("got %d rules, want 5", len(plan.Rules))
	}
	if !plan.Rules[0].Drop || plan.Rules[0].Prob != 0.1 {
		t.Fatalf("rule 0 = %+v, want drop@0.1", plan.Rules[0])
	}
	if plan.Rules[4].Delay != 50*time.Millisecond || plan.Rules[4].Prob != 0.3 {
		t.Fatalf("rule 4 = %+v, want 50ms delay@0.3", plan.Rules[4])
	}

	for _, bad := range []string{
		"", "bogus", "drop=2", "drop=-0.5", "delay=50ms", "delay=x:0.5",
		"partition=2s+1s", "wat=1", "seed=abc",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", bad)
		}
	}
}
