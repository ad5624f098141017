package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestStaleProtocolV1Refused pins the version gate over a real socket: a
// worker speaking an older protocol — version 1, or the version 5 whose
// workers still expect drain flags on their lease and heartbeat replies — is
// refused at join with 409, whether or not the campaign has installed yet,
// since the version check needs none, and the campaign still completes on a
// current worker.
func TestStaleProtocolV1Refused(t *testing.T) {
	jobs := testJobs(t, 1)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{}, jobs)

	for _, version := range []int{1, 5} {
		body, _ := json.Marshal(joinRequest{Version: version, Worker: "relic"})
		resp, err := http.Post("http://"+c.Addr()+"/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("v%d join got %d, want %d", version, resp.StatusCode, http.StatusConflict)
		}
	}

	w := &Worker{Coordinator: c.Addr(), Name: "current"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if oc := <-out; oc.err != nil || oc.metrics.Failed != 0 {
		t.Fatalf("campaign after the refused joins: %+v, %v", oc.metrics, oc.err)
	}
}

// TestStatusAutoscaling drives a campaign's counters by hand and checks
// the /status snapshot exposes the autoscaling signals: queue depth,
// lease backlog, per-worker throughput, and a WantWorkers hint scaled to
// the configured horizon.
func TestStatusAutoscaling(t *testing.T) {
	jobs := testJobs(t, 4) // 4 sweep points, 8 jobs
	now := time.Now()
	cp := newCampaign(jobs, Options{ScaleHorizon: 10 * time.Second}, now)

	cp.mu.Lock()
	ws := cp.workerLocked("w1")
	ws.seen, ws.slots, ws.done, ws.ewma = now, 2, 2, 5*time.Second
	cp.state[0], cp.state[1] = stateDone, stateDone
	cp.done = 2
	cp.ewma = 5 * time.Second
	cp.takeLocked("w1", now) // leases job 2
	cp.takeLocked("w1", now) // and job 3
	cp.mu.Unlock()
	s := cp.status(now)

	if s.Total != 8 || s.Done != 2 {
		t.Fatalf("status counters: %+v", s)
	}
	if s.Pending != 4 || s.Leased != 2 {
		t.Fatalf("queue depth %d / backlog %d, want 4 / 2", s.Pending, s.Leased)
	}
	if s.Slots != 2 || s.Workers != 1 {
		t.Fatalf("fleet: %d workers / %d slots, want 1 / 2", s.Workers, s.Slots)
	}
	// 6 remaining jobs at 5s each into a 10s horizon needs 3 slots.
	if s.WantWorkers != 3 {
		t.Fatalf("WantWorkers = %d, want 3", s.WantWorkers)
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
	// No estimate → no hint; finished → no hint.
	cp.mu.Lock()
	cp.ewma = 0
	cp.mu.Unlock()
	noEst := cp.status(now)
	cp.mu.Lock()
	cp.ewma = 5 * time.Second
	cp.mu.Unlock()
	cp.abort()
	finished := cp.status(now)
	if noEst.WantWorkers != 0 {
		t.Fatalf("hint without an estimate: %d", noEst.WantWorkers)
	}
	if finished.WantWorkers != 0 || !finished.Finished {
		t.Fatalf("hint after finish: %+v", finished)
	}

	// The rendered forms carry the load-bearing numbers.
	if sum := s.Summary(); !contains(sum, "2/8 done") || !contains(sum, "4 pending") || !contains(sum, "want 3 slots") {
		t.Fatalf("summary line: %q", sum)
	}
	if tbl := s.Table(); !contains(tbl, "w1") || !contains(tbl, "held 2") {
		t.Fatalf("table: %q", tbl)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
