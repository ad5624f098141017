package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ilsim/internal/dist"
)

// fakeInstance is a replica that does nothing but record what the
// supervisor asks of it; exit ends it the way the test says.
type fakeInstance struct {
	name         string
	stops, kills int
	err          error
	done         chan struct{}
}

func (i *fakeInstance) Name() string          { return i.name }
func (i *fakeInstance) Stop()                 { i.stops++ }
func (i *fakeInstance) Kill()                 { i.kills++ }
func (i *fakeInstance) Done() <-chan struct{} { return i.done }
func (i *fakeInstance) Err() error            { return i.err }

func (i *fakeInstance) exit(err error) {
	i.err = err
	close(i.done)
}

// fakeLauncher hands out fakeInstances and keeps them by name.
type fakeLauncher struct {
	mu        sync.Mutex
	instances map[string]*fakeInstance
	launches  int
}

func (l *fakeLauncher) Launch(_ context.Context, spec Spec) (Instance, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.instances == nil {
		l.instances = make(map[string]*fakeInstance)
	}
	inst := &fakeInstance{name: spec.Name, done: make(chan struct{})}
	l.instances[spec.Name] = inst
	l.launches++
	return inst, nil
}

// noHTTP fails the test when the supervisor sends anything at all.
type noHTTP struct{ t *testing.T }

func (n noHTTP) RoundTrip(req *http.Request) (*http.Response, error) {
	n.t.Errorf("supervisor sent %s %s; scale-down must need no request", req.Method, req.URL)
	return nil, errors.New("no HTTP in this test")
}

// TestSupervisorScaleDownStopsVictim drives reconcile and reap by hand —
// fake replicas, injected status, explicit clock, no socket. Scale-down is
// one Stop() on the victim pickVictimsLocked ranks cheapest and no request
// to anyone; a victim still up DrainGrace later is killed, once; however a
// draining replica ends it is reaped as a drain, not booked as a crash or
// mistaken for the campaign's end; and while it is draining but alive — the
// coordinator still counting its slots — the next target neither shrinks nor
// grows the fleet on its account.
func TestSupervisorScaleDownStopsVictim(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // ends the exit watchers of the replicas still up
	launcher := &fakeLauncher{}
	s := &Supervisor{
		Coordinator:    "127.0.0.1:1",
		Client:         dist.ClientOptions{HTTPClient: &http.Client{Transport: noHTTP{t}}},
		Fleet:          "f",
		Launcher:       launcher,
		Policy:         Policy{Min: 1, Max: 3, UpCooldown: time.Millisecond, DownCooldown: time.Millisecond},
		SlotsPerWorker: 1,
		DrainGrace:     10 * time.Second,
		BreakerCrashes: 5,
	}
	// What Run installs before its first reconcile.
	s.logf = t.Logf
	s.replicas = make(map[string]*replica)
	s.wake = make(chan struct{}, 1)
	s.decider = Decider{Policy: s.Policy.withDefaults()}
	hint := func(want, slots int, rows ...dist.WorkerStatus) {
		s.status, s.haveStatus = dist.Status{WantWorkers: want, Slots: slots, PerWorker: rows}, true
	}
	calls := func() (stops, kills int) {
		for _, inst := range launcher.instances {
			stops += inst.stops
			kills += inst.kills
		}
		return stops, kills
	}
	now := time.Unix(1_700_000_000, 0)

	hint(3, 0)
	s.reconcile(ctx, now)
	if snap := s.Snapshot(); snap.Running != 3 || launcher.launches != 3 {
		t.Fatalf("bootstrap: %+v after %d launches, want 3 running", snap, launcher.launches)
	}

	// The hint falls to 2. f-2 is idle, so it is the cheapest victim.
	busy := []dist.WorkerStatus{
		{Name: "f-1", Fleet: "f", Slots: 1, Held: 1, Throughput: 2},
		{Name: "f-2", Fleet: "f", Slots: 1},
		{Name: "f-3", Fleet: "f", Slots: 1, Held: 1, Throughput: 1},
	}
	hint(2, 3, busy...)
	now = now.Add(time.Second)
	stoppedAt := now
	s.reconcile(ctx, now)
	victim := launcher.instances["f-2"]
	if stops, kills := calls(); victim.stops != 1 || stops != 1 || kills != 0 {
		t.Fatalf("scale-down: victim stopped %d times, fleet %d stops %d kills; want exactly one Stop, on f-2", victim.stops, stops, kills)
	}
	if snap := s.Snapshot(); snap.Running != 2 || snap.Draining != 1 {
		t.Fatalf("after the scale-down: %+v, want 2 running and 1 draining", snap)
	}

	// f-2 is draining but alive and the coordinator still counts its slot:
	// the same hint must read as steady, not as one replica too many (a
	// second Stop) or one too few (a launch).
	now = now.Add(time.Second)
	s.reconcile(ctx, now)
	if stops, _ := calls(); stops != 1 || launcher.launches != 3 || s.target != 2 {
		t.Fatalf("draining-but-alive replica moved the target: %d stops, %d launches, target %d; want 1, 3, 2", stops, launcher.launches, s.target)
	}

	// Stop → Kill after DrainGrace, once.
	s.reap(ctx, stoppedAt.Add(s.DrainGrace-time.Second))
	if victim.kills != 0 {
		t.Fatal("victim killed before its grace ran out")
	}
	s.reap(ctx, stoppedAt.Add(s.DrainGrace))
	s.reap(ctx, stoppedAt.Add(2*s.DrainGrace))
	if stops, kills := calls(); victim.kills != 1 || kills != 1 || stops != 1 {
		t.Fatalf("overdue drain: victim killed %d times, fleet %d stops %d kills; want one Kill, on f-2", victim.kills, stops, kills)
	}
	victim.exit(errors.New("signal: killed"))
	now = stoppedAt.Add(2*s.DrainGrace + time.Second)
	s.reap(ctx, now)
	if snap := s.Snapshot(); snap.Running != 2 || snap.Draining+snap.Backoff != 0 || launcher.launches != 3 {
		t.Fatalf("killed victim was not reaped as a drain: %+v, %d launches", snap, launcher.launches)
	}

	// The hint falls to 1: f-3 is the slower of the two busy replicas. Its
	// clean exit is a finished drain — not a crash to relaunch, and not the
	// campaign-complete signal a running replica's clean exit is.
	hint(1, 2, busy[0], busy[2])
	s.reconcile(ctx, now)
	second := launcher.instances["f-3"]
	if stops, _ := calls(); second.stops != 1 || stops != 2 {
		t.Fatalf("second scale-down: f-3 stopped %d times, fleet %d stops; want 1 and 2", second.stops, stops)
	}
	second.exit(nil)
	s.reap(ctx, now.Add(time.Second))
	snap := s.Snapshot()
	if snap.Running != 1 || len(snap.Replicas) != 1 || snap.Replicas[0].Name != "f-1" || snap.Replicas[0].Crashes != 0 {
		t.Fatalf("after the clean drain: %+v, want only f-1 running", snap)
	}
	if s.finished || launcher.launches != 3 {
		t.Fatalf("clean exit of a draining replica: finished %v, %d launches; want a plain reap", s.finished, launcher.launches)
	}
	if _, kills := calls(); kills != 1 {
		t.Fatalf("%d kills in all, want the one overdue drain", kills)
	}
}

// TestSupervisorReusesStatusConnection: the supervisor polls /status every
// Poll for as long as a campaign runs, so it must build its client once.
// TLS options build a fresh transport per client; polling through a new one
// each time opens a connection per poll and leaves every one of them idle,
// never closed, on both ends.
func TestSupervisorReusesStatusConnection(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var polls, conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 5 {
			cancel()
		}
		json.NewEncoder(w).Encode(dist.Status{Total: 1})
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.StartTLS()
	defer ts.Close()

	s := &Supervisor{
		Coordinator: ts.URL,
		Client:      dist.ClientOptions{TLSSkipVerify: true},
		Launcher:    &fakeLauncher{},
		Policy:      Policy{Min: 0, Max: 1},
		Poll:        5 * time.Millisecond,
		Logf:        t.Logf,
	}
	if err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("supervisor: %v, want the cancellation", err)
	}
	if p, c := polls.Load(), conns.Load(); p < 5 || c != 1 {
		t.Fatalf("%d status polls opened %d connections, want one reused connection", p, c)
	}
}
