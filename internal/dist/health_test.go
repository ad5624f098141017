package dist

import (
	"testing"
	"time"
)

// healthCampaign builds a bare campaign for driving the health ledger
// directly, with a "bystander" worker kept alive so the last-live-worker
// quarantine guard does not interfere (cases that test the guard itself
// skip the bystander).
func healthCampaign(t *testing.T, bystander bool, now time.Time) *campaign {
	t.Helper()
	cp := newCampaign(nil, Options{LeaseTTL: time.Minute, Logf: t.Logf}, now)
	if bystander {
		cp.workerLocked("bystander").seen = now
	}
	return cp
}

// TestHealthLedger drives strike sequences with pinned clocks through the
// score/decay/quarantine machinery: the weighted events, the exponential
// forgetting, the threshold, and the probation-with-parole re-admission.
func TestHealthLedger(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	pol := defaultHealthPolicy() // threshold 7.5, probation 5m, half-life 10m
	type strike struct {
		at     time.Duration
		weight float64
	}
	expiries := func(n int) []strike {
		out := make([]strike, n)
		for i := range out {
			out[i] = strike{at: time.Duration(i) * time.Second, weight: pol.WExpiry}
		}
		return out
	}
	cases := []struct {
		name      string
		strikes   []strike
		checkAt   time.Duration
		wantQuar  bool
		scoreMin  float64 // bounds on the decayed score at checkAt
		scoreMax  float64
		bystander bool
	}{
		{
			name:     "one dissent is suspicion, not conviction",
			strikes:  []strike{{0, pol.WDissent}},
			checkAt:  time.Second,
			wantQuar: false,
			scoreMin: 3.9, scoreMax: 4.01,
			bystander: true,
		},
		{
			name:     "two dissents quarantine",
			strikes:  []strike{{0, pol.WDissent}, {time.Second, pol.WDissent}},
			checkAt:  2 * time.Second,
			wantQuar: true,
			scoreMin: 7.9, scoreMax: 8.01,
			bystander: true,
		},
		{
			name:     "two integrity failures quarantine",
			strikes:  []strike{{0, pol.WIntegrity}, {time.Second, pol.WIntegrity}},
			checkAt:  2 * time.Second,
			wantQuar: true,
			scoreMin: 7.9, scoreMax: 8.01,
			bystander: true,
		},
		{
			name:     "lease expiries are weak evidence",
			strikes:  expiries(7),
			checkAt:  7 * time.Second,
			wantQuar: false,
			scoreMin: 6.9, scoreMax: 7.01,
			bystander: true,
		},
		{
			name:     "eighth expiry tips the threshold",
			strikes:  expiries(8),
			checkAt:  8 * time.Second,
			wantQuar: true,
			scoreMin: 7.9, scoreMax: 8.01,
			bystander: true,
		},
		{
			name: "decay forgives an old strike",
			// 4 at t=0 decays to 1 after two half-lives; 4 more stays at 5.
			strikes:  []strike{{0, pol.WDissent}, {20 * time.Minute, pol.WDissent}},
			checkAt:  20 * time.Minute,
			wantQuar: false,
			scoreMin: 4.9, scoreMax: 5.1,
			bystander: true,
		},
		{
			name:     "last live worker is never quarantined",
			strikes:  []strike{{0, pol.WIntegrity}, {time.Second, pol.WIntegrity}, {2 * time.Second, pol.WIntegrity}},
			checkAt:  3 * time.Second,
			wantQuar: false,
			scoreMin: 11.9, scoreMax: 12.01,
			bystander: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := healthCampaign(t, tc.bystander, base)
			cp.mu.Lock()
			defer cp.mu.Unlock()
			cp.workerLocked("suspect").seen = base
			for _, s := range tc.strikes {
				cp.strikeLocked("suspect", s.weight, "test strike", base.Add(s.at))
			}
			now := base.Add(tc.checkAt)
			if got := cp.quarantinedLocked("suspect", now); got != tc.wantQuar {
				t.Fatalf("quarantined = %t, want %t", got, tc.wantQuar)
			}
			score := cp.scoreLocked(cp.workers["suspect"], now)
			if score < tc.scoreMin || score > tc.scoreMax {
				t.Fatalf("score = %.3f, want in [%.2f, %.2f]", score, tc.scoreMin, tc.scoreMax)
			}
		})
	}
}

// TestHealthProbationAndParole walks one worker through the full
// quarantine lifecycle: conviction, serving probation, re-admission on
// parole carrying half the threshold, and going straight back on the next
// strike.
func TestHealthProbationAndParole(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	pol := defaultHealthPolicy()
	cp := healthCampaign(t, true, base)
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.workerLocked("suspect").seen = base

	cp.strikeLocked("suspect", pol.WDissent, "dissent 1", base)
	cp.strikeLocked("suspect", pol.WDissent, "dissent 2", base.Add(time.Second))
	if !cp.quarantinedLocked("suspect", base.Add(2*time.Second)) {
		t.Fatal("two dissents did not quarantine")
	}
	if cp.workers["suspect"].quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", cp.workers["suspect"].quarantines)
	}

	// Still serving probation just before it ends.
	almost := base.Add(time.Second + pol.Probation - time.Millisecond)
	if !cp.quarantinedLocked("suspect", almost) {
		t.Fatal("released before probation elapsed")
	}

	// Probation over: re-admitted on parole with half the threshold.
	paroleAt := base.Add(time.Second + pol.Probation + time.Second)
	if cp.quarantinedLocked("suspect", paroleAt) {
		t.Fatal("still quarantined after probation elapsed")
	}
	if got, want := cp.workers["suspect"].score, pol.Threshold/2; got != want {
		t.Fatalf("parole score = %.2f, want %.2f", got, want)
	}

	// One more serious strike on parole sends it straight back. (Keep the
	// bystander fresh: the last-live-worker guard must not apply here.)
	cp.workers["bystander"].seen = paroleAt
	cp.strikeLocked("suspect", pol.WDissent, "parole violation", paroleAt.Add(time.Second))
	if !cp.quarantinedLocked("suspect", paroleAt.Add(2*time.Second)) {
		t.Fatal("parole violation did not re-quarantine")
	}
	if cp.workers["suspect"].quarantines != 2 {
		t.Fatalf("quarantines = %d, want 2", cp.workers["suspect"].quarantines)
	}
}

// TestHealthQuarantineReclaimsLeases: crossing the threshold hands every
// lease the worker holds back to the pending pool immediately.
func TestHealthQuarantineReclaimsLeases(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	pol := defaultHealthPolicy()
	jobs := testJobs(t, 2)
	cp := newCampaign(jobs, Options{LeaseTTL: time.Minute, Logf: t.Logf}, base)
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.workerLocked("bystander").seen = base
	cp.workerLocked("suspect").seen = base
	for range 2 {
		if _, ok := cp.takeLocked("suspect", base); !ok {
			t.Fatal("takeLocked did not lease both jobs")
		}
	}
	cp.strikeLocked("suspect", pol.Threshold, "instant conviction", base)
	for idx, holders := range cp.leases {
		if _, held := holders["suspect"]; held {
			t.Fatalf("job %d still leased to quarantined worker", idx)
		}
	}
	// The bystander can lease the reclaimed jobs at once.
	for range 2 {
		if _, ok := cp.takeLocked("bystander", base); !ok {
			t.Fatal("bystander could not lease both jobs after the reclaim")
		}
	}
}
