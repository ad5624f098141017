package fleet

import (
	"testing"
	"time"
)

// step is one Decide call in a scripted sequence: advance the clock,
// present a fleet state and a hint, expect a target and a reason.
type step struct {
	advance    time.Duration
	current    int
	want       int
	wantTarget int
	wantReason string
}

// runSteps drives a Decider through a script against one policy.
func runSteps(t *testing.T, p Policy, steps []step) {
	t.Helper()
	d := &Decider{Policy: p}
	now := time.Unix(1000, 0)
	for i, s := range steps {
		now = now.Add(s.advance)
		target, reason := d.Decide(now, s.current, s.want)
		if target != s.wantTarget || reason != s.wantReason {
			t.Fatalf("step %d (+%s, current %d, want %d): got %d (%s), want %d (%s)",
				i, s.advance, s.current, s.want, target, reason, s.wantTarget, s.wantReason)
		}
	}
}

// TestDeciderSpike: a queue spike scales up immediately, clamps at Max,
// and the up-cooldown absorbs the follow-up hint churn.
func TestDeciderSpike(t *testing.T) {
	p := Policy{Min: 1, Max: 8, UpCooldown: 5 * time.Second, DownCooldown: 30 * time.Second}
	runSteps(t, p, []step{
		{0, 1, 1, 1, "steady"},
		{time.Second, 1, 12, 8, "up"},         // spike: clamped to Max
		{time.Second, 8, 10, 8, "steady"},     // already at the (clamped) target
		{time.Second, 2, 6, 2, "up-cooldown"}, // churn inside the cooldown holds
		{10 * time.Second, 2, 6, 6, "up"},     // cooldown expired
	})
}

// TestDeciderDecay: as the queue drains the hint falls, but the fleet
// shrinks only after the down-cooldown — and then all the way.
func TestDeciderDecay(t *testing.T) {
	p := Policy{Min: 1, Max: 8, UpCooldown: time.Second, DownCooldown: 30 * time.Second}
	runSteps(t, p, []step{
		{0, 1, 8, 8, "up"},
		{5 * time.Second, 8, 3, 8, "down-cooldown"},
		{5 * time.Second, 8, 2, 8, "down-cooldown"},
		{30 * time.Second, 8, 2, 2, "down"}, // cooldown over: shrink
		{time.Second, 2, 0, 2, "down-cooldown"},
		{40 * time.Second, 2, 0, 1, "down"}, // floor: never under Min
	})
}

// TestDeciderFlapping: a hint oscillating around the current size moves
// the fleet at most once per cooldown window, and the deadband swallows
// the small swings entirely.
func TestDeciderFlapping(t *testing.T) {
	p := Policy{Min: 1, Max: 16, Deadband: 0.25,
		UpCooldown: 10 * time.Second, DownCooldown: 10 * time.Second}
	runSteps(t, p, []step{
		{0, 8, 9, 8, "deadband"}, // |9-8| <= 0.25*8
		{time.Second, 8, 10, 8, "deadband"},
		{time.Second, 8, 6, 8, "deadband"},
		{time.Second, 8, 12, 12, "up"},            // outside the band: move
		{time.Second, 12, 10, 12, "deadband"},     // |10-12| <= 0.25*12
		{time.Second, 12, 4, 12, "down-cooldown"}, // outside band, inside cooldown
		{time.Second, 12, 16, 12, "up-cooldown"},
		{20 * time.Second, 12, 4, 4, "down"}, // quiet long enough: move once
	})
}

// TestDeciderClampViolations: Min/Max are invariants, not suggestions —
// a fleet outside them is repaired immediately, cooldowns and deadband
// notwithstanding.
func TestDeciderClampViolations(t *testing.T) {
	p := Policy{Min: 2, Max: 6, Deadband: 0.5,
		UpCooldown: time.Hour, DownCooldown: time.Hour}
	runSteps(t, p, []step{
		{0, 2, 8, 6, "up"},             // stamp the cooldown clock
		{time.Second, 1, 1, 2, "up"},   // under Min: repaired despite the hour cooldown
		{time.Second, 8, 8, 6, "down"}, // over Max (breaker shrank it): repaired too
		{time.Second, 4, 5, 4, "deadband"},
	})
}

// TestPolicyDefaults: the zero policy gets the stock cooldowns and a
// Max floored at Min.
func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.UpCooldown != 5*time.Second || p.DownCooldown != 30*time.Second {
		t.Fatalf("default cooldowns: %s up, %s down", p.UpCooldown, p.DownCooldown)
	}
	q := Policy{Min: 4, Max: 2}.withDefaults()
	if q.Max != 4 {
		t.Fatalf("Max under Min survived defaults: %d", q.Max)
	}
}
