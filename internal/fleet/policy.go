package fleet

import "time"

// Policy bounds how aggressively a supervisor chases the coordinator's
// autoscaling hint. The hint is noisy — it swings with every EWMA update
// and every queue refill — so raw tracking would thrash processes up and
// down; the deadband and cooldowns here turn it into calm fleet moves,
// and Max bounds how far one move can go.
type Policy struct {
	// Min and Max clamp the replica count. Min also bootstraps the fleet:
	// with zero workers the coordinator never observes a runtime and the
	// hint stays 0, so Min must be at least 1 for a fleet that starts
	// from nothing. Max <= 0 means no ceiling.
	Min, Max int
	// Deadband is the hysteresis width as a fraction of the current
	// replica count: a hint within ±Deadband×current of where the fleet
	// already is changes nothing. 0.25 means a 4-replica fleet ignores
	// hints between 3 and 5. Violations of Min/Max are corrected
	// regardless.
	Deadband float64
	// UpCooldown and DownCooldown are the minimum quiet time after any
	// fleet change before the next grow or shrink. Asymmetric on
	// purpose: scale up fast (a deep queue is wasted wall-clock), scale
	// down slowly (killing a worker you need back in ten seconds costs a
	// relaunch and a re-lease). Min/Max violations bypass cooldowns.
	UpCooldown, DownCooldown time.Duration
}

// withDefaults fills the zero values with the stock policy: no deadband,
// grow after 5s of quiet, shrink after 30s.
func (p Policy) withDefaults() Policy {
	if p.UpCooldown <= 0 {
		p.UpCooldown = 5 * time.Second
	}
	if p.DownCooldown <= 0 {
		p.DownCooldown = 30 * time.Second
	}
	if p.Min < 0 {
		p.Min = 0
	}
	if p.Max > 0 && p.Max < p.Min {
		p.Max = p.Min
	}
	return p
}

// Decider applies a Policy over time: it remembers when the fleet last
// moved so cooldowns hold between calls. The zero Decider (plus a
// Policy) is ready to use; it is not safe for concurrent use.
type Decider struct {
	// Policy may be adjusted between calls — the supervisor lowers Max
	// as crash-loop breakers trip.
	Policy Policy

	last time.Time // when Decide last changed the target
}

// Decide returns the replica count to run now, given the count running
// (plus pending relaunches) and the count the hint asks for, and a short
// reason for logs and status views. It never returns a value outside
// [Min, Max]; within those clamps it holds the current count through the
// deadband and cooldowns.
func (d *Decider) Decide(now time.Time, current, want int) (int, string) {
	p := d.Policy.withDefaults()
	target := want
	if p.Max > 0 && target > p.Max {
		target = p.Max
	}
	if target < p.Min {
		target = p.Min
	}
	if target == current {
		return current, "steady"
	}

	// Min/Max violations are corrected immediately — they are not scaling
	// decisions but invariant repairs (a breaker lowered Max, or crashes
	// dropped the fleet under Min).
	violation := current < p.Min || (p.Max > 0 && current > p.Max)

	if !violation {
		if delta := target - current; abs(delta) <= int(p.Deadband*float64(current)) {
			return current, "deadband"
		}
	}
	if target > current {
		if !violation && !d.last.IsZero() && now.Sub(d.last) < p.UpCooldown {
			return current, "up-cooldown"
		}
		d.last = now
		return target, "up"
	}
	if !violation && !d.last.IsZero() && now.Sub(d.last) < p.DownCooldown {
		return current, "down-cooldown"
	}
	d.last = now
	return target, "down"
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
