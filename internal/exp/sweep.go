package exp

import (
	"fmt"

	"ilsim/internal/core"
)

// Point is one design point of a parameter sweep: a labeled machine
// configuration.
type Point struct {
	Label  string
	Config core.Config
}

// SweepParams lists the supported sweep parameter names.
func SweepParams() []string {
	return []string{"banks", "ib", "waves", "l1i", "cus", "silicon"}
}

// SweepPoints returns the design points for one microarchitecture
// parameter, each a variation of the paper's Table 4 baseline. These are
// the sensitivity studies an architect would run next with this
// infrastructure — and a demonstration that the IL-vs-ISA gap moves with
// the design point, so no fixed fudge-factor can correct IL simulation.
func SweepPoints(param string) ([]Point, error) {
	base := core.DefaultConfig()
	var pts []Point
	add := func(label string, mod func(*core.Config)) {
		cfg := base
		mod(&cfg)
		pts = append(pts, Point{label, cfg})
	}
	switch param {
	case "banks":
		for _, b := range []int{4, 8, 16, 32, 64} {
			b := b
			add(fmt.Sprintf("banks=%d", b), func(c *core.Config) { c.VRFBanks = b })
		}
	case "ib":
		for _, e := range []int{2, 4, 8, 16, 32} {
			e := e
			add(fmt.Sprintf("ib=%dB", e*8), func(c *core.Config) { c.IBEntries = e })
		}
	case "waves":
		for _, wf := range []int{4, 10, 20, 40} {
			wf := wf
			add(fmt.Sprintf("waves=%d", wf), func(c *core.Config) { c.WFSlots = wf })
		}
	case "l1i":
		for _, kb := range []int{4, 8, 16, 32, 64} {
			kb := kb
			add(fmt.Sprintf("l1i=%dKB", kb), func(c *core.Config) { c.L1ISize = kb << 10 })
		}
	case "cus":
		// Multi-point machine scaling: how the gap moves as the GPU grows.
		for _, n := range []int{2, 4, 8, 16, 32} {
			n := n
			add(fmt.Sprintf("cus=%d", n), func(c *core.Config) { c.NumCUs = n })
		}
	case "silicon":
		// The Table 4 machine against one with the memory latencies and
		// DRAM occupancy a shared-memory APU shows and a typical academic
		// model underestimates.
		add("table4", func(*core.Config) {})
		add("silicon", func(c *core.Config) {
			c.DRAMLatency = 320
			c.DRAMOccupancy = 9
			c.L2HitLatency = 110
			c.L1HitLatency = 26
		})
	default:
		return nil, fmt.Errorf("exp: unknown sweep parameter %q (banks, ib, waves, l1i, cus, silicon)", param)
	}
	return pts, nil
}
