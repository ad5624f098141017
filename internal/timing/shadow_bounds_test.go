package timing

import (
	"reflect"
	"testing"

	"ilsim/internal/emu"
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
)

// run advances c by n cycles from now and, as RunDispatch does on its way
// out, settles the cycles it slept through.
func run(tb testing.TB, c *cu, now, n int64) int64 {
	for end := now + n; now < end; now++ {
		if err := cycle(c, now); err != nil {
			tb.Fatal(err)
		}
	}
	c.settle(now)
	return now
}

// runUntil advances c until cond holds after a cycle and returns the next
// cycle.
func runUntil(tb testing.TB, c *cu, now int64, cond func(now int64) bool) int64 {
	for limit := now + 1<<16; now < limit; {
		if err := cycle(c, now); err != nil {
			tb.Fatal(err)
		}
		if now++; cond(now) {
			return now
		}
	}
	tb.Fatal("condition never held")
	return now
}

// TestShadowRefutesWrongBounds shows the oracle has teeth: the mostly-blocked
// CU that passes it untouched fails it as soon as a sleep bound is one cycle
// late — at the wave level, at the CU level, or in what a sleeper is charged —
// while a bound one cycle early, which the design allows (the early visit
// finds nothing to do and parks the wave again), passes and leaves every
// counter where the unperturbed run leaves it.
func TestShadowRefutesWrongBounds(t *testing.T) {
	// sleeping reports whether wv sits out cycle now on a bound that a
	// one-cycle shift keeps meaningful.
	sleeping := func(wv *waveCtx, now int64) bool {
		return wv.wakeAt > now+1 && wv.wakeAt != noEvent
	}
	failures := func(sh *Shadow) int { n, _ := sh.Failures(); return n }

	t.Run("exact", func(t *testing.T) {
		c := benchBlockedCU(2)
		sh := AttachShadow(c.g)
		run(t, c, warm(t, c), 4096)
		if n, msgs := sh.Failures(); n != 0 {
			t.Fatalf("unperturbed run refuted %d times: %v", n, msgs)
		}
		if sh.WavesAsleep == 0 {
			t.Fatal("nothing slept")
		}
	})

	t.Run("wave bound late", func(t *testing.T) {
		c := benchBlockedCU(2)
		sh := AttachShadow(c.g)
		now := warm(t, c)
		for _, wv := range c.waves {
			if sleeping(wv, now) {
				wv.wakeAt++
			}
		}
		c.nextEvent = 0 // keep the CU awake: this case is about the waves
		run(t, c, now, 1024)
		if failures(sh) == 0 {
			t.Fatal("every sleeping wave woke a cycle late and the oracle saw nothing")
		}
	})

	t.Run("wave bound early", func(t *testing.T) {
		c, twin := benchBlockedCU(2), benchBlockedCU(2)
		sh, twinSh := AttachShadow(c.g), AttachShadow(twin.g)
		now, twinNow := warm(t, c), warm(t, twin)
		for i := 0; i < 64; i++ {
			for _, wv := range c.waves {
				if sleeping(wv, now) {
					wv.wakeAt--
				}
			}
			c.nextEvent = 0
			now = run(t, c, now, 16)
		}
		run(t, twin, twinNow, 64*16)
		if n, msgs := sh.Failures(); n != 0 || failures(twinSh) != 0 {
			t.Fatalf("early bounds refuted %d times (%v), the twin %d times", n, msgs, failures(twinSh))
		}
		if !reflect.DeepEqual(c.g.Run, twin.g.Run) || c.l1d.Stats() != twin.l1d.Stats() {
			t.Fatalf("early bounds changed the run:\n%+v\n%+v", c.g.Run, twin.g.Run)
		}
	})

	t.Run("issue bound late", func(t *testing.T) {
		// A wave that issued in the cycle just run has nextIssue == now;
		// parked later than that, it is asleep on the issue-time bound (its
		// next instruction's SIMD is busy), and waking it a cycle late must
		// be refuted.
		c := benchCU(8)
		sh := AttachShadow(c.g)
		now := warm(t, c)
		pushed := 0
		for i := 0; i < 256; i++ {
			for _, wv := range c.waves {
				if wv.nextIssue == now && wv.wakeAt > now && wv.wakeAt != noEvent {
					wv.wakeAt++
					pushed++
				}
			}
			c.nextEvent = 0 // keep the CU awake: this case is about the waves
			now = run(t, c, now, 1)
		}
		if pushed == 0 {
			t.Fatal("no wave that issued was parked past its nextIssue")
		}
		if failures(sh) == 0 {
			t.Fatalf("%d issue-time bounds pushed a cycle late and the oracle saw nothing", pushed)
		}
	})

	t.Run("CU bound late", func(t *testing.T) {
		c := benchBlockedCU(0)
		sh := AttachShadow(c.g)
		now := runUntil(t, c, warm(t, c), func(now int64) bool {
			return c.nextEvent > now+1 && c.nextEvent != noEvent
		})
		c.nextEvent++
		run(t, c, now, c.nextEvent-now)
		if failures(sh) == 0 {
			t.Fatal("the CU slept through a wave's wake-up and the oracle saw nothing")
		}
	})

	t.Run("stall charge dropped", func(t *testing.T) {
		// Cold start: every wave's first fill misses the I-cache, so
		// waves sleep on it while charging FetchStallCycles.
		stalled := func(c *cu, now int64) *waveCtx {
			for _, wv := range c.waves {
				if wv.stalled && sleeping(wv, now) {
					return wv
				}
			}
			return nil
		}
		c := benchBlockedCU(2)
		sh := AttachShadow(c.g)
		now := runUntil(t, c, 0, func(now int64) bool { return stalled(c, now) != nil })
		stalled(c, now).stalled = false
		c.nextEvent = 0
		run(t, c, now, 1)
		if failures(sh) == 0 {
			t.Fatal("a sleeping wave stopped charging its fetch stall and the oracle saw nothing")
		}

		c = benchBlockedCU(0)
		sh = AttachShadow(c.g)
		now = runUntil(t, c, 0, func(now int64) bool {
			return c.stallers > 0 && c.nextEvent > now
		})
		c.stallers--
		run(t, c, now, 1)
		if failures(sh) == 0 {
			t.Fatal("a sleeping CU undercharged its stallers and the oracle saw nothing")
		}
	})
}

// TestPlacementSettlesFirst: a workgroup placed on a CU that has slept since
// its last tick settles those cycles before its waves arrive, so they are
// charged and checked against the waves that slept through them — not
// against the newcomers, which could have fetched had they been there.
func TestPlacementSettlesFirst(t *testing.T) {
	c := benchInertCU()
	sh := AttachShadow(c.g)
	now := warm(t, c)
	for end := now + 16; now < end; now++ {
		if err := cycle(c, now); err != nil {
			t.Fatal(err)
		}
	}
	if c.asleepFrom >= now {
		t.Fatal("the CU did not sleep")
	}
	c.g.now = now
	d := &hsa.Dispatch{Workgroups: []hsa.WorkgroupInfo{{Size: isa.WavefrontSize, NumWaves: 1}}}
	c.place(emu.NewWGState(d, &d.Workgroups[0], 0), c.waves[0].eng)
	run(t, c, now, 64)
	if n, msgs := sh.Failures(); n != 0 {
		t.Fatalf("placement into a sleeping CU refuted %d times: %v", n, msgs)
	}
}
