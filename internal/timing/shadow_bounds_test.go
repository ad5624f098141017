package timing

import (
	"reflect"
	"testing"

	"ilsim/internal/emu"
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
	"ilsim/internal/stats"
)

// run advances c by n cycles from now and returns the next cycle.
func run(tb testing.TB, c *cu, now, n int64) int64 {
	for end := now + n; now < end; now++ {
		if err := cycle(c, now); err != nil {
			tb.Fatal(err)
		}
	}
	return now
}

// charged returns c's statistics as RunDispatch leaves them on its way out
// at cycle now: with every wave's open fetch stall charged up to it.
func charged(c *cu, now int64) stats.Run {
	r := *c.g.Run
	for _, wv := range c.waves {
		if wv.stallFrom < now {
			r.FetchStallCycles += uint64(now - wv.stallFrom)
		}
	}
	return r
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
		twinNow = run(t, twin, twinNow, 64*16)
		if n, msgs := sh.Failures(); n != 0 || failures(twinSh) != 0 {
			t.Fatalf("early bounds refuted %d times (%v), the twin %d times", n, msgs, failures(twinSh))
		}
		if a, b := charged(c, now), charged(twin, twinNow); !reflect.DeepEqual(a, b) || c.l1d.Stats() != twin.l1d.Stats() {
			t.Fatalf("early bounds changed the run:\n%+v\n%+v", a, b)
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
		// Through the late tick, when the oracle checks the cycles slept.
		run(t, c, now, c.nextEvent-now+1)
		if failures(sh) == 0 {
			t.Fatal("the CU slept through a wave's wake-up and the oracle saw nothing")
		}
	})

	// stalled returns a wave asleep at now on an open fetch stall. Cold
	// start: every wave's first fill misses the I-cache, so waves sleep on
	// it while stalled.
	stalled := func(c *cu, now int64) *waveCtx {
		for _, wv := range c.waves {
			if wv.stallFrom < now && sleeping(wv, now) {
				return wv
			}
		}
		return nil
	}

	t.Run("stall charge dropped", func(t *testing.T) {
		c := benchBlockedCU(2)
		sh := AttachShadow(c.g)
		now := runUntil(t, c, 0, func(now int64) bool { return stalled(c, now) != nil })
		stalled(c, now).stallFrom = noEvent
		c.nextEvent = 0
		run(t, c, now, 1)
		if failures(sh) == 0 {
			t.Fatal("a sleeping wave stopped charging its fetch stall and the oracle saw nothing")
		}
	})

	t.Run("stall cut short asleep", func(t *testing.T) {
		// The CU sleeps through the cycle its wave's stall is cut short at;
		// the oracle sees that cycle when the CU next acts.
		c := benchBlockedCU(0)
		sh := AttachShadow(c.g)
		now := runUntil(t, c, 0, func(now int64) bool {
			return c.nextEvent > now+1 && c.nextEvent != noEvent && stalled(c, now) != nil
		})
		stalled(c, now).stallFrom = now + 1
		run(t, c, now, c.nextEvent-now+1)
		if failures(sh) == 0 {
			t.Fatal("a sleeping CU's wave charged its stall a cycle short and the oracle saw nothing")
		}
	})
}

// TestSleepCheckedBeforePlacement: a workgroup placed on a CU that has slept
// since its last tick reports the sleep to the oracle before its waves
// arrive, so the cycles slept are checked against the waves that slept
// through them — not against the newcomers, which could have fetched had
// they been there.
func TestSleepCheckedBeforePlacement(t *testing.T) {
	c := benchInertCU()
	sh := AttachShadow(c.g)
	now := warm(t, c)
	for end := now + 16; now < end; now++ {
		if err := cycle(c, now); err != nil {
			t.Fatal(err)
		}
	}
	if c.nextEvent <= now {
		t.Fatal("the CU did not sleep")
	}
	c.g.now = now
	d := &hsa.Dispatch{Workgroups: []hsa.WorkgroupInfo{{Size: isa.WavefrontSize, NumWaves: 1}}}
	c.place(emu.NewWGState(d, &d.Workgroups[0], 0), c.waves[0].eng)
	if sh.CUCyclesAsleep == 0 {
		t.Fatal("placement checked none of the cycles the CU slept")
	}
	run(t, c, now, 64)
	if n, msgs := sh.Failures(); n != 0 {
		t.Fatalf("placement into a sleeping CU refuted %d times: %v", n, msgs)
	}
}

// barrierStubEngine runs stubEngine's vector-ALU stream with one workgroup
// barrier, a scalar instruction: wave 1 meets it first, at PC 0; wave 0,
// older and so ahead of wave 1 in every pass, issues three vector
// instructions first and releases the barrier by meeting it at PC 12.
type barrierStubEngine struct {
	stubEngine
	barrier emu.InstInfo
}

func (e *barrierStubEngine) atBarrier(w *emu.Wave) bool {
	return w.PC == 12-12*uint64(w.WaveID)
}

func (e *barrierStubEngine) Peek(w *emu.Wave) (*emu.InstInfo, error) {
	if e.atBarrier(w) {
		return &e.barrier, nil
	}
	return &e.info, nil
}

func (e *barrierStubEngine) Execute(w *emu.Wave) (emu.ExecResult, error) {
	res, err := e.stubEngine.Execute(w)
	res.IsBarrier = w.PC-4 == 12-12*uint64(w.WaveID)
	return res, err
}

// TestBarrierReleaseIssuesNextCycle: a wave released from a barrier issues
// from the cycle after the release on — not in the cycle itself, though it
// comes later in the pass than the wave that released it — with skipping on
// and off.
func TestBarrierReleaseIssuesNextCycle(t *testing.T) {
	for _, noskip := range []bool{false, true} {
		g := NewGPU(DefaultConfig(), &stats.Run{})
		g.NoSkip = noskip
		eng := &barrierStubEngine{stubEngine: *newStubEngine()}
		eng.barrier = emu.InstInfo{SizeBytes: 4, Category: isa.CatMisc, LatClass: emu.LatScalar, WaitVM: -1, WaitLGKM: -1}
		d := &hsa.Dispatch{Workgroups: []hsa.WorkgroupInfo{{Size: 2 * isa.WavefrontSize, NumWaves: 2}}}
		c := g.cus[0]
		c.place(emu.NewWGState(d, &d.Workgroups[0], 0), eng)
		first, second := c.waves[0], c.waves[1]
		now := runUntil(t, c, 0, func(int64) bool { return first.w.PC == 16 })
		if second.w.PC != 4 || second.barrier {
			t.Fatalf("noskip=%v: at the release the second wave is at PC %d, barrier=%v", noskip, second.w.PC, second.barrier)
		}
		run(t, c, now, 1)
		if second.w.PC != 8 {
			t.Fatalf("noskip=%v: the cycle after the release the second wave is at PC %d, want 8", noskip, second.w.PC)
		}
	}
}
