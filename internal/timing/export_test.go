package timing

import "fmt"

// Shadow is the sleep-bound oracle the tests attach to a device: for every
// wave a tick skips as asleep and every cycle a CU with resident waves sleeps
// through — alone or as part of a GPU-wide jump — it re-runs the unabridged
// fetch and issue checks (refWave: what a tick-everything run would do with
// that wave that cycle) and records a failure if the wave could have acted,
// or would have charged FetchStallCycles when its open stall does not (or
// the other way round). It also tallies what the real ticks did.
type Shadow struct {
	// WavesAsleep counts wave visits skipped inside real ticks,
	// CUCyclesAsleep CU ticks skipped with waves resident (one per CU per
	// cycle slept).
	WavesAsleep, CUCyclesAsleep int64
	// Ticks counts real CU ticks; Resident sums the waves resident at each,
	// Visited the waves its pass visited, Checked those that went through
	// the issue checks.
	Ticks, Resident, Visited, Checked int64

	// acted is the cycle after each CU last acted: the first it may have
	// slept through.
	acted map[*cu]int64

	failures []string
	nFailed  int
}

// AttachShadow makes g report to a fresh Shadow until its next Reset.
func AttachShadow(g *GPU) *Shadow {
	s := &Shadow{acted: map[*cu]int64{}}
	g.events = s
	return s
}

// Failures returns how many checks failed and the first few messages.
func (s *Shadow) Failures() (int, []string) {
	return s.nFailed, s.failures
}

func (s *Shadow) failf(format string, args ...any) {
	if s.nFailed++; len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *Shadow) ticked(c *cu, visited, checked int) {
	s.Ticks++
	s.Resident += int64(len(c.waves))
	s.Visited += int64(visited)
	s.Checked += int64(checked)
}

func (s *Shadow) waveAsleep(c *cu, wv *waveCtx, now int64) {
	s.WavesAsleep++
	s.asleep(c, wv, now, wv.wakeAt)
}

// cuActs checks the cycles c slept through since it last acted against its
// waves as they stand, which nothing has changed since: a sleeping CU's waves
// change only when it acts.
func (s *Shadow) cuActs(c *cu, now int64) {
	from, ok := s.acted[c]
	s.acted[c] = now + 1
	if !ok || len(c.waves) == 0 {
		return
	}
	for ; from < now; from++ {
		s.CUCyclesAsleep++
		for _, wv := range c.waves {
			s.asleep(c, wv, from, c.nextEvent)
		}
	}
}

// asleep is the verdict on wv sitting out cycle now on a bound of wakeAt: it
// records a failure if visiting the wave would act, or would charge a fetch
// stall that the wave's open stall does not charge (or the other way round).
func (s *Shadow) asleep(c *cu, wv *waveCtx, now, wakeAt int64) {
	o, err := refWave(c, wv, now)
	switch charged := wv.stallFrom <= now; {
	case err != nil:
		s.failf("cycle %d CU %d wave %d: %v", now, c.id, wv.seq, err)
	case o.fetch || o.issue:
		s.failf("cycle %d CU %d wave %d asleep until %d, but a visit would act: %+v", now, c.id, wv.seq, wakeAt, o)
	case o.stall != charged:
		s.failf("cycle %d CU %d wave %d asleep charging a stall=%v, but a visit would stall=%v", now, c.id, wv.seq, charged, o.stall)
	}
}

// refOutcome is what visiting a wave would do: land or start a fill, issue
// its next instruction, charge FetchStallCycles for an empty buffer.
type refOutcome struct{ fetch, issue, stall bool }

// refWave is the tick's fetch and issue treatment of one wave with no sleep
// state consulted and nothing modified: the checks, in order, that a
// tick-everything run applies to every wave every cycle. Unit-busy times are
// read as the pass leaves them when it reaches the wave, which is what such a
// run sees there: older waves issue first.
func refWave(c *cu, wv *waveCtx, now int64) (refOutcome, error) {
	var o refOutcome
	if wv.done {
		// Nothing is started for a finished wave, and a fill still in
		// flight lands unobserved.
		return o, nil
	}
	if wv.fetchBusy {
		o.fetch = now >= wv.fetchDone
	} else {
		o.fetch = wv.ibBytes < c.ibCap
	}
	if wv.barrier || now < wv.nextIssue {
		return o, nil
	}
	info := wv.info
	if info == nil {
		var err error
		if info, err = wv.eng.Peek(wv.w); err != nil {
			return o, err
		}
	}
	if wv.ibBytes < info.SizeBytes {
		o.stall = true
		return o, nil
	}
	if wv.vregReady != nil {
		for _, r := range info.VRFReads.Slice() {
			if wv.vregReady[r] > now {
				return o, nil
			}
		}
		for _, r := range info.VRFWrites.Slice() {
			if wv.vregReady[r] > now {
				return o, nil
			}
		}
	} else {
		if info.WaitVM >= 0 && pendingAfter(wv.vmemDone, now) > int(info.WaitVM) {
			return o, nil
		}
		if info.WaitLGKM >= 0 && pendingAfter(wv.lgkmDone, now) > int(info.WaitLGKM) {
			return o, nil
		}
	}
	busy, _ := c.unit(wv, info)
	o.issue = *busy <= now
	return o, nil
}

// pendingAfter is outstanding without the compaction.
func pendingAfter(list []int64, now int64) int {
	n := 0
	for _, at := range list {
		if at > now {
			n++
		}
	}
	return n
}
