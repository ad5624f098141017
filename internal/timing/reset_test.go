package timing

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.NumCUs != 8 || p.SIMDsPerCU != 4 || p.WFSlots != 40 {
		t.Fatalf("Table 4 geometry wrong: %+v", p)
	}
	if vrfRegsPerCU != 2048 || srfRegsPerCU != 800 {
		t.Fatalf("Table 4 register files wrong: %d/%d", vrfRegsPerCU, srfRegsPerCU)
	}
}

// stateDiff walks two values of one type and returns where they first
// differ, "" if nowhere: numbers, strings and booleans by value, slices by
// length and element (not capacity: reuse keeps storage), pointers and
// interfaces by what they point at. Function values are skipped, and so is
// everything package mem owns — a reset cache keeps stale lines in slots it
// treats as free, so its state is compared through its behaviour
// (TestResetMatchesFresh in core) and its counters (below), not its bytes.
func stateDiff(path string, a, b reflect.Value, seen map[[2]uintptr]bool) string {
	if a.Type().PkgPath() == reflect.TypeOf(mem.Cache{}).PkgPath() {
		return ""
	}
	switch a.Kind() {
	case reflect.Func:
		return ""
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil on one side only", path)
			}
			return ""
		}
		if a.Kind() == reflect.Pointer {
			key := [2]uintptr{a.Pointer(), b.Pointer()}
			if seen[key] {
				return ""
			}
			seen[key] = true
		} else if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf("%s: %s against %s", path, a.Elem().Type(), b.Elem().Type())
		}
		return stateDiff(path, a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := stateDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d elements against %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d keys against %d", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: on one side only", path, it.Key())
			}
			if d := stateDiff(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv, seen); d != "" {
				return d
			}
		}
		return ""
	}
	var same bool
	switch {
	case a.CanInt():
		same = a.Int() == b.Int()
	case a.CanUint():
		same = a.Uint() == b.Uint()
	case a.CanFloat():
		same = a.Float() == b.Float()
	case a.Kind() == reflect.Bool:
		same = a.Bool() == b.Bool()
	case a.Kind() == reflect.String:
		same = a.String() == b.String()
	default:
		return fmt.Sprintf("%s: a %s, which stateDiff cannot compare", path, a.Kind())
	}
	if !same {
		return fmt.Sprintf("%s: %v against %v", path, a, b)
	}
	return ""
}

// TestResetLeavesADeviceLikeNew stops a device in the middle of everything —
// waves resident on a CU, loads in flight, a watchdog armed, skipping off, a
// shadow attached — re-arms it under parameters that differ in all that Reset may change, and
// compares it field by field with a device built under those parameters. A
// field added to GPU or cu and forgotten in Reset fails here by name.
func TestResetLeavesADeviceLikeNew(t *testing.T) {
	c := benchMemCU(7) // 7 waves x 8 registers leave the VRF cursor off every bank multiple
	g := c.g
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.WD, g.NoSkip = Watchdog{Ctx: ctx, MaxCycles: 1 << 40}, true
	AttachShadow(g)
	for ; g.now < 300; g.now++ {
		if err := cycle(c, g.now); err != nil {
			t.Fatal(err)
		}
		g.wdTick++
	}
	// A tick the drain never saw: a pending entry and its request.
	g.reqs.AppendLine(c.l1dDest, 0x40, false, c.tag(c.waves[0], nil))
	c.valueCounter = 3
	g.Run.VRFAccesses++
	c.simdBusy[1] = g.now + 3 // the stub streams loads only
	if g.l2.Stats().Accesses == 0 || len(c.waves) == 0 {
		t.Fatal("the device saw no work")
	}

	// VRF banks and SIMDs keep their counts, so their busy-until arrays are
	// reused in place (core's TestResetMatchesFresh resizes them).
	p := g.P
	p.WFSlots, p.IBBytes, p.FetchWidth = 10, 16, 2
	p.L1HitLatency, p.L2HitLatency, p.ScalarHitLatency = 3, 5, 7
	p.DRAMLatency, p.DRAMOccupancy, p.LDSLatency = 11, 2, 13
	run := &stats.Run{}
	if !g.Reset(p, run) {
		t.Fatal("Reset refused parameters that size no storage differently")
	}
	if d := stateDiff("gpu", reflect.ValueOf(g), reflect.ValueOf(NewGPU(p, run)), map[[2]uintptr]bool{}); d != "" {
		t.Fatalf("a reset device differs from a new one at %s", d)
	}
	caches := []*mem.Cache{g.l2}
	caches = append(append(caches, g.iCaches...), g.sCaches...)
	for _, c := range g.cus {
		caches = append(caches, c.l1d)
	}
	for _, c := range caches {
		if c.Stats() != (mem.CacheStats{}) {
			t.Errorf("%s keeps counters across Reset: %+v", c.Name, c.Stats())
		}
	}
	if g.dram.Stats() != (mem.CacheStats{}) {
		t.Errorf("DRAM keeps counters across Reset: %+v", g.dram.Stats())
	}
	// The request the drain never saw is gone (completing it would index the
	// emptied pending table), and the latencies arrived: one L1I miss costs
	// the new L1 + L2 + DRAM path.
	g.drainFlush(0)
	g.reqs.AppendLine(g.cus[0].l1iDest, 0x1000, false, g.cus[0].tag(&waveCtx{}, nil))
	g.drainFlush(0)
	if got, want := g.iCaches[0].Stats().LatencySum, uint64(p.L1HitLatency+p.L2HitLatency+p.DRAMLatency); got != want {
		t.Errorf("a miss to DRAM after Reset took %d cycles, want %d", got, want)
	}

	// Anything that sizes storage is refused, and refusing changes nothing.
	for name, mod := range map[string]func(*Params){
		"NumCUs":       func(q *Params) { q.NumCUs++ },
		"L1DSize":      func(q *Params) { q.L1DSize *= 2 },
		"L1DWays":      func(q *Params) { q.L1DWays = 4 },
		"L1ISize":      func(q *Params) { q.L1ISize /= 2 },
		"L1IWays":      func(q *Params) { q.L1IWays = 4 },
		"ScalarL1Size": func(q *Params) { q.ScalarL1Size *= 2 },
		"ScalarL1Ways": func(q *Params) { q.ScalarL1Ways = 4 },
		"L2Size":       func(q *Params) { q.L2Size /= 2 },
		"L2Ways":       func(q *Params) { q.L2Ways = 8 },
		"L2Banks":      func(q *Params) { q.L2Banks = 4 },
		"DRAMChannels": func(q *Params) { q.DRAMChannels = 16 },
	} {
		q := p
		mod(&q)
		if g.Reset(q, nil) {
			t.Errorf("Reset accepted another %s", name)
		}
		if g.P != p || g.Run != run {
			t.Fatalf("a refused Reset (%s) changed the device", name)
		}
	}
}
