package emu_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/emu"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsa"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/kernel/randkernel"
	"ilsim/internal/stats"
	"ilsim/internal/workloads"
)

// The lockstep differential: a machine running the micro-op engines and a
// twin running the reference interpreter execute the same launches one
// instruction at a time, and after every instruction everything either
// engine can change must agree — the wavefront's architectural state, the
// ExecResult handed to the timing model, the LDS, and the collector's
// statistics (which only agree if every VRF hook fired for the same operand
// in the same order: a wave's value sample depends on the index of each of
// its accesses).

// tracking is one collector configuration of the differential.
type tracking struct {
	values bool
	every  int
	reuse  bool
}

var trackings = []tracking{
	{},
	{values: true, every: 1, reuse: true},
	{values: true, every: 3, reuse: true},
	{values: true, every: 4, reuse: true},
}

func (tr tracking) String() string {
	return fmt.Sprintf("values=%v/every=%d/reuse=%v", tr.values, tr.every, tr.reuse)
}

func newMachine(abs core.Abstraction, tr tracking) *core.Machine {
	m := core.NewMachine(abs, &stats.Run{})
	m.Col.TrackValues, m.Col.ValueSampleEvery, m.Col.TrackReuse = tr.values, tr.every, tr.reuse
	return m
}

// diffCounters compares the statistics a single instruction can move. (The
// reuse histogram is compared once per dispatch: it is large.)
func diffCounters(a, b *stats.Run) string {
	type c struct {
		cat                          [isa.NumCategories]uint64
		valuI, valuL, rl, ru, wl, wu uint64
	}
	ca := c{a.InstsByCategory, a.VALUInsts, a.VALUActiveLanes, a.ReadLanes, a.ReadUnique, a.WriteLanes, a.WriteUnique}
	cb := c{b.InstsByCategory, b.VALUInsts, b.VALUActiveLanes, b.ReadLanes, b.ReadUnique, b.WriteLanes, b.WriteUnique}
	if ca != cb {
		return fmt.Sprintf("stats %+v != %+v", ca, cb)
	}
	return ""
}

// lockstepDispatch is emu.RunFunctional over two engines at once.
func lockstepDispatch(t *testing.T, what string, eng, ref emu.Engine, d, dRef *hsa.Dispatch, run, runRef *stats.Run) {
	t.Helper()
	steps := 0
	for wi := range d.Workgroups {
		wg := emu.NewWGState(d, &d.Workgroups[wi], eng.LDSBytes())
		wgRef := emu.NewWGState(dRef, &dRef.Workgroups[wi], ref.LDSBytes())
		n := d.Workgroups[wi].NumWaves
		waves, wavesRef := make([]*emu.Wave, n), make([]*emu.Wave, n)
		for i := range waves {
			waves[i], wavesRef[i] = eng.NewWave(wg, i), ref.NewWave(wgRef, i)
		}
		atBarrier := make([]bool, n)
		for running := true; running; {
			running = false
			progressed := false
			for i, w := range waves {
				if w.Done || atBarrier[i] {
					running = running || !w.Done
					continue
				}
				running = true
				pc := w.PC
				res, err := eng.Execute(w)
				resRef, errRef := ref.Execute(wavesRef[i])
				if err != nil || errRef != nil {
					t.Fatalf("%s: wg %d wave %d pc %#x (%s): errors %v / %v", what, wi, i, pc, eng.InstString(pc), err, errRef)
				}
				steps++
				diff := emu.DiffResults(res, resRef)
				if diff == "" {
					diff = emu.DiffWaves(w, wavesRef[i])
				}
				if diff == "" && !bytes.Equal(wg.LDS, wgRef.LDS) {
					diff = "LDS contents differ"
				}
				if diff == "" {
					diff = diffCounters(run, runRef)
				}
				if diff != "" {
					t.Fatalf("%s: wg %d wave %d after step %d, pc %#x (%s): %s", what, wi, i, steps, pc, eng.InstString(pc), diff)
				}
				progressed = true
				atBarrier[i] = res.IsBarrier
			}
			if running && !progressed {
				for i := range atBarrier {
					atBarrier[i] = false
				}
			}
		}
	}
	if !reflect.DeepEqual(run, runRef) {
		t.Fatalf("%s: statistics differ after the dispatch:\n%+v\n%+v", what, run, runRef)
	}
}

// lockstepMachines drains both machines' queues in lockstep.
func lockstepMachines(t *testing.T, what string, m, mRef *core.Machine) {
	t.Helper()
	for {
		d, eng, err := m.NextDispatch()
		dRef, engRef, errRef := mRef.NextDispatch()
		if err != nil || errRef != nil {
			t.Fatalf("%s: NextDispatch: %v / %v", what, err, errRef)
		}
		if d == nil {
			break
		}
		lockstepDispatch(t, what+"/"+d.KernelName, eng, emu.NewReferenceEngine(engRef), d, dRef, m.Col.Run, mRef.Col.Run)
		m.CompleteDispatch(d)
		mRef.CompleteDispatch(dRef)
	}
	if a, b := m.Ctx.Mem.FootprintBytes(), mRef.Ctx.Mem.FootprintBytes(); a != b {
		t.Fatalf("%s: data footprint %d != %d", what, a, b)
	}
}

var bothAbstractions = []core.Abstraction{core.AbsHSAIL, core.AbsGCN3}

// TestLockstepWorkloads steps every workload of the suite, under both
// abstractions and every tracking configuration, against the reference.
func TestLockstepWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		inst, err := w.Prepare(1)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", w.Name, err)
		}
		for _, abs := range bothAbstractions {
			for _, tr := range trackings {
				what := fmt.Sprintf("%s/%s/%s", w.Name, abs, tr)
				m, mRef := newMachine(abs, tr), newMachine(abs, tr)
				if err := inst.Setup(m); err != nil {
					t.Fatalf("%s: Setup: %v", what, err)
				}
				if err := inst.Setup(mRef); err != nil {
					t.Fatalf("%s: Setup: %v", what, err)
				}
				lockstepMachines(t, what, m, mRef)
				if err := inst.Check(m); err != nil {
					t.Fatalf("%s: output check: %v", what, err)
				}
			}
		}
	}
}

// kitchenSink covers what neither the suite nor the random generator
// reaches together: LDS loads, stores and atomics around a barrier, global
// atomics, the private segment and lda, 64-bit selects, signed arithmetic
// and a divergent region, on a workgroup whose last wave is partial.
func kitchenSink() *hsail.Kernel {
	u32, s32, u64, f64 := isa.TypeU32, isa.TypeS32, isa.TypeU64, isa.TypeF64
	b := kernel.NewBuilder("kitchen_sink")
	outArg, ctrArg := b.ArgPtr("out"), b.ArgPtr("counter")
	b.SetGroupSize(64 * 4)
	b.SetPrivateSize(8)
	gid, lid := b.WorkItemAbsID(isa.DimX), b.WorkItemID(isa.DimX)
	off := b.Shl(u64, b.Cvt(u64, gid), b.Int(u64, 2))

	slot := b.Shl(u64, b.Cvt(u64, b.And(u32, lid, b.Int(u32, 63))), b.Int(u64, 2))
	b.Store(hsail.SegGroup, b.Mul(u32, lid, b.Int(u32, 3)), slot, 0)
	b.Barrier()
	bin := b.Shl(u64, b.Cvt(u64, b.And(u32, lid, b.Int(u32, 7))), b.Int(u64, 2))
	old := b.AtomicAdd(hsail.SegGroup, u32, lid, bin, 0)
	b.Barrier()
	neighbour := b.Load(hsail.SegGroup, u32, b.Xor(u64, slot, b.Int(u64, 4)), 0)
	ticket := b.AtomicAdd(hsail.SegGlobal, u32, b.Int(u32, 1), b.LoadArg(ctrArg), 0)

	b.Store(hsail.SegPrivate, b.Add(u32, neighbour, old), kernel.NoBase, 4)
	viaLda := b.Load(hsail.SegGlobal, u32, b.Lda(hsail.SegPrivate, kernel.NoBase, 0), 4)

	wide := b.Mul(u64, b.Cvt(u64, gid), b.Int(u64, 0x100000003))
	c := b.Cmp(isa.CmpLt, u32, lid, b.Int(u32, 40))
	sel := b.Cmov(u64, c, wide, b.Int(u64, 0x1234567890))
	sgid := b.Cvt(s32, gid)
	signed := b.Max(s32, b.Neg(s32, sgid), b.Shr(s32, b.Sub(s32, b.Int(s32, 5), sgid), b.Int(s32, 1)))
	fl := b.Cvt(u32, b.Fma(f64, b.Cvt(f64, gid), b.F64(1.5), b.Sqrt(f64, b.Cvt(f64, lid))))

	acc := b.Xor(u32, b.Xor(u32, viaLda, b.Cvt(u32, b.Shr(u64, sel, b.Int(u64, 31)))), b.Xor(u32, signed, fl))
	b.IfCmp(isa.CmpGt, u32, b.And(u32, gid, b.Int(u32, 5)), b.Int(u32, 1), func() {
		b.BinaryTo(hsail.OpAdd, acc, acc, b.Int(u32, 0x9e3779b9))
	}, func() {
		b.BinaryTo(hsail.OpXor, acc, acc, lid)
	})
	// The ticket order is the same under reference and new engine (lanes
	// serialize in lane order) but not across abstractions; keep it out of
	// the stored value and only load-bearing for the register compare.
	_ = ticket
	b.Store(hsail.SegGlobal, acc, b.Add(u64, b.LoadArg(outArg), off), 0)
	b.Ret()
	return b.MustFinish()
}

// lockstepKernel runs one kernel launch under both abstractions and every
// tracking configuration against the reference.
func lockstepKernel(t *testing.T, name string, k *hsail.Kernel, grid uint32, wg uint16, args func(m *core.Machine) []uint64) {
	t.Helper()
	ks, err := core.PrepareKernel(k, finalizer.Options{})
	if err != nil {
		t.Fatalf("%s: PrepareKernel: %v", name, err)
	}
	for _, abs := range bothAbstractions {
		for _, tr := range trackings {
			what := fmt.Sprintf("%s/%s/%s", name, abs, tr)
			m, mRef := newMachine(abs, tr), newMachine(abs, tr)
			for _, mc := range []*core.Machine{m, mRef} {
				l := core.Launch{Kernel: ks, Grid: [3]uint32{grid, 1, 1}, WG: [3]uint16{wg, 1, 1}, Args: args(mc)}
				if err := mc.Submit(l); err != nil {
					t.Fatalf("%s: Submit: %v", what, err)
				}
			}
			lockstepMachines(t, what, m, mRef)
		}
	}
}

// TestLockstepRandomKernels steps generated kernels — divergent branches,
// loops, predication, gathers — on workgroups of 96 work-items (a full wave
// and a half-empty one), plus the hand-built LDS/atomics/private kernel.
func TestLockstepRandomKernels(t *testing.T) {
	const grid, wg = 192, 96
	randArgs := func(seed int64) func(m *core.Machine) []uint64 {
		return func(m *core.Machine) []uint64 {
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			in := m.Ctx.AllocBuffer(4 * randkernel.BufWords)
			out := m.Ctx.AllocBuffer(4 * grid)
			for i := 0; i < randkernel.BufWords; i++ {
				m.Ctx.Mem.WriteU32(in+uint64(4*i), rng.Uint32())
			}
			return []uint64{in, out}
		}
	}
	seeds := int64(32)
	if testing.Short() {
		seeds = 24
	}
	for seed := int64(0); seed < seeds; seed++ {
		k, err := randkernel.Gen(seed, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lockstepKernel(t, k.Name, k, grid, wg, randArgs(seed))
	}
	lockstepKernel(t, "kitchen_sink", kitchenSink(), grid, wg, func(m *core.Machine) []uint64 {
		return []uint64{m.Ctx.AllocBuffer(4 * grid), m.Ctx.AllocBuffer(4)}
	})
}

// cuRunner steps the workgroups assigned to one compute unit on a shared
// engine, one instruction per call, the way a compute unit's share of a
// dispatch advances between the other units' instructions.
type cuRunner struct {
	eng       emu.Engine
	d         *hsa.Dispatch
	wgs       []int // workgroup indexes still to run
	waves     []*emu.Wave
	atBarrier []bool
	next      int
}

// step executes one instruction; it returns false when the runner is out
// of work.
func (c *cuRunner) step() (bool, error) {
	for {
		if c.waves == nil {
			if len(c.wgs) == 0 {
				return false, nil
			}
			info := &c.d.Workgroups[c.wgs[0]]
			c.wgs = c.wgs[1:]
			wg := emu.NewWGState(c.d, info, c.eng.LDSBytes())
			c.waves = make([]*emu.Wave, info.NumWaves)
			for i := range c.waves {
				c.waves[i] = c.eng.NewWave(wg, i)
			}
			c.atBarrier = make([]bool, len(c.waves))
		}
		live := 0
		for i := 0; i < len(c.waves); i++ {
			k := (c.next + i) % len(c.waves)
			switch {
			case c.waves[k].Done:
			case c.atBarrier[k]:
				live++
			default:
				res, err := c.eng.Execute(c.waves[k])
				c.atBarrier[k] = res.IsBarrier
				c.next = k + 1
				return true, err
			}
		}
		if live == 0 {
			c.waves = nil // workgroup finished
			continue
		}
		for i := range c.atBarrier { // every live wave is at the barrier
			c.atBarrier[i] = false
		}
	}
}

// TestSharedEngineInterleaved runs every workload once on its own and once as
// two compute units of the timing model do: on the one engine as loaded,
// splitting the workgroups and advancing alternately, one instruction each.
// The engine's scratch is shared by both: state carried from one unit's
// instruction into the other's shows up as a wrong output or statistic.
// Fig 10's sample is a rule of each wave's own accesses, so sampling one in
// 4 the interleaving must not move it either.
func TestSharedEngineInterleaved(t *testing.T) {
	tr := tracking{values: true, every: 4, reuse: true}
	for _, w := range workloads.All() {
		inst, err := w.Prepare(1)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", w.Name, err)
		}
		for _, abs := range bothAbstractions {
			what := fmt.Sprintf("%s/%s", w.Name, abs)
			plain, split := newMachine(abs, tr), newMachine(abs, tr)
			for _, m := range []*core.Machine{plain, split} {
				if err := inst.Setup(m); err != nil {
					t.Fatalf("%s: Setup: %v", what, err)
				}
			}
			if err := plain.RunFunctional(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for {
				d, eng, err := split.NextDispatch()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if d == nil {
					break
				}
				var cus [2]cuRunner
				for i := range cus {
					cus[i] = cuRunner{eng: eng, d: d}
				}
				for wi := range d.Workgroups {
					cus[wi%2].wgs = append(cus[wi%2].wgs, wi)
				}
				for busy := true; busy; {
					busy = false
					for i := range cus {
						ran, err := cus[i].step()
						if err != nil {
							t.Fatalf("%s: cu %d: %v", what, i, err)
						}
						busy = busy || ran
					}
				}
				split.CompleteDispatch(d)
			}
			if err := inst.Check(split); err != nil {
				t.Fatalf("%s: interleaved output check: %v", what, err)
			}
			if !reflect.DeepEqual(plain.Col.Run, split.Col.Run) {
				t.Fatalf("%s: statistics differ:\nplain       %+v\ninterleaved %+v", what, plain.Col.Run, split.Col.Run)
			}
			if a, b := plain.Ctx.Mem.FootprintBytes(), split.Ctx.Mem.FootprintBytes(); a != b {
				t.Fatalf("%s: data footprint %d != %d", what, a, b)
			}
		}
	}
}
