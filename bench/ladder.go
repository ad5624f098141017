package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
	"ilsim/internal/finalizer"
	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/mem"
	"ilsim/internal/report"
	"ilsim/internal/stats"
	"ilsim/internal/workloads"
)

// The ladder measures every layer from outside, by timing calls into the
// packages' exported functions. Its numbers are informational: they say
// which layer moved when an end-to-end metric did, and are never gated.
// Each rung's work is a fixed count, so the sim.* metrics repeat exactly.

// metricSet collects named values and remembers a name emitted twice.
type metricSet struct {
	vals map[string]float64
	dup  []string
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]float64)} }

func (m *metricSet) put(name string, v float64) {
	if _, ok := m.vals[name]; ok {
		m.dup = append(m.dup, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = v
}

// timeReps runs fn reps times and returns the median wall in seconds.
func timeReps(reps int, fn func()) float64 {
	walls := make([]float64, reps)
	for i := range walls {
		t0 := time.Now()
		fn()
		walls[i] = time.Since(t0).Seconds()
	}
	return median(walls)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func absName(a core.Abstraction) string { return strings.ToLower(a.String()) }

var (
	bothAbs  = []core.Abstraction{core.AbsHSAIL, core.AbsGCN3}
	fullMask = isa.FullMask(isa.WavefrontSize)
)

// runLadder climbs every rung. A rung returns an error only when the
// layer's own call fails, which is a broken build, not a slow one.
func runLadder(e *env, m *metricSet) error {
	st := genStreams(e.seed, e.sz.streamLen)
	rungs := []func(*env, *metricSet, *streams) error{
		simRung, dispatchRung, memRung, toolchainRung, suiteRung, statsRung, expRung, distRung,
	}
	for _, rung := range rungs {
		if err := rung(e, m, st); err != nil {
			return err
		}
	}
	return nil
}

// simRung times MD and SpMV, functionally and on the timing model in every
// execution mode, and reads the simulated statistics off the serial run.
func simRung(e *env, m *metricSet, _ *streams) error {
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		return err
	}
	for _, s := range []struct {
		key, wl string
		scale   int
	}{{"md", "MD", e.sz.ladMD}, {"spmv", "SpMV", e.sz.ladSpMV}} {
		w, err := workloads.ByName(s.wl)
		if err != nil {
			return err
		}
		var inst *workloads.Instance
		m.put("workloads.prepare_ms."+s.key, 1e3*timeReps(e.sz.reps, func() { inst, err = w.Prepare(s.scale) }))
		if err != nil {
			return err
		}
		// timed runs both abstractions under opts and returns the summed
		// wall of Simulator.Run alone (median of reps per abstraction).
		var runErr error
		timed := func(opts core.RunOptions, each func(core.Abstraction, *stats.Run, float64, float64)) float64 {
			total := 0.0
			for _, abs := range bothAbs {
				var run *stats.Run
				var setupS []float64
				setup := func(mc *core.Machine) error {
					t0 := time.Now()
					err := inst.Setup(mc)
					setupS = append(setupS, time.Since(t0).Seconds())
					return err
				}
				wall := timeReps(e.sz.reps, func() {
					r, _, err := sim.Run(abs, s.wl, setup, opts)
					if err != nil {
						runErr = err
						return
					}
					run = r
				})
				if runErr != nil {
					return 0
				}
				if each != nil {
					each(abs, run, wall, median(setupS))
				}
				total += wall
			}
			return total
		}
		serial := core.RunOptions{CUParallelism: 1, MemParallelism: 1}
		setupMS := 0.0
		serialWall := timed(serial, func(abs core.Abstraction, run *stats.Run, wall, setup float64) {
			k := s.key + "." + absName(abs)
			setupMS += 1e3 * setup
			m.put("timing.host_ns_per_simcycle."+k, 1e9*ratio(wall-setup, float64(run.Cycles)))
			m.put("sim.cycles."+k, float64(run.Cycles))
			m.put("sim.insts."+k, float64(run.TotalInsts()))
			m.put("sim.l1d_miss_rate."+k, ratio(float64(run.L1DMisses), float64(run.L1DAccesses)))
			m.put("sim.l2_miss_rate."+k, ratio(float64(run.L2Misses), float64(run.L2Accesses)))
			m.put("sim.vrf_conflicts_pki."+k, run.ConflictsPerKiloInst())
			m.put("sim.fetch_stall_frac."+k, ratio(float64(run.FetchStallCycles), float64(run.Cycles)))
		})
		m.put("core.setup_ms."+s.key, setupMS/2)

		// Functional emulation alone: the same instruction stream with no
		// timing model around it.
		funcWall := 0.0
		for _, abs := range bothAbs {
			var run *stats.Run
			walls := make([]float64, e.sz.reps)
			for i := range walls {
				run = &stats.Run{}
				mc := core.NewMachine(abs, run)
				if err := inst.Setup(mc); err != nil {
					return err
				}
				t0 := time.Now()
				if err := mc.RunFunctional(); err != nil {
					return err
				}
				walls[i] = time.Since(t0).Seconds()
			}
			wall := median(walls)
			m.put("emu.func_insts_per_s."+s.key+"."+absName(abs), ratio(float64(run.TotalInsts()), wall))
			funcWall += wall
		}
		m.put("emu.func_share."+s.key, ratio(funcWall, serialWall))
		m.put("timing.over_func_ratio."+s.key, ratio(serialWall, funcWall))

		noskip := serial
		noskip.DisableCycleSkipping = true
		m.put("timing.noskip_slowdown."+s.key, ratio(timed(noskip, nil), serialWall))
		m.put("timing.par_speedup."+s.key,
			ratio(serialWall, timed(core.RunOptions{CUParallelism: e.P, MemParallelism: e.P}, nil)))
		if s.key == "md" {
			m.put("timing.cupar_speedup.md",
				ratio(serialWall, timed(core.RunOptions{CUParallelism: e.P, MemParallelism: 1}, nil)))
		} else {
			m.put("mem.mempar_speedup.spmv",
				ratio(serialWall, timed(core.RunOptions{CUParallelism: 1, MemParallelism: e.P}, nil)))
		}
		if runErr != nil {
			return fmt.Errorf("ladder: %s: %w", s.wl, runErr)
		}
	}
	return nil
}

// dispatchRung submits a one-workgroup, ten-instruction kernel many times
// in one Simulator.Run: host cost per launch, which is what LULESH's ~160
// launches per abstraction pay.
func dispatchRung(e *env, m *metricSet, _ *streams) error {
	b := kernel.NewBuilder("bench_dispatch")
	out := b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
	addr := b.Add(isa.TypeU64, b.LoadArg(out), off)
	v := b.Add(isa.TypeU32, b.Mul(isa.TypeU32, gid, b.Int(isa.TypeU32, 3)), b.Int(isa.TypeU32, 1))
	b.Store(hsail.SegGlobal, v, addr, 0)
	b.Ret()
	k, err := b.Finish()
	if err != nil {
		return err
	}
	ks, err := core.PrepareKernel(k, finalizer.Options{})
	if err != nil {
		return err
	}
	sim, err := core.NewSimulator(core.DefaultConfig())
	if err != nil {
		return err
	}
	n := e.sz.launches
	setup := func(mc *core.Machine) error {
		buf := mc.Ctx.AllocBuffer(4 * isa.WavefrontSize)
		for i := 0; i < n; i++ {
			l := core.Launch{Kernel: ks, Grid: [3]uint32{isa.WavefrontSize, 1, 1},
				WG: [3]uint16{isa.WavefrontSize, 1, 1}, Args: []uint64{buf}}
			if err := mc.Submit(l); err != nil {
				return err
			}
		}
		return nil
	}
	var runErr error
	wall := timeReps(e.sz.reps, func() {
		run, _, err := sim.Run(core.AbsGCN3, "dispatch", setup, core.RunOptions{CUParallelism: 1, MemParallelism: 1})
		if err == nil && run.KernelLaunches != uint64(n) {
			err = fmt.Errorf("%d launches ran, want %d", run.KernelLaunches, n)
		}
		if err != nil {
			runErr = err
		}
	})
	m.put("timing.dispatch_us", 1e6*wall/float64(n))
	return runErr
}

// memRung drives an L1 -> L2 -> DRAM hierarchy with Table 4 geometry
// directly: synchronous Cache.Access against the deferred RequestBuffer +
// Drain.Flush path the timing core always takes.
func memRung(e *env, m *metricSet, st *streams) error {
	cfg := core.DefaultConfig()
	build := func() ([]*mem.Cache, []*mem.RequestBuffer, *mem.Drain) {
		dram := mem.NewDRAM(cfg.DRAMChannels, mem.LineSize, cfg.DRAMLatency, cfg.DRAMOccupancy)
		l2 := mem.NewCache("L2", cfg.L2Size, mem.LineSize, cfg.L2Ways, cfg.L2HitLatency, true, dram, cfg.L2Banks)
		l1s := make([]*mem.Cache, memSources)
		bufs := make([]*mem.RequestBuffer, memSources)
		srcs := make([]mem.DrainSource, memSources)
		for i := range l1s {
			l1s[i] = mem.NewCache(fmt.Sprintf("L1D%d", i), cfg.L1DSize, mem.LineSize, cfg.L1DWays, cfg.L1HitLatency, false, l2, 1)
			bufs[i] = &mem.RequestBuffer{}
			bufs[i].Register(l1s[i])
			srcs[i] = mem.DrainSource{Buf: bufs[i], Complete: func(int, int64) {}}
		}
		return l1s, bufs, mem.NewDrain(l1s, srcs, l2, dram)
	}
	perSrc := len(st.hit[0])
	lines := float64(perSrc * memSources)
	var sink int64
	// Each pattern is replayed once untimed so both paths start from the
	// same warm caches.
	direct := func(stream *[memSources][]uint64) float64 {
		l1s, _, _ := build()
		replay := func() {
			for i := 0; i < perSrc; i++ {
				for src := range l1s {
					sink += l1s[src].Access(stream[src][i], false, int64(i))
				}
			}
		}
		replay()
		return 1e9 * timeReps(e.sz.reps, replay) / lines
	}
	// drained appends four lines per source as one request, then flushes:
	// 32 lines a cycle, a memory-bound cycle's shape.
	const burst = 4
	drained := func(stream *[memSources][]uint64) float64 {
		_, bufs, drain := build()
		replay := func() {
			for i := 0; i+burst <= perSrc; i += burst {
				for src, buf := range bufs {
					buf.Append(0, stream[src][i:i+burst], false, i)
				}
				drain.Flush(int64(i), nil)
			}
		}
		replay()
		return 1e9 * timeReps(e.sz.reps, replay) / lines
	}
	for _, p := range []struct {
		key    string
		stream *[memSources][]uint64
	}{{"hit", &st.hit}, {"miss", &st.miss}} {
		s, d := direct(p.stream), drained(p.stream)
		m.put("mem.sync_access_ns."+p.key, s)
		m.put("mem.drain_ns_per_line."+p.key, d)
		m.put("mem.drain_over_sync."+p.key, ratio(d, s))
	}

	_, bufs, drain := build()
	sparseLines := 0
	for _, l := range st.sparseLines {
		sparseLines += len(l)
	}
	sparse := func() {
		for i, l := range st.sparseLines {
			bufs[st.sparseSrc[i]].Append(0, l, false, i)
			drain.Flush(int64(i), nil)
		}
	}
	sparse()
	m.put("mem.drain_ns_per_line.sparse", 1e9*timeReps(e.sz.reps, sparse)/float64(sparseLines))
	n := len(st.words)
	m.put("mem.flush_empty_ns", 1e9*timeReps(e.sz.reps, func() {
		for i := 0; i < n; i++ {
			drain.Flush(int64(i), nil)
		}
	})/float64(n))

	scratch := make([]uint64, 0, 2*isa.WavefrontSize)
	coalesce := func(waves []lanes) float64 {
		return 1e9 * timeReps(e.sz.reps, func() {
			for i := range waves {
				scratch = mem.CoalesceInto(scratch[:0], &waves[i], 4, fullMask)
				sink += int64(len(scratch))
			}
		}) / float64(len(waves))
	}
	m.put("mem.coalesce_ns_per_wave.unit", coalesce(st.unit))
	m.put("mem.coalesce_ns_per_wave.scattered", coalesce(st.scattered))

	memory := mem.NewMemory()
	m.put("mem.memory_write_ns", 1e9*timeReps(e.sz.reps, func() {
		for i, a := range st.words {
			memory.WriteU32(a, uint32(i))
		}
	})/float64(n))
	m.put("mem.memory_read_ns", 1e9*timeReps(e.sz.reps, func() {
		for _, a := range st.words {
			sink += int64(memory.ReadU32(a))
		}
	})/float64(n))
	if sink == math.MinInt64 {
		return errors.New("unreachable: keeps the measured calls live")
	}
	return nil
}

// toolchainRung times what Workload.Prepare is made of on LULESH's 27
// kernels: the finalizer, the GCN3 codec and the BRIG container.
func toolchainRung(e *env, m *metricSet, _ *streams) error {
	w, err := workloads.ByName("LULESH")
	if err != nil {
		return err
	}
	var inst *workloads.Instance
	m.put("workloads.prepare_ms.lulesh", 1e3*timeReps(e.sz.reps, func() { inst, err = w.Prepare(1) }))
	if err != nil {
		return err
	}
	hsailInsts, gcnInsts := 0, 0
	for _, ks := range inst.Kernels {
		hsailInsts += ks.HSAIL.NumInsts()
		gcnInsts += len(ks.GCN3.Program.Insts)
	}
	var stepErr error
	keep := func(err error) {
		if err != nil {
			stepErr = err
		}
	}
	fin := timeReps(e.sz.reps, func() {
		for _, ks := range inst.Kernels {
			_, err := finalizer.Finalize(ks.HSAIL, finalizer.Options{})
			keep(err)
		}
	})
	m.put("finalizer.us_per_kernel.lulesh", 1e6*fin/float64(len(inst.Kernels)))
	m.put("finalizer.ns_per_hsail_inst", 1e9*fin/float64(hsailInsts))

	encoded := make([][]byte, len(inst.Kernels))
	m.put("gcn3.encode_ns_per_inst", 1e9*timeReps(e.sz.reps, func() {
		for i, ks := range inst.Kernels {
			encoded[i], err = gcn3.EncodeProgram(ks.GCN3.Program)
			keep(err)
		}
	})/float64(gcnInsts))
	m.put("gcn3.decode_ns_per_inst", 1e9*timeReps(e.sz.reps, func() {
		for _, b := range encoded {
			_, err := gcn3.DecodeProgram(b)
			keep(err)
		}
	})/float64(gcnInsts))
	m.put("hsail.brig_roundtrip_ns_per_inst", 1e9*timeReps(e.sz.reps, func() {
		for _, ks := range inst.Kernels {
			b, err := hsail.EncodeBRIG(ks.HSAIL)
			keep(err)
			_, err = hsail.DecodeBRIG(b)
			keep(err)
		}
	})/float64(hsailInsts))
	return stepErr
}

// suiteRung runs the 20-run suite once at the ladder's scale for the
// engine's own speedup figure, the report's cost, and the suite-wide
// GCN3/HSAIL geomeans.
func suiteRung(e *env, m *metricSet, _ *streams) error {
	cfg := core.DefaultConfig()
	jobs := report.SuiteJobs(cfg, e.sz.ladSuite, false)
	out, _ := e.runSuite(cfg, jobs, e.sz.ladSuite, make([][]byte, len(jobs)))
	if out.results == nil {
		return errors.New("ladder: suite run failed")
	}
	m.put("exp.engine_speedup.j", out.metrics.Speedup())
	m.put("report.assemble_ms", 1e3*out.assemble.Seconds())
	var insts, cycles []float64
	for _, name := range out.results.Order {
		p := out.results.Runs[name]
		insts = append(insts, ratio(float64(p.GCN3.TotalInsts()), float64(p.HSAIL.TotalInsts())))
		cycles = append(cycles, ratio(float64(p.GCN3.Cycles), float64(p.HSAIL.Cycles)))
	}
	m.put("sim.suite.geomean_insts_gcn3_over_hsail", stats.Geomean(insts))
	m.put("sim.suite.geomean_cycles_gcn3_over_hsail", stats.Geomean(cycles))
	return nil
}

// statsRung times the statistics layer on a real MD run with value and
// reuse tracking on — and, since they need such a run, exp's result hash and
// wire codec — then the two per-access kernels on seeded streams.
func statsRung(e *env, m *metricSet, st *streams) error {
	res, _, err := exp.New(1).Run([]exp.Job{{Workload: "MD", Scale: e.sz.ladMD, Abs: core.AbsGCN3,
		Config: core.DefaultConfig(), Opts: core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}}})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		return err
	}
	run := res[0].Run
	const calls = 200
	var sink int
	m.put("stats.fingerprint_us", 1e6*timeReps(e.sz.reps, func() {
		for i := 0; i < calls; i++ {
			sink += len(run.Fingerprint())
		}
	})/calls)
	m.put("stats.merge_ns", 1e9*timeReps(e.sz.reps, func() {
		for i := 0; i < calls; i++ {
			var dst stats.Run
			dst.Merge(run)
			sink += int(dst.Cycles)
		}
	})/calls)
	m.put("exp.runsha_us", 1e6*timeReps(e.sz.reps, func() {
		for i := 0; i < calls; i++ {
			sink += len(exp.RunSHA(run))
		}
	})/calls)
	m.put("exp.wire_roundtrip_us", 1e6*timeReps(e.sz.reps, func() {
		for i := 0; i < calls; i++ {
			b, err := json.Marshal(exp.EncodeResult(0, "job", res[0]))
			if err != nil {
				panic(err) // a stats.Run always marshals
			}
			var w exp.WireResult
			if err := json.Unmarshal(b, &w); err != nil {
				panic(err)
			}
			if _, err := w.Decode(); err != nil {
				panic(err)
			}
		}
	})/calls)

	var h stats.Histogram
	tr := stats.NewReuseTracker(256)
	m.put("stats.reuse_access_ns", 1e9*timeReps(e.sz.reps, func() {
		for _, slot := range st.slots {
			tr.Tick()
			tr.Access(slot, &h)
		}
	})/float64(len(st.slots)))
	m.put("stats.unique_count_ns", 1e9*timeReps(e.sz.reps, func() {
		for i := range st.values {
			u, _ := stats.UniqueCount(&st.values[i], fullMask)
			sink += u
		}
	})/float64(len(st.values)))
	if sink < 0 {
		return errors.New("unreachable: keeps the measured calls live")
	}
	return nil
}

// expRung measures what the engine adds to a job: Engine.Run of the
// cheapest jobs against the same jobs run directly, and the journal's
// fsynced append.
func expRung(e *env, m *metricSet, _ *streams) error {
	jobs, err := sweepJobs(e.seed, e.sz.ladPoints)
	if err != nil {
		return err
	}
	w, err := workloads.ByName("ArrayBW")
	if err != nil {
		return err
	}
	inst, err := w.Prepare(1)
	if err != nil {
		return err
	}
	var runErr error
	direct := timeReps(e.sz.reps, func() {
		for _, j := range jobs {
			sim, err := core.NewSimulator(j.Config)
			if err != nil {
				runErr = err
				return
			}
			_, mc, err := sim.Run(j.Abs, j.Workload, inst.Setup, j.Opts)
			if err == nil {
				err = inst.Check(mc)
			}
			if err != nil {
				runErr = err
			}
		}
	})
	var results []exp.Result
	eng := exp.New(1)
	if _, _, err := eng.Run(jobs[:1]); err != nil { // fill the instance cache, as direct had it
		return err
	}
	engine := timeReps(e.sz.reps, func() {
		results, _, err = eng.Run(jobs)
		if err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	m.put("exp.overhead_us_per_job", 1e6*(engine-direct)/float64(len(jobs)))

	path := filepath.Join(e.tmp, fmt.Sprintf("journal-%d.jsonl", os.Getpid()))
	defer os.Remove(path)
	jr, err := exp.OpenJournal(path, jobs, false)
	if err != nil {
		return err
	}
	defer jr.Close()
	var record []float64
	for i, r := range results {
		t0 := time.Now()
		if err := jr.Record(i, r); err != nil {
			return err
		}
		record = append(record, 1e6*time.Since(t0).Seconds())
	}
	m.put("exp.journal_record_us_p50", median(record))
	m.put("exp.journal_record_us_p99", percentile(record, 99))
	return nil
}

// distRung compares one loopback campaign with the same jobs on a local
// engine, and with bundling off and a journal on.
func distRung(e *env, m *metricSet, _ *streams) error {
	jobs, err := sweepJobs(e.seed, e.sz.ladPoints)
	if err != nil {
		return err
	}
	refs, local, err := e.localRefs(jobs)
	if err != nil {
		return err
	}
	base, err := e.runCampaign(jobs, refs, dist.Options{}, true)
	if err != nil {
		return err
	}
	m.put("dist.over_local_ratio", ratio(base.wall.Seconds(), local.Seconds()))
	m.put("dist.first_result_ms", 1e3*base.first.Seconds())
	m.put("dist.status_rtt_us_p50", 1e6*median(base.statusRTT))
	m.put("dist.status_rtt_us_p99", 1e6*percentile(base.statusRTT, 99))

	unbundled, err := e.runCampaign(jobs, refs, dist.Options{BundleTarget: -1}, false)
	if err != nil {
		return err
	}
	m.put("dist.bundle_off_ratio", ratio(unbundled.wall.Seconds(), base.wall.Seconds()))

	path := filepath.Join(e.tmp, fmt.Sprintf("campaign-%d.jsonl", os.Getpid()))
	defer os.Remove(path)
	jr, err := exp.OpenJournal(path, jobs, false)
	if err != nil {
		return err
	}
	defer jr.Close()
	journaled, err := e.runCampaign(jobs, refs, dist.Options{Journal: jr}, false)
	if err != nil {
		return err
	}
	m.put("dist.journal_on_ratio", ratio(journaled.wall.Seconds(), base.wall.Seconds()))
	return nil
}
