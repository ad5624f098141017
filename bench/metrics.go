package main

import "strings"

// metricDef declares one metric. BENCHMARK.json carries name, unit, better
// and (end-to-end only) bound; layer and moves are this package's record of
// which layer a per-layer metric belongs to and which end-to-end metric, on
// which workload, it is expected to move. On every other workload the
// prediction is no change.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd are host-time metrics a user of the simulator sees, measured
// with tracing off. Each is the median of its samples within a run: timed
// iterations for wall_s and siminsts_per_s, set-ups for setup_s.
var endToEnd = []metricDef{
	{Name: "siminsts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	// add expands "{a,b}" groups in name into one metric per combination.
	add := func(layer, name, unit, better, moves string) {
		for _, n := range expand(name) {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better, Layer: layer, Moves: moves})
		}
	}
	const (
		md    = "siminsts_per_s on md_serial"
		spmv  = "siminsts_per_s on spmv_serial"
		both  = "siminsts_per_s on md_serial and spmv_serial"
		mix   = "wall_s on mix_par"
		suite = "wall_s on suite_j"
		setup = "setup_s everywhere, wall_s on suite_j"
		distw = "wall_s on dist_loopback"
		sim   = "must repeat exactly; moves only with a fidelity change"
	)
	add("emu", "emu.func_insts_per_s.{md,spmv}.{hsail,gcn3}", "1/s", "higher", md)
	add("emu", "emu.func_share.{md,spmv}", "ratio", "lower", md)

	add("timing", "timing.host_ns_per_simcycle.{md,spmv}.{hsail,gcn3}", "ns", "lower", both)
	add("timing", "timing.over_func_ratio.{md,spmv}", "ratio", "lower", both)
	add("timing", "timing.noskip_slowdown.{md,spmv}", "ratio", "higher", both)
	add("timing", "timing.cupar_speedup.md", "ratio", "higher", mix)
	add("timing", "timing.par_speedup.{md,spmv}", "ratio", "higher", mix)
	add("timing", "timing.dispatch_us", "us", "lower", suite)

	add("mem", "mem.sync_access_ns.{hit,miss}", "ns", "lower", spmv)
	add("mem", "mem.drain_ns_per_line.{hit,miss}", "ns", "lower", spmv)
	add("mem", "mem.drain_ns_per_line.sparse", "ns", "lower", md)
	add("mem", "mem.drain_over_sync.{hit,miss}", "ratio", "lower", spmv)
	add("mem", "mem.flush_empty_ns", "ns", "lower", md)
	add("mem", "mem.mempar_speedup.spmv", "ratio", "higher", mix)
	add("mem", "mem.coalesce_ns_per_wave.{unit,scattered}", "ns", "lower", spmv)
	add("mem", "mem.memory_{read,write}_ns", "ns", "lower", both)

	add("sim", "sim.cycles.{md,spmv}.{hsail,gcn3}", "count", "lower", sim)
	add("sim", "sim.insts.{md,spmv}.{hsail,gcn3}", "count", "lower", sim)
	add("sim", "sim.l1d_miss_rate.{md,spmv}.{hsail,gcn3}", "ratio", "lower", sim)
	add("sim", "sim.l2_miss_rate.{md,spmv}.{hsail,gcn3}", "ratio", "lower", sim)
	add("sim", "sim.vrf_conflicts_pki.{md,spmv}.{hsail,gcn3}", "1/kinst", "lower", sim)
	add("sim", "sim.fetch_stall_frac.{md,spmv}.{hsail,gcn3}", "ratio", "lower", sim)
	add("sim", "sim.suite.geomean_{insts,cycles}_gcn3_over_hsail", "ratio", "lower", sim)

	add("workloads", "workloads.prepare_ms.{md,spmv,lulesh}", "ms", "lower", setup)
	add("finalizer", "finalizer.us_per_kernel.lulesh", "us", "lower", setup)
	add("finalizer", "finalizer.ns_per_hsail_inst", "ns", "lower", setup)
	add("gcn3", "gcn3.{encode,decode}_ns_per_inst", "ns", "lower", setup)
	add("hsail", "hsail.brig_roundtrip_ns_per_inst", "ns", "lower", setup)
	add("core", "core.setup_ms.{md,spmv}", "ms", "lower", setup)

	add("stats", "stats.merge_ns", "ns", "lower", suite)
	add("stats", "stats.fingerprint_us", "us", "lower", suite)
	add("stats", "stats.reuse_access_ns", "ns", "lower", suite)
	add("stats", "stats.unique_count_ns", "ns", "lower", suite)
	add("report", "report.assemble_ms", "ms", "lower", suite)

	add("exp", "exp.overhead_us_per_job", "us", "lower", suite+" and dist_loopback")
	add("exp", "exp.engine_speedup.j", "ratio", "higher", suite)
	add("exp", "exp.wire_roundtrip_us", "us", "lower", distw)
	add("exp", "exp.runsha_us", "us", "lower", distw)
	add("exp", "exp.journal_record_us_{p50,p99}", "us", "lower", "disk-dependent; journaled campaigns only")

	add("dist", "dist.over_local_ratio", "ratio", "lower", distw)
	add("dist", "dist.first_result_ms", "ms", "lower", distw)
	add("dist", "dist.status_rtt_us_{p50,p99}", "us", "lower", distw)
	add("dist", "dist.bundle_off_ratio", "ratio", "higher", distw)
	add("dist", "dist.journal_on_ratio", "ratio", "lower", "journaled campaigns only")

	// Measured on the workload the traced run was asked for.
	own := "the traced workload's own wall_s"
	add("host", "host.alloc_mb_per_iter", "MB", "lower", own)
	add("host", "host.peak_rss_mb", "MB", "lower", own)
	add("host", "host.warmup_s", "s", "lower", "setup_s")
	add("host", "host.tracing_overhead_frac", "ratio", "lower", "none: traced wall over untraced wall, minus 1")
	for _, name := range spanNames {
		add("span", "span.self_frac."+name, "ratio", "lower", own)
	}
	return defs
}

// spanNames are the spans whose self time, as a share of the timed
// iterations' wall, a traced run reports (0 for a span the workload never
// opens). Set-up spans — bench.setup and the workloads.prepare under it —
// are in the span file only: setup_s and workloads.prepare_ms report them.
var spanNames = []string{
	spanIteration, spanCoreSetup, spanCoreRun, spanCheck, spanFingerprint,
	spanEngineRun, spanExpJob, spanAssemble, spanMarkdown, spanCoordinator, spanDistJob,
}

// expand turns "a.{x,y}.{p,q}" into a.x.p, a.x.q, a.y.p, a.y.q.
func expand(pattern string) []string {
	open := strings.IndexByte(pattern, '{')
	if open < 0 {
		return []string{pattern}
	}
	shut := open + strings.IndexByte(pattern[open:], '}')
	var out []string
	for _, alt := range strings.Split(pattern[open+1:shut], ",") {
		out = append(out, expand(pattern[:open]+alt+pattern[shut+1:])...)
	}
	return out
}
