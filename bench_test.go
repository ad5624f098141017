// Package ilsim's top-level benchmarks regenerate every table and figure of
// the paper's evaluation section, reporting each experiment's headline
// numbers as benchmark metrics:
//
//	go test -bench=. -benchmem
//
// The per-figure geomean ratios (GCN3 relative to HSAIL, or the inverse
// where the paper reports it that way) are the quantities to compare with
// the paper; `go run ./cmd/ilsim-report` renders the full per-workload
// tables.
package ilsim

import (
	"runtime"
	"sync"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/isa"
	"ilsim/internal/report"
	"ilsim/internal/stats"
)

// benchScale keeps benchmark iterations affordable; use ilsim-report for
// larger inputs.
const benchScale = 1

var (
	suiteOnce sync.Once
	suiteRes  *report.Results
	suiteErr  error
)

// suite runs the full dual-abstraction suite once (with the hardware oracle)
// on the parallel experiment engine and is shared by every figure benchmark;
// the first benchmark to run pays the cost, which `go test -bench` reports
// as its ns/op.
func suite(b *testing.B) *report.Results {
	b.Helper()
	suiteOnce.Do(func() {
		suiteRes, suiteErr = report.CollectParallel(exp.New(0), core.DefaultConfig(), benchScale, true)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteRes
}

// runPair executes one workload under both abstractions by submitting the
// job pair through the experiment engine.
func runPair(b *testing.B, name string, opts core.RunOptions) (*stats.Run, *stats.Run) {
	b.Helper()
	jobs := []exp.Job{
		{Workload: name, Scale: benchScale, Abs: core.AbsHSAIL, Config: core.DefaultConfig(), Opts: opts},
		{Workload: name, Scale: benchScale, Abs: core.AbsGCN3, Config: core.DefaultConfig(), Opts: opts},
	}
	eng := exp.New(0)
	eng.Mode = exp.FailFast
	results, _, err := eng.Run(jobs)
	if err != nil {
		b.Fatal(err)
	}
	return results[0].Run, results[1].Run
}

// BenchmarkFig1Summary regenerates the Figure 1 roll-up of dissimilar and
// similar statistics.
func BenchmarkFig1Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		insts := stats.Geomean(ratioOver(res, func(r *stats.Run) float64 { return float64(r.TotalInsts()) }))
		util := stats.Geomean(ratioOver(res, func(r *stats.Run) float64 { return r.SIMDUtilization() }))
		b.ReportMetric(insts, "GCN3/HSAIL-insts")
		b.ReportMetric(util, "GCN3/HSAIL-util")
	}
}

func ratioOver(res *report.Results, metric func(*stats.Run) float64) []float64 {
	var out []float64
	for _, name := range res.Order {
		p := res.Runs[name]
		if h := metric(p.HSAIL); h > 0 {
			out = append(out, metric(p.GCN3)/h)
		}
	}
	return out
}

// BenchmarkFig5DynamicInstructions regenerates the instruction-expansion
// figure over the whole suite.
func BenchmarkFig5DynamicInstructions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig5()
		b.ReportMetric(stats.Geomean(ratioOver(res, func(r *stats.Run) float64 {
			return float64(r.TotalInsts())
		})), "GCN3/HSAIL-insts")
	}
}

// BenchmarkFig6VRFBankConflicts regenerates the bank-conflict comparison.
func BenchmarkFig6VRFBankConflicts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig6()
		var hsailOverGCN3 []float64
		for _, name := range res.Order {
			p := res.Runs[name]
			if g := p.GCN3.ConflictsPerKiloInst(); g > 0 {
				hsailOverGCN3 = append(hsailOverGCN3, p.HSAIL.ConflictsPerKiloInst()/g)
			}
		}
		b.ReportMetric(stats.Geomean(hsailOverGCN3), "HSAIL/GCN3-conflicts")
	}
}

// BenchmarkFig7ReuseDistance regenerates the register reuse-distance figure.
func BenchmarkFig7ReuseDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig7()
		b.ReportMetric(stats.Geomean(ratioOver(res, func(r *stats.Run) float64 {
			return float64(r.Reuse.Median())
		})), "GCN3/HSAIL-reuse")
	}
}

// BenchmarkFig8InstructionFootprint regenerates the code-footprint figure.
func BenchmarkFig8InstructionFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig8()
		b.ReportMetric(stats.Geomean(ratioOver(res, func(r *stats.Run) float64 {
			return float64(r.CodeFootprintBytes)
		})), "GCN3/HSAIL-codebytes")
	}
}

// BenchmarkFig9IBFlushes regenerates the instruction-buffer flush figure.
func BenchmarkFig9IBFlushes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig9()
		var hsailOverGCN3 []float64
		for _, name := range res.Order {
			p := res.Runs[name]
			h := float64(p.HSAIL.IBFlushes) / float64(p.HSAIL.TotalInsts())
			g := float64(p.GCN3.IBFlushes) / float64(p.GCN3.TotalInsts())
			if g > 0 {
				hsailOverGCN3 = append(hsailOverGCN3, h/g)
			}
		}
		b.ReportMetric(stats.Geomean(hsailOverGCN3), "HSAIL/GCN3-flushes")
	}
}

// BenchmarkFig10ValueUniqueness regenerates the VRF lane-value uniqueness
// case study on the paper's two featured workloads.
func BenchmarkFig10ValueUniqueness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig10()
		ab := res.Runs["ArrayBW"]
		lu := res.Runs["LULESH"]
		b.ReportMetric(100*ab.HSAIL.ReadUniqueness(), "ArrayBW-HSAIL-%")
		b.ReportMetric(100*ab.GCN3.ReadUniqueness(), "ArrayBW-GCN3-%")
		b.ReportMetric(100*lu.HSAIL.ReadUniqueness(), "LULESH-HSAIL-%")
		b.ReportMetric(100*lu.GCN3.ReadUniqueness(), "LULESH-GCN3-%")
	}
}

// BenchmarkFig11IPC regenerates the IPC comparison.
func BenchmarkFig11IPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig11()
		b.ReportMetric(stats.Geomean(ratioOver(res, func(r *stats.Run) float64 { return r.IPC() })), "GCN3/HSAIL-IPC")
	}
}

// BenchmarkFig12Runtime regenerates the runtime comparison, reporting the
// paper's two featured extremes.
func BenchmarkFig12Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Fig12()
		lu := res.Runs["LULESH"]
		xs := res.Runs["XSBench"]
		b.ReportMetric(float64(lu.GCN3.Cycles)/float64(lu.HSAIL.Cycles), "LULESH-GCN3/HSAIL-cycles")
		b.ReportMetric(float64(xs.HSAIL.Cycles)/float64(xs.GCN3.Cycles), "XSBench-HSAIL/GCN3-cycles")
	}
}

// BenchmarkTables123Expansion measures the headline static expansions of the
// paper's Tables 1-3 instruction sequences (work-item ID, kernarg access,
// f64 divide) via a kernel using all three.
func BenchmarkTables123Expansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, g := runPair(b, "LULESH", core.RunOptions{})
		b.ReportMetric(float64(g.TotalInsts())/float64(h.TotalInsts()), "GCN3/HSAIL-insts")
		b.ReportMetric(float64(g.InstsByCategory[isa.CatSALU]+g.InstsByCategory[isa.CatSMem])/
			float64(g.TotalInsts()), "GCN3-scalar-fraction")
	}
}

// BenchmarkTable6Similarities regenerates the similarity table's headline:
// SIMD utilization agreement and data-footprint agreement.
func BenchmarkTable6Similarities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Table6()
		util := stats.Geomean(ratioOver(res, func(r *stats.Run) float64 { return r.SIMDUtilization() }))
		foot := stats.Geomean(ratioOver(res, func(r *stats.Run) float64 { return float64(r.DataFootprintBytes) }))
		b.ReportMetric(util, "GCN3/HSAIL-util")
		b.ReportMetric(foot, "GCN3/HSAIL-datafootprint")
	}
}

// BenchmarkTable7HardwareCorrelation regenerates the hardware-correlation
// study against the silicon oracle.
func BenchmarkTable7HardwareCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := suite(b)
		_ = res.Table7()
		var hs, gs, hw []float64
		for _, name := range res.Order {
			p := res.Runs[name]
			w := res.HW[name]
			n := len(w)
			for k := 0; k < n && k < len(p.HSAIL.KernelCycles); k++ {
				hs = append(hs, float64(p.HSAIL.KernelCycles[k]))
				gs = append(gs, float64(p.GCN3.KernelCycles[k]))
				hw = append(hw, w[k])
			}
		}
		b.ReportMetric(stats.Pearson(hs, hw), "HSAIL-corr")
		b.ReportMetric(stats.Pearson(gs, hw), "GCN3-corr")
		b.ReportMetric(100*stats.MeanAbsError(hs, hw), "HSAIL-err-%")
		b.ReportMetric(100*stats.MeanAbsError(gs, hw), "GCN3-err-%")
	}
}

// sweepBenchJobs builds the 4-point VRF bank sweep (both abstractions per
// point, 8 jobs) used by the serial-vs-parallel engine benchmarks.
func sweepBenchJobs(b *testing.B) []exp.Job {
	b.Helper()
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		b.Fatal(err)
	}
	return exp.PairJobs("ArrayBW", benchScale, pts[:4], core.RunOptions{})
}

// runSweepBench drives one engine configuration over the bank sweep with a
// fresh engine (and thus a cold instance cache) per iteration, so serial and
// parallel pay identical preparation costs.
func runSweepBench(b *testing.B, workers int) {
	b.Helper()
	jobs := sweepBenchJobs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := exp.New(workers)
		results, m, err := eng.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		b.ReportMetric(m.Speedup(), "speedup")
		b.ReportMetric(m.Throughput(), "jobs/s")
	}
}

// BenchmarkSweepSerial is the single-worker baseline for the 4-point bank
// sweep; compare with BenchmarkSweepParallel.
func BenchmarkSweepSerial(b *testing.B) {
	runSweepBench(b, 1)
}

// BenchmarkSweepParallel runs the same sweep with one worker per core. On a
// multi-core runner the wall-clock ratio to BenchmarkSweepSerial is the
// engine's parallel speedup (the `speedup` metric reports the engine's own
// per-run measurement of the same quantity).
func BenchmarkSweepParallel(b *testing.B) {
	runSweepBench(b, runtime.GOMAXPROCS(0))
}
