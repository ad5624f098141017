// Package report regenerates every table and figure of the paper's
// evaluation: it builds one job set — the Table 5 suite under both
// abstractions on the Table 4 machine, plus the Figure 3 and finalizer
// ablation runs — hands it to an experiment runner, and renders the
// statistics each figure plots as markdown for EXPERIMENTS.md and the
// ilsim-report tool. It simulates nothing itself.
package report

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/isa"
	"ilsim/internal/stats"
	"ilsim/internal/workloads"
)

// Pair holds one workload's runs under both abstractions.
type Pair struct {
	HSAIL *stats.Run
	GCN3  *stats.Run
}

// Results carries everything the figures need.
type Results struct {
	// Order lists the Table 5 workloads; Runs also holds Fig 3's pair and
	// each ablation configuration's GCN3 run (see Assemble).
	Order []string
	Runs  map[string]*Pair
	// Scale is the input scale the suite ran at.
	Scale int
}

// Collect runs the whole suite under both abstractions, verifying outputs.
// Jobs execute on a default experiment engine (GOMAXPROCS workers).
func Collect(cfg core.Config, scale int) (*Results, error) {
	return CollectParallel(exp.New(0), cfg, scale)
}

// SuiteJobs builds the report's flat job set: first the finalizer ablation
// study (one GCN3 run per workloads.Ablations configuration) and the Figure 3
// kernel under both abstractions, so the long spill run starts with the
// suite; then, per Table 5 workload, HSAIL and GCN3 runs on cfg. It is
// exported so callers can bind a checkpoint journal (exp.OpenJournal) to
// exactly the set CollectParallel will run. The trailing bool is ignored:
// the set is the same whatever it says, and it stays only because the
// benchmark harness passes one.
func SuiteJobs(cfg core.Config, scale int, _ bool) []exp.Job {
	abl := workloads.Ablations()
	all := workloads.All()
	jobs := make([]exp.Job, 0, len(abl)+2+2*len(all))
	for _, w := range abl {
		jobs = append(jobs, exp.Job{Workload: w.Name, Scale: scale, Abs: core.AbsGCN3, Config: cfg,
			Opts: core.RunOptions{TrackReuse: true}})
	}
	fig3 := workloads.Fig3().Name
	jobs = append(jobs,
		exp.Job{Workload: fig3, Scale: scale, Abs: core.AbsHSAIL, Config: cfg},
		exp.Job{Workload: fig3, Scale: scale, Abs: core.AbsGCN3, Config: cfg})
	opts := core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}
	for _, w := range all {
		jobs = append(jobs,
			exp.Job{Workload: w.Name, Scale: scale, Abs: core.AbsHSAIL, Config: cfg, Opts: opts},
			exp.Job{Workload: w.Name, Scale: scale, Abs: core.AbsGCN3, Config: cfg, Opts: opts})
	}
	return jobs
}

// CollectParallel runs the whole suite through the given runner — a local
// engine that spreads one flat job set over its worker pool, or a
// dist.Coordinator that leases the same set to remote workers. Results
// are assembled in Table 5 order. Every figure needs every run, so ANY
// failed job fails the collection; the returned error enumerates all
// failures with their classes so one rerun can address them together.
func CollectParallel(eng exp.Runner, cfg core.Config, scale int) (*Results, error) {
	results, _, err := eng.Run(SuiteJobs(cfg, scale, false))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return Assemble(results, scale, false)
}

// Assemble builds the figure-ready Results from the SuiteJobs result set.
// The trailing bool is ignored, as SuiteJobs' is.
func Assemble(results []exp.Result, scale int, _ bool) (*Results, error) {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s [%s]: %w", r.Job, exp.Classify(r.Err), r.Err))
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("report: %d of %d jobs failed:\n%w",
			len(errs), len(results), errors.Join(errs...))
	}
	abl := workloads.Ablations()
	all := workloads.All()
	if want := len(abl) + 2 + 2*len(all); len(results) != want {
		return nil, fmt.Errorf("report: %d results for a %d-job suite", len(results), want)
	}
	res := &Results{Runs: make(map[string]*Pair), Scale: scale}
	for i, w := range abl {
		res.Runs[w.Name] = &Pair{GCN3: results[i].Run}
	}
	fig3 := results[len(abl):]
	res.Runs[workloads.Fig3().Name] = &Pair{HSAIL: fig3[0].Run, GCN3: fig3[1].Run}
	suite := fig3[2:]
	for i, w := range all {
		res.Order = append(res.Order, w.Name)
		res.Runs[w.Name] = &Pair{HSAIL: suite[2*i].Run, GCN3: suite[2*i+1].Run}
	}
	return res, nil
}

type table struct {
	b strings.Builder
}

func (t *table) title(s string) { fmt.Fprintf(&t.b, "\n### %s\n\n", s) }
func (t *table) note(s string)  { fmt.Fprintf(&t.b, "%s\n\n", s) }
func (t *table) row(cells ...string) {
	t.b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
}
func (t *table) sep(n int) {
	t.b.WriteString("|" + strings.Repeat("---|", n) + "\n")
}
func (t *table) String() string { return t.b.String() }

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
func kb(v uint64) string   { return fmt.Sprintf("%.1fKB", float64(v)/1024) }

// pct1 is pct with one decimal, for Table 7's errors.
func pct1(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ratios computes GCN3/HSAIL for a metric over the suite.
func (r *Results) ratios(metric func(*stats.Run) float64) []float64 {
	var out []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		h, g := metric(p.HSAIL), metric(p.GCN3)
		if h > 0 {
			out = append(out, g/h)
		}
	}
	return out
}

// Fig5 renders the dynamic instruction count breakdown, GCN3 normalized to
// HSAIL per workload.
func (r *Results) Fig5() string {
	t := &table{}
	t.title("Figure 5 — Dynamic instruction count and breakdown (normalized to HSAIL)")
	t.note("Each GCN3 column is that category's dynamic count divided by the workload's TOTAL HSAIL count; Total is the paper's headline expansion factor.")
	hdr := []string{"Workload"}
	for c := 0; c < isa.NumCategories; c++ {
		hdr = append(hdr, isa.Category(c).String())
	}
	hdr = append(hdr, "GCN3 Total", "HSAIL VMem%", "HSAIL Branch%")
	t.row(hdr...)
	t.sep(len(hdr))
	var totals []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		hTot := float64(p.HSAIL.TotalInsts())
		cells := []string{name}
		for c := 0; c < isa.NumCategories; c++ {
			cells = append(cells, f2(float64(p.GCN3.InstsByCategory[c])/hTot))
		}
		tot := float64(p.GCN3.TotalInsts()) / hTot
		totals = append(totals, tot)
		cells = append(cells, f2(tot),
			pct(float64(p.HSAIL.InstsByCategory[isa.CatVMem])/hTot),
			pct(float64(p.HSAIL.InstsByCategory[isa.CatBranch])/hTot))
		t.row(cells...)
	}
	t.row("**geomean**", "", "", "", "", "", "", "", "", f2(stats.Geomean(totals)), "", "")
	return t.String()
}

// Fig6 renders VRF bank conflicts.
func (r *Results) Fig6() string {
	t := &table{}
	t.title("Figure 6 — VRF bank conflicts")
	t.note("Conflicts per 1K dynamic instructions; the paper reports GCN3 at roughly one third of HSAIL on average.")
	t.row("Workload", "HSAIL", "GCN3", "HSAIL/GCN3")
	t.sep(4)
	var ratios []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		h, g := p.HSAIL.ConflictsPerKiloInst(), p.GCN3.ConflictsPerKiloInst()
		ratio := 0.0
		if g > 0 {
			ratio = h / g
			ratios = append(ratios, ratio)
		}
		t.row(name, f2(h), f2(g), f2(ratio))
	}
	t.row("**geomean**", "", "", f2(stats.Geomean(ratios)))
	return t.String()
}

// Fig7 renders median vector-register reuse distance.
func (r *Results) Fig7() string {
	t := &table{}
	t.title("Figure 7 — Median vector register reuse distance")
	t.note("Dynamic instructions between consecutive accesses to the same vector register; finalizer scheduling should roughly double it.")
	t.row("Workload", "HSAIL", "GCN3", "GCN3/HSAIL")
	t.sep(4)
	var ratios []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		h, g := float64(p.HSAIL.Reuse.Median()), float64(p.GCN3.Reuse.Median())
		ratio := 0.0
		if h > 0 {
			ratio = g / h
			ratios = append(ratios, ratio)
		}
		t.row(name, fmt.Sprintf("%.0f", h), fmt.Sprintf("%.0f", g), f2(ratio))
	}
	t.row("**geomean**", "", "", f2(stats.Geomean(ratios)))
	return t.String()
}

// Fig8 renders static instruction footprints.
func (r *Results) Fig8() string {
	t := &table{}
	t.title("Figure 8 — Instruction footprint")
	t.note("HSAIL uses the loader's 8-byte-per-instruction approximation; GCN3 is the true encoded size. LULESH's GCN3 footprint exceeding the 16KB L1I is the paper's highlighted case.")
	t.row("Workload", "HSAIL", "GCN3", "GCN3/HSAIL", "GCN3 L1I miss rate", "HSAIL L1I miss rate")
	t.sep(6)
	var ratios []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		h, g := p.HSAIL.CodeFootprintBytes, p.GCN3.CodeFootprintBytes
		ratio := float64(g) / float64(h)
		ratios = append(ratios, ratio)
		hm := float64(p.HSAIL.L1IMisses) / float64(max64(p.HSAIL.L1IAccesses, 1))
		gm := float64(p.GCN3.L1IMisses) / float64(max64(p.GCN3.L1IAccesses, 1))
		t.row(name, kb(h), kb(g), f2(ratio), f3(gm), f3(hm))
	}
	t.row("**geomean**", "", "", f2(stats.Geomean(ratios)), "", "")
	return t.String()
}

// Fig9 renders instruction-buffer flushes.
func (r *Results) Fig9() string {
	t := &table{}
	t.title("Figure 9 — Instruction buffer flushes")
	t.note("Flushes per 1K dynamic instructions. Reconvergence-stack jumps inflate HSAIL; predicated GCN3 flushes mostly on loop back-edges.")
	t.row("Workload", "HSAIL", "GCN3", "HSAIL/GCN3")
	t.sep(4)
	var ratios []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		h := 1000 * float64(p.HSAIL.IBFlushes) / float64(p.HSAIL.TotalInsts())
		g := 1000 * float64(p.GCN3.IBFlushes) / float64(p.GCN3.TotalInsts())
		ratio := 0.0
		if g > 0 {
			ratio = h / g
			ratios = append(ratios, ratio)
		}
		t.row(name, f2(h), f2(g), f2(ratio))
	}
	t.row("**geomean**", "", "", f2(stats.Geomean(ratios)))
	return t.String()
}

// Fig10 renders VRF lane-value uniqueness.
func (r *Results) Fig10() string {
	t := &table{}
	t.title("Figure 10 — Uniqueness of VRF lane values")
	t.note("Unique values per active lane over sampled VRF accesses (reads and writes). Direction is workload-dependent, as in the paper.")
	t.row("Workload", "HSAIL read", "GCN3 read", "HSAIL write", "GCN3 write")
	t.sep(5)
	for _, name := range r.Order {
		p := r.Runs[name]
		t.row(name,
			pct(p.HSAIL.ReadUniqueness()), pct(p.GCN3.ReadUniqueness()),
			pct(p.HSAIL.WriteUniqueness()), pct(p.GCN3.WriteUniqueness()))
	}
	return t.String()
}

// Fig11 renders IPC.
func (r *Results) Fig11() string {
	t := &table{}
	t.title("Figure 11 — IPC (normalized to HSAIL)")
	t.row("Workload", "HSAIL IPC", "GCN3 IPC", "GCN3/HSAIL")
	t.sep(4)
	var ratios []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		ratio := p.GCN3.IPC() / p.HSAIL.IPC()
		ratios = append(ratios, ratio)
		t.row(name, f3(p.HSAIL.IPC()), f3(p.GCN3.IPC()), f2(ratio))
	}
	t.row("**geomean**", "", "", f2(stats.Geomean(ratios)))
	return t.String()
}

// Fig12 renders runtimes.
func (r *Results) Fig12() string {
	t := &table{}
	t.title("Figure 12 — Runtime (GPU cycles, HSAIL normalized to GCN3)")
	t.note("Values above 1 mean the IL simulation is pessimistic; below 1, optimistic. The paper's point is that the sign is workload-dependent and unpredictable.")
	t.row("Workload", "HSAIL cycles", "GCN3 cycles", "HSAIL/GCN3")
	t.sep(4)
	for _, name := range r.Order {
		p := r.Runs[name]
		t.row(name, fmt.Sprintf("%d", p.HSAIL.Cycles), fmt.Sprintf("%d", p.GCN3.Cycles),
			f2(float64(p.HSAIL.Cycles)/float64(p.GCN3.Cycles)))
	}
	return t.String()
}

// Fig1 renders the summary of dissimilar and similar statistics.
func (r *Results) Fig1() string {
	t := &table{}
	t.title("Figure 1 — Average of dissimilar and similar statistics (GCN3/HSAIL)")
	rows := []struct {
		name string
		v    float64
	}{
		{"Dynamic instructions", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return float64(s.TotalInsts()) }))},
		{"Code footprint", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return float64(s.CodeFootprintBytes) }))},
		{"VRF bank conflicts", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return s.ConflictsPerKiloInst() }))},
		{"Register reuse distance", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return float64(s.Reuse.Median()) }))},
		{"IB flushes (per inst)", stats.Geomean(r.ratios(func(s *stats.Run) float64 {
			return float64(s.IBFlushes) / float64(s.TotalInsts())
		}))},
		{"GPU cycles", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return float64(s.Cycles) }))},
		{"IPC", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return s.IPC() }))},
		{"SIMD utilization (similar)", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return s.SIMDUtilization() }))},
		{"Data footprint (similar)", stats.Geomean(r.ratios(func(s *stats.Run) float64 { return float64(s.DataFootprintBytes) }))},
	}
	t.row("Statistic", "GCN3/HSAIL geomean")
	t.sep(2)
	for _, row := range rows {
		t.row(row.name, f2(row.v))
	}
	return t.String()
}

// Table6 renders the similarity table: data footprint and SIMD utilization.
func (r *Results) Table6() string {
	t := &table{}
	t.title("Table 6 — Similar statistics: data footprint and SIMD utilization")
	t.note("Footprints match except for workloads using per-launch special segments (FFT spill, LULESH private), which HSAIL's emulated ABI re-maps at every dynamic launch.")
	t.row("Workload", "HSAIL footprint", "GCN3 footprint", "ratio", "HSAIL SIMD util", "GCN3 SIMD util")
	t.sep(6)
	for _, name := range r.Order {
		p := r.Runs[name]
		t.row(name,
			kb(p.HSAIL.DataFootprintBytes), kb(p.GCN3.DataFootprintBytes),
			f2(float64(p.HSAIL.DataFootprintBytes)/float64(p.GCN3.DataFootprintBytes)),
			pct(p.HSAIL.SIMDUtilization()), pct(p.GCN3.SIMDUtilization()))
	}
	return t.String()
}

// ilError is Table 7's measurement: the error the IL abstraction adds,
// taken per dynamic kernel launch as |HSAIL − GCN3| / GCN3 cycles, with the
// GCN3 simulation as the reference.
type ilError struct {
	rows []ilErrorRow // one per workload, in Order
	// launches counts the suite's dynamic kernel launches.
	launches int
	// perLaunch is the mean error over all launches (LULESH's launches
	// dominate it); perWorkload the mean of the rows' means.
	perLaunch, perWorkload float64
	// pearson is Pearson(HSAIL, GCN3) over all launches.
	pearson float64
}

type ilErrorRow struct {
	name      string
	launches  int
	mean, max float64
}

// abstractionError measures Table 7 over the suite.
func (r *Results) abstractionError() ilError {
	var e ilError
	var hs, gs []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		n := min(len(p.HSAIL.KernelCycles), len(p.GCN3.KernelCycles))
		h, g := make([]float64, n), make([]float64, n)
		row := ilErrorRow{name: name, launches: n}
		for i := range n {
			h[i], g[i] = float64(p.HSAIL.KernelCycles[i]), float64(p.GCN3.KernelCycles[i])
			row.max = max(row.max, math.Abs(h[i]-g[i])/g[i])
		}
		row.mean = stats.MeanAbsError(h, g)
		e.rows = append(e.rows, row)
		e.perWorkload += row.mean / float64(len(r.Order))
		hs, gs = append(hs, h...), append(gs, g...)
	}
	e.launches = len(hs)
	e.perLaunch = stats.MeanAbsError(hs, gs)
	e.pearson = stats.Pearson(hs, gs)
	return e
}

// Table7 renders what the IL costs against the machine ISA. The paper's
// Table 7 compares both simulators with measured silicon; without silicon,
// what this repository can measure is the error the IL abstraction adds.
func (r *Results) Table7() string {
	e := r.abstractionError()
	t := &table{}
	t.title("Table 7 — What the IL costs against the machine ISA")
	t.note("The paper compares both simulators with an AMD Pro A12-8800B measured through the Radeon Compute Profiler; this repository has no silicon, so that comparison is not reproduced. " +
		"Instead, per dynamic kernel launch: |HSAIL − GCN3| / GCN3 cycles, the error an IL-level simulation adds against the machine-ISA simulation of the same binary. " +
		"The per-launch mean weights each workload by its launches (LULESH dominates it); the per-workload mean weights each workload once.")
	t.row("Workload", "launches", "mean error", "max error")
	t.sep(4)
	for _, row := range e.rows {
		t.row(row.name, fmt.Sprintf("%d", row.launches), pct1(row.mean), pct1(row.max))
	}
	t.row("**summary**", fmt.Sprintf("%d", e.launches),
		fmt.Sprintf("%s per launch / %s per workload", pct1(e.perLaunch), pct1(e.perWorkload)),
		fmt.Sprintf("Pearson(HSAIL, GCN3) %.3f", e.pearson))
	return t.String()
}

// Markdown renders the complete experiment report.
func (r *Results) Markdown(cfg core.Config) string {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs measured\n\n")
	b.WriteString("Regenerated by `go run ./cmd/ilsim-report`.\n")
	b.WriteString("Every run verifies workload outputs against host-side mirrors before reporting.\n")
	b.WriteString("Absolute values depend on input scale; the RATIOS and orderings are the\n")
	b.WriteString("reproduction targets, per the brief's \"shape should hold\" standard. Deviations\n")
	b.WriteString("are annotated inline and discussed in DESIGN.md §8.\n\n")
	fmt.Fprintf(&b, "Input scale: %d. Simulated configuration (Table 4):\n\n```\n%s\n```\n", r.Scale, cfg.String())
	b.WriteString(r.PaperComparison())
	b.WriteString(r.Fig1())
	if fig3, err := r.Fig3(); err != nil {
		fmt.Fprintf(&b, "\n**Figure 3 failed:** %v\n", err)
	} else {
		b.WriteString(fig3)
	}
	b.WriteString(r.Fig5())
	b.WriteString(r.Fig6())
	b.WriteString(r.Fig7())
	b.WriteString(r.Fig8())
	b.WriteString(r.Fig9())
	b.WriteString(r.Fig10())
	b.WriteString(r.Fig11())
	b.WriteString(r.Fig12())
	b.WriteString(r.Table6())
	b.WriteString(r.Table7())
	b.WriteString(r.AblationTable())
	return b.String()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
