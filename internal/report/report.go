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
	"strings"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/hwmodel"
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
	// HW maps workload → per-kernel oracle runtimes (Table 7).
	HW map[string][]float64
	// Scale is the input scale the suite ran at.
	Scale int
}

// Collect runs the whole suite under both abstractions, verifying outputs.
// When withHW is set it also measures the hardware oracle. Jobs execute on
// a default experiment engine (GOMAXPROCS workers).
func Collect(cfg core.Config, scale int, withHW bool) (*Results, error) {
	return CollectParallel(exp.New(0), cfg, scale, withHW)
}

// SuiteJobs builds the report's flat job set: first the finalizer ablation
// study (one GCN3 run per workloads.Ablations configuration) and the Figure 3
// kernel under both abstractions, so the long spill run starts with the
// suite; then, per Table 5 workload, HSAIL and GCN3 runs on cfg plus
// (optionally) the hardware oracle's silicon-configured run. It is exported
// so callers can bind a checkpoint journal (exp.OpenJournal) to exactly the
// set CollectParallel will run.
func SuiteJobs(cfg core.Config, scale int, withHW bool) []exp.Job {
	abl := workloads.Ablations()
	all := workloads.All()
	jobs := make([]exp.Job, 0, len(abl)+2+perWorkload(withHW)*len(all))
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
		if withHW {
			jobs = append(jobs, exp.Job{Label: "hw-oracle", Workload: w.Name,
				Scale: scale, Abs: core.AbsGCN3, Config: hwmodel.SiliconConfig()})
		}
	}
	return jobs
}

// perWorkload is how many jobs SuiteJobs gives each Table 5 workload.
func perWorkload(withHW bool) int {
	if withHW {
		return 3
	}
	return 2
}

// CollectParallel runs the whole suite through the given runner — a local
// engine that spreads one flat job set over its worker pool, or a
// dist.Coordinator that leases the same set to remote workers. Results
// are assembled in Table 5 order. Every figure needs every run, so ANY
// failed job fails the collection; the returned error enumerates all
// failures with their classes so one rerun can address them together.
func CollectParallel(eng exp.Runner, cfg core.Config, scale int, withHW bool) (*Results, error) {
	results, _, err := eng.Run(SuiteJobs(cfg, scale, withHW))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return Assemble(results, scale, withHW)
}

// Assemble builds the figure-ready Results from the SuiteJobs result set.
func Assemble(results []exp.Result, scale int, withHW bool) (*Results, error) {
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
	perWL := perWorkload(withHW)
	if want := len(abl) + 2 + perWL*len(all); len(results) != want {
		return nil, fmt.Errorf("report: %d results for a %d-job suite", len(results), want)
	}
	res := &Results{Runs: make(map[string]*Pair), HW: make(map[string][]float64), Scale: scale}
	for i, w := range abl {
		res.Runs[w.Name] = &Pair{GCN3: results[i].Run}
	}
	fig3 := results[len(abl):]
	res.Runs[workloads.Fig3().Name] = &Pair{HSAIL: fig3[0].Run, GCN3: fig3[1].Run}
	suite := fig3[2:]
	for i, w := range all {
		base := i * perWL
		res.Order = append(res.Order, w.Name)
		res.Runs[w.Name] = &Pair{HSAIL: suite[base].Run, GCN3: suite[base+1].Run}
		if withHW {
			res.HW[w.Name] = hwmodel.PerturbedRuntimes(w.Name, suite[base+2].Run.KernelCycles)
		}
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

// Table7 renders the hardware correlation study.
func (r *Results) Table7() string {
	t := &table{}
	t.title("Table 7 — Hardware correlation and error")
	if len(r.HW) == 0 {
		t.note("(hardware oracle not run; use -hw)")
		return t.String()
	}
	t.note("Per-kernel runtimes compared against the silicon oracle (see internal/hwmodel), averaged across all dynamic kernel launches as in the paper. Correlation stays high for both; absolute error is larger and more erratic for HSAIL.")
	var hs, gs, hw []float64
	t.row("Workload", "kernels", "HSAIL err (mean±max)", "GCN3 err (mean±max)")
	t.sep(4)
	for _, name := range r.Order {
		p := r.Runs[name]
		w := r.HW[name]
		n := len(w)
		if len(p.HSAIL.KernelCycles) < n {
			n = len(p.HSAIL.KernelCycles)
		}
		var hErrW, gErrW []float64
		var hMax, gMax float64
		for i := 0; i < n; i++ {
			h := float64(p.HSAIL.KernelCycles[i])
			g := float64(p.GCN3.KernelCycles[i])
			hs, gs, hw = append(hs, h), append(gs, g), append(hw, w[i])
			he := abs(h-w[i]) / w[i]
			ge := abs(g-w[i]) / w[i]
			hErrW = append(hErrW, he)
			gErrW = append(gErrW, ge)
			if he > hMax {
				hMax = he
			}
			if ge > gMax {
				gMax = ge
			}
		}
		t.row(name, fmt.Sprintf("%d", n),
			fmt.Sprintf("%s / %s", pct(mean(hErrW)), pct(hMax)),
			fmt.Sprintf("%s / %s", pct(mean(gErrW)), pct(gMax)))
	}
	var hErr, gErr []float64
	for i := range hw {
		hErr = append(hErr, abs(hs[i]-hw[i])/hw[i])
		gErr = append(gErr, abs(gs[i]-hw[i])/hw[i])
	}
	t.row("**summary**",
		fmt.Sprintf("corr HSAIL %.3f / GCN3 %.3f", stats.Pearson(hs, hw), stats.Pearson(gs, hw)),
		pct(mean(hErr)), pct(mean(gErr)))
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

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
