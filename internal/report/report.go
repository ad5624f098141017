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
	"strconv"
	"strings"

	"ilsim/internal/core"
	"ilsim/internal/exp"
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
func kb(v float64) string  { return fmt.Sprintf("%.1fKB", v/1024) }
func f0(v float64) string  { return strconv.FormatFloat(v, 'f', 0, 64) }

// pct1 is pct with one decimal, for Table 7's errors.
func pct1(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

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
	name string
	// hsail and gcn3 are the cycles of each launch both runs made.
	hsail, gcn3 []float64
	mean, max   float64
}

// abstractionError measures Table 7 over the suite.
func (r *Results) abstractionError() ilError {
	var e ilError
	var hs, gs []float64
	for _, name := range r.Order {
		p := r.Runs[name]
		n := min(len(p.HSAIL.KernelCycles), len(p.GCN3.KernelCycles))
		h, g := make([]float64, n), make([]float64, n)
		row := ilErrorRow{name: name, hsail: h, gcn3: g}
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

// table7 renders what the IL costs against the machine ISA. The paper's
// Table 7 compares both simulators with measured silicon; without silicon,
// what this repository can measure is the error the IL abstraction adds.
func (r *Results) table7(_ *section, t *table) error {
	e := r.abstractionError()
	t.row("Workload", "launches", "mean error", "max error")
	t.sep(4)
	for _, row := range e.rows {
		t.row(row.name, fmt.Sprintf("%d", len(row.hsail)), pct1(row.mean), pct1(row.max))
	}
	t.row("**summary**", fmt.Sprintf("%d", e.launches),
		fmt.Sprintf("%s per launch / %s per workload", pct1(e.perLaunch), pct1(e.perWorkload)),
		fmt.Sprintf("Pearson(HSAIL, GCN3) %.3f", e.pearson))
	return nil
}

// table7CSV is Table 7's data per dynamic kernel launch.
func (r *Results) table7CSV() [][]string {
	rows := [][]string{{"workload", "kernel_index", "hsail_cycles", "gcn3_cycles"}}
	for _, row := range r.abstractionError().rows {
		for i := range row.hsail {
			rows = append(rows, []string{row.name, fmt.Sprint(i), f0(row.hsail[i]), f0(row.gcn3[i])})
		}
	}
	return rows
}

// Markdown renders the complete experiment report: the paper comparison,
// then every section in list order.
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
	for i := range sections {
		text, err := r.render(&sections[i])
		if err != nil {
			fmt.Fprintf(&b, "\n**%s failed:** %v\n", sections[i].title, err)
		}
		b.WriteString(text)
	}
	return b.String()
}
