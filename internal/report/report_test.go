package report

import (
	"errors"
	"os"
	"strings"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/isa"
	"ilsim/internal/stats"
	"ilsim/internal/workloads"
)

// TestReportEndToEnd runs the full collection once and checks every section
// renders with the expected structure and the headline shapes the paper
// claims.
func TestReportEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite collection is slow")
	}
	cfg := core.DefaultConfig()
	res, err := Collect(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 10 {
		t.Fatalf("expected 10 workloads, got %d", len(res.Order))
	}
	md := res.Markdown(cfg)
	for _, section := range []string{
		"Paper vs measured", "Figure 1", "Figure 5", "Figure 6", "Figure 7",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12",
		"Table 6", "Table 7", "Ablation",
	} {
		if !strings.Contains(md, section) {
			t.Errorf("report missing section %q", section)
		}
	}
	for _, name := range res.Order {
		if !strings.Contains(md, name) {
			t.Errorf("report missing workload %q", name)
		}
	}

	// Headline shape assertions (the paper's qualitative claims).
	for _, name := range res.Order {
		p := res.Runs[name]
		if p.GCN3.TotalInsts() <= p.HSAIL.TotalInsts() {
			t.Errorf("%s: GCN3 executed fewer instructions than HSAIL", name)
		}
		hu, gu := p.HSAIL.SIMDUtilization(), p.GCN3.SIMDUtilization()
		if hu-gu > 0.1 || gu-hu > 0.1 {
			t.Errorf("%s: SIMD utilization diverges: %.2f vs %.2f", name, hu, gu)
		}
		if p.HSAIL.CodeFootprintBytes >= p.GCN3.CodeFootprintBytes {
			t.Errorf("%s: HSAIL code footprint >= GCN3", name)
		}
	}

	// LULESH's GCN3 code must exceed the 16KB L1I while HSAIL's fits.
	lu := res.Runs["LULESH"]
	if lu.GCN3.CodeFootprintBytes <= 16<<10 {
		t.Errorf("LULESH GCN3 footprint %d does not exceed the 16KB L1I", lu.GCN3.CodeFootprintBytes)
	}
	if lu.HSAIL.CodeFootprintBytes >= 16<<10 {
		t.Errorf("LULESH HSAIL footprint %d does not fit the 16KB L1I", lu.HSAIL.CodeFootprintBytes)
	}
	// And its L1I misses must multiply under GCN3 (the paper's "10x
	// increase in L1 instruction fetch misses").
	if lu.GCN3.L1IMisses < 5*lu.HSAIL.L1IMisses {
		t.Errorf("LULESH L1I misses: GCN3 %d vs HSAIL %d — expected a ~10x increase",
			lu.GCN3.L1IMisses, lu.HSAIL.L1IMisses)
	}

	// Table 6: footprints equal except FFT and LULESH.
	for _, name := range res.Order {
		p := res.Runs[name]
		ratio := float64(p.HSAIL.DataFootprintBytes) / float64(p.GCN3.DataFootprintBytes)
		switch name {
		case "FFT", "LULESH":
			if ratio <= 1.05 {
				t.Errorf("%s: expected inflated HSAIL data footprint, ratio %.2f", name, ratio)
			}
		default:
			if ratio < 0.98 || ratio > 1.02 {
				t.Errorf("%s: data footprints should match, ratio %.2f", name, ratio)
			}
		}
	}

	// Table 7: the IL tracks the machine ISA's trends across launches but
	// not its absolute runtimes (0.984 and 21.6% at scale 1).
	il := res.abstractionError()
	if il.pearson < 0.95 {
		t.Errorf("Table 7: Pearson(HSAIL, GCN3) %.3f over %d launches, want >= 0.95", il.pearson, il.launches)
	}
	if il.perLaunch < 0.15 {
		t.Errorf("Table 7: per-launch abstraction error %.1f%%, want >= 15%%", 100*il.perLaunch)
	}
}

// TestExperimentsFileIsCurrent holds the committed paper tables to the code:
// EXPERIMENTS.md must be, byte for byte, what ilsim-report writes at its
// default scale (2). A change that moves a simulated number regenerates the
// file in the same commit and says so.
func TestExperimentsFileIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite collection is slow")
	}
	const path = "../../EXPERIMENTS.md"
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	res, err := Collect(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(res.Markdown(cfg), "\n")
	got := strings.Split(string(committed), "\n")
	line := 0
	for line < len(got) && line < len(want) && got[line] == want[line] {
		line++
	}
	if line == len(got) && line == len(want) {
		return
	}
	at := func(lines []string) string {
		if line < len(lines) {
			return lines[line]
		}
		return "<end of file>"
	}
	t.Fatalf("EXPERIMENTS.md is stale, first at line %d:\n  committed: %s\n  rendered:  %s\nregenerate with: go run ./cmd/ilsim-report -o EXPERIMENTS.md",
		line+1, at(got), at(want))
}

// TestAblationsRun: the ablation study's five runs are suite jobs like any
// other, their rows come back in configuration order, and the spill
// configuration shows its scratch traffic.
func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Collect(core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	abl := workloads.Ablations()
	text, err := res.Experiment("ablation")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		for _, w := range abl {
			if strings.HasPrefix(line, "| "+w.Description+" |") {
				rows = append(rows, w.Description)
			}
		}
	}
	for i, w := range abl {
		if i >= len(rows) || rows[i] != w.Description {
			t.Fatalf("table rows %q, want the configurations in order", rows)
		}
		if run := res.Runs[w.Name].GCN3; run.Cycles == 0 || run.TotalInsts() == 0 {
			t.Fatalf("%s: empty run", w.Description)
		}
	}
	base, spill := res.Runs[abl[0].Name].GCN3, res.Runs[abl[len(abl)-1].Name].GCN3
	if spill.DataFootprintBytes <= base.DataFootprintBytes {
		t.Error("spill ablation shows no scratch footprint growth")
	}
	if spill.TotalInsts() <= base.TotalInsts() {
		t.Error("spill ablation shows no instruction growth")
	}
}

// TestFailedExtraJobFailsCollection: a Fig 3 or ablation job that fails
// fails the collection like a Table 5 job, and the error names it — the
// report does not come out a section short.
func TestFailedExtraJobFailsCollection(t *testing.T) {
	cfg := core.DefaultConfig()
	spill := exp.Job{Workload: "AblationSpill", Scale: 1, Abs: core.AbsGCN3}.String()
	eng := exp.New(0)
	eng.Faults = exp.NewFaultPlan()
	eng.Faults.Set(spill, exp.Fault{Err: errors.New("injected")})
	res, err := CollectParallel(eng, cfg, 1)
	if res != nil || err == nil {
		t.Fatal("the collection survived a failed ablation job")
	}
	if want := "1 of 27 jobs failed"; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), spill) {
		t.Errorf("error %q does not say %q and name %s", err, want, spill)
	}
}

// fig3Results runs the suite's two Figure 3 jobs on an experiment engine,
// which checks every lane of their outputs.
func fig3Results(t *testing.T) *Results {
	t.Helper()
	var jobs []exp.Job
	for _, j := range SuiteJobs(core.DefaultConfig(), 1, false) {
		if j.Workload == workloads.Fig3().Name {
			jobs = append(jobs, j)
		}
	}
	results, _, err := exp.New(0).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pair{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job, r.Err)
		}
		if r.Job.Abs == core.AbsHSAIL {
			p.HSAIL = r.Run
		} else {
			p.GCN3 = r.Run
		}
	}
	return &Results{Runs: map[string]*Pair{workloads.Fig3().Name: p}, Scale: 1}
}

// TestFig3ExactRedirectCounts pins the paper's Figure 3 walkthrough: the
// flat if-else-if costs HSAIL exactly three front-end redirects and GCN3
// exactly zero, in the timed runs whose outputs the workload's check read.
func TestFig3ExactRedirectCounts(t *testing.T) {
	res := fig3Results(t)
	text, err := res.Experiment("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "**HSAIL 3**") {
		t.Errorf("expected exactly 3 HSAIL redirects:\n%s", text[:300])
	}
	if !strings.Contains(text, "**GCN3 0**") {
		t.Errorf("expected exactly 0 GCN3 redirects:\n%s", text[:300])
	}
	for _, frag := range []string{"s_cbranch_execz", "cbr", "@BB4", "s_andn2_b64 exec"} {
		if !strings.Contains(text, frag) {
			t.Errorf("Fig3 rendering missing %q", frag)
		}
	}
}

// TestFig3ListingIsDeterministic: the Figure 3 kernel has two conditional
// constructs, and the finalizer used to hand out their exec-save registers
// while ranging over a map, so s[16:17] and s[18:19] traded places between
// runs. Fifty finalizations, one listing.
func TestFig3ListingIsDeterministic(t *testing.T) {
	res := fig3Results(t)
	first, err := res.Experiment("fig3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		text, err := res.Experiment("fig3")
		if err != nil {
			t.Fatal(err)
		}
		if text != first {
			t.Fatalf("finalization %d rendered another listing:\n%s\n--- first:\n%s", i, text, first)
		}
	}
}

// TestCSVExport verifies the plotting-pipeline export writes every file with
// its header and one row per workload, except fig5.csv, which has one per
// workload and abstraction, and table7.csv, which has one per kernel launch.
func TestCSVExport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Collect(core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	launches := 0
	for _, n := range res.Order {
		launches += len(res.Runs[n].GCN3.KernelCycles)
	}
	for _, c := range []struct {
		name, header string
		rows         int
	}{
		{"fig5.csv", "workload,abstraction,VALU,SALU,VMem,SMem,Branch,Waitcnt,LDS,Misc,total", 2 * len(res.Order)},
		{"fig6.csv", "workload,hsail_conflicts_per_kiloinst,gcn3_conflicts_per_kiloinst", len(res.Order)},
		{"fig7.csv", "workload,hsail_reuse_median,gcn3_reuse_median", len(res.Order)},
		{"fig8.csv", "workload,hsail_code_bytes,gcn3_code_bytes,hsail_l1i_miss_rate,gcn3_l1i_miss_rate", len(res.Order)},
		{"fig9.csv", "workload,hsail_ib_flushes_per_kiloinst,gcn3_ib_flushes_per_kiloinst", len(res.Order)},
		{"fig10.csv", "workload,hsail_read_uniq,gcn3_read_uniq,hsail_write_uniq,gcn3_write_uniq", len(res.Order)},
		{"fig11.csv", "workload,hsail_ipc,gcn3_ipc", len(res.Order)},
		{"fig12.csv", "workload,hsail_cycles,gcn3_cycles", len(res.Order)},
		{"table6.csv", "workload,hsail_data_bytes,gcn3_data_bytes,hsail_simd_util,gcn3_simd_util", len(res.Order)},
		{"table7.csv", "workload,kernel_index,hsail_cycles,gcn3_cycles", launches},
	} {
		data, err := os.ReadFile(dir + "/" + c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 1+c.rows || !strings.HasPrefix(string(data), c.header+"\n") {
			t.Errorf("%s: %d lines, want the header %q and %d rows:\n%.200s", c.name, lines, c.header, c.rows, data)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 10 {
		t.Errorf("%d files exported, want 10", len(files))
	}
}

// TestEveryExperimentIsInTheReport renders each section ilsim-report -exp
// can name and finds that text, verbatim, in the full report.
func TestEveryExperimentIsInTheReport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := core.DefaultConfig()
	res, err := Collect(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	md := res.Markdown(cfg)
	keys := Experiments()
	if len(keys) != 13 {
		t.Errorf("%d experiments %q, want 13", len(keys), keys)
	}
	for _, key := range keys {
		text, err := res.Experiment(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !strings.HasPrefix(text, "\n### ") || !strings.Contains(md, text) {
			t.Errorf("%s: not a section of the report:\n%.300s", key, text)
		}
	}
	if _, err := res.Experiment("fig13"); err == nil {
		t.Error("an unknown experiment rendered")
	}
}

// TestZeroDenominatorRule: a workload whose ratio has a zero on either side
// reads 0.00 in its figure and stays out of the suite summary, in every
// figure alike: in either direction of a ratio, and in Fig 1's rows.
func TestZeroDenominatorRule(t *testing.T) {
	run := func(insts, cycles, flushes uint64) *stats.Run {
		s := &stats.Run{Cycles: cycles, IBFlushes: flushes}
		s.InstsByCategory[isa.CatVALU] = insts
		return s
	}
	idle := &Results{Order: []string{"idle", "busy"}, Runs: map[string]*Pair{
		"idle": {HSAIL: run(0, 0, 0), GCN3: run(0, 0, 0)},
		"busy": {HSAIL: run(100, 100, 4), GCN3: run(200, 100, 2)},
	}}
	// A zero numerator: HSAIL has no IB flushes where GCN3 has some.
	quiet := &Results{Order: []string{"quiet", "busy"}, Runs: map[string]*Pair{
		"quiet": {HSAIL: run(100, 100, 0), GCN3: run(200, 100, 2)},
		"busy":  {HSAIL: run(100, 100, 4), GCN3: run(200, 100, 4)},
	}}
	for _, c := range []struct {
		res  *Results
		key  string
		rows []string
	}{
		{idle, "fig11", []string{"| idle | 0.000 | 0.000 | 0.00 |", "| busy | 1.000 | 2.000 | 2.00 |", "| **geomean** |  |  | 2.00 |"}},
		{idle, "fig9", []string{"| idle | 0.00 | 0.00 | 0.00 |", "| busy | 40.00 | 10.00 | 4.00 |", "| **geomean** |  |  | 4.00 |"}},
		{idle, "fig1", []string{"| Dynamic instructions | 2.00 |", "| IB flushes (per inst) | 0.25 |", "| IPC | 2.00 |"}},
		{quiet, "fig9", []string{"| quiet | 0.00 | 10.00 | 0.00 |", "| busy | 40.00 | 20.00 | 2.00 |", "| **geomean** |  |  | 2.00 |"}},
	} {
		text, err := c.res.Experiment(c.key)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range c.rows {
			if !strings.Contains(text, row+"\n") {
				t.Errorf("%s lacks the row %q:\n%s", c.key, row, text)
			}
		}
		if strings.Contains(text, "NaN") || strings.Contains(text, "Inf") {
			t.Errorf("%s divides by zero:\n%s", c.key, text)
		}
	}
}
