package report

import (
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
)

func finalizerOptionsNone() finalizer.Options { return finalizer.Options{} }

// TestReportEndToEnd runs the full collection once (with the hardware
// oracle) and checks every section renders with the expected structure and
// the headline shapes the paper claims.
func TestReportEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite collection is slow")
	}
	cfg := core.DefaultConfig()
	res, err := Collect(cfg, 1, true)
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
		if p.HSAIL.InstsByCategory[4] != 0 { // CatBranch sanity is workload-dependent; check scalar cats instead
			_ = p
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
}

// TestExperimentsFileIsCurrent holds the committed paper tables to the code:
// EXPERIMENTS.md must be, byte for byte, what ilsim-report writes at its
// default scale (2) with the hardware oracle on. A change that moves a
// simulated number regenerates the file in the same commit and says so.
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
	res, err := Collect(cfg, 2, true)
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

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := core.DefaultConfig()
	// One configuration at a time, then (at least) four at once: the rows
	// must not know the difference.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	serial, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(max(procs, 4))
	rows, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, serial) {
		t.Errorf("concurrent ablations differ from serial ones:\n%+v\n%+v", rows, serial)
	}
	if len(rows) != len(ablationConfigs) {
		t.Fatalf("expected %d ablation rows, got %d", len(ablationConfigs), len(rows))
	}
	for i, c := range ablationConfigs {
		if rows[i].Name != c.name {
			t.Errorf("row %d is %q, want %q: rows must come back in configuration order", i, rows[i].Name, c.name)
		}
	}
	base := rows[0]
	for _, r := range rows[1:] {
		if r.Cycles == 0 || r.Insts == 0 {
			t.Fatalf("%s: empty run", r.Name)
		}
	}
	// The spill configuration must show scratch traffic.
	spill := rows[len(rows)-1]
	if spill.DataFootprint <= base.DataFootprint {
		t.Error("spill ablation shows no scratch footprint growth")
	}
	if spill.Insts <= base.Insts {
		t.Error("spill ablation shows no instruction growth")
	}
	table := AblationTable(rows)
	if !strings.Contains(table, "baseline") || !strings.Contains(table, "spill") {
		t.Error("ablation table missing rows")
	}

	// Two configurations the finalizer rejects (44 VGPRs cannot fit in 8),
	// run alongside three that succeed: the error is the one a serial loop
	// would have stopped at, and it names its configuration.
	configs := slices.Clone(ablationConfigs)
	configs[2] = ablationConfig{"first to fail", finalizer.Options{MaxVGPRs: 8}}
	configs[4] = ablationConfig{"second to fail", finalizer.Options{MaxVGPRs: 8}}
	_, err = runAblations(cfg, configs)
	if err == nil || !strings.Contains(err.Error(), `ablation "first to fail"`) ||
		!strings.Contains(err.Error(), "exceeds budget 8") {
		t.Errorf("error %v does not wrap the first failing configuration's", err)
	}
}

// TestMarkdownReportsFailedSections: a section that cannot be produced leaves
// a line saying why, not a gap (a report that silently loses its ablation
// table still exits 0).
func TestMarkdownReportsFailedSections(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.L1DSize = 8 // core.NewSimulator rejects a cache smaller than a line
	md := (&Results{Scale: 1}).Markdown(cfg)
	if want := "\n**Ablation failed:** core: L1D of 8 bytes holds no 64-byte line\n"; !strings.Contains(md, want) {
		t.Errorf("report does not say its ablation section failed; want %q", want)
	}
	if strings.Contains(md, "### Ablation") {
		t.Error("report has an ablation table although the simulator rejected the configuration")
	}
	for _, kept := range []string{"### Figure 3", "### Simulator throughput"} {
		if !strings.Contains(md, kept) {
			t.Errorf("the failed section took %q with it", kept)
		}
	}
}

// TestFig3ExactRedirectCounts pins the paper's Figure 3 walkthrough: the
// flat if-else-if costs HSAIL exactly three front-end redirects and GCN3
// exactly zero — and both compute the right answers.
func TestFig3ExactRedirectCounts(t *testing.T) {
	text, err := Fig3()
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
	first, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		text, err := Fig3()
		if err != nil {
			t.Fatal(err)
		}
		if text != first {
			t.Fatalf("finalization %d rendered another listing:\n%s\n--- first:\n%s", i, text, first)
		}
	}
}

// TestFig3KernelCorrectness verifies the hand-built Figure 3 kernel computes
// 84/90 correctly under both abstractions.
func TestFig3KernelCorrectness(t *testing.T) {
	ks, err := core.PrepareKernel(fig3Kernel(), finalizerOptionsNone())
	if err != nil {
		t.Fatal(err)
	}
	for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
		m := core.NewMachine(abs, nil)
		in := m.Ctx.AllocBuffer(4 * 64)
		out := m.Ctx.AllocBuffer(4 * 64)
		for i := 0; i < 64; i++ {
			m.Ctx.Mem.WriteU32(in+uint64(4*i), uint32(i%30))
		}
		if err := m.Submit(core.Launch{Kernel: ks, Grid: [3]uint32{64, 1, 1},
			WG: [3]uint16{64, 1, 1}, Args: []uint64{in, out}}); err != nil {
			t.Fatal(err)
		}
		if err := m.RunFunctional(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			x := uint32(i % 30)
			want := uint32(84)
			if x >= 20 {
				want = 90
			}
			if got := m.Ctx.Mem.ReadU32(out + uint64(4*i)); got != want {
				t.Fatalf("%s: lane %d (x=%d): got %d want %d", abs, i, x, got, want)
			}
		}
	}
}

// TestCSVExport verifies the plotting-pipeline export writes every file with
// one row per workload (plus the per-kernel Table 7 data).
func TestCSVExport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Collect(core.DefaultConfig(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv",
		"fig9.csv", "fig10.csv", "fig11.csv", "fig12.csv", "table6.csv", "table7.csv"} {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(string(data), "\n")
		switch name {
		case "fig5.csv":
			if lines != 1+2*len(res.Order) {
				t.Errorf("%s: %d lines", name, lines)
			}
		case "table7.csv":
			if lines < 1+len(res.Order) {
				t.Errorf("%s: %d lines", name, lines)
			}
		default:
			if lines != 1+len(res.Order) {
				t.Errorf("%s: %d lines", name, lines)
			}
		}
	}
}
