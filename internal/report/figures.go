package report

import (
	"fmt"
	"strconv"
	"strings"

	"ilsim/internal/core"
	"ilsim/internal/isa"
	"ilsim/internal/stats"
)

// A metric is one per-run statistic the report plots, declared once: the
// figures' columns and ratios, their suite summaries, Fig 1's rows, the
// paper comparison, the ablation table and the CSV export all read it.
type metric struct {
	// label follows "HSAIL " and "GCN3 " in a figure's column headings;
	// empty for the bare abstraction names.
	label string
	// csv follows "hsail_" and "gcn3_" in the CSV export's column names.
	csv string
	of  func(*stats.Run) float64
	// cell formats a value for the markdown tables.
	cell func(float64) string
	// count marks an integer the CSV export prints in full.
	count bool
	// gcn3First lists the GCN3 column before the HSAIL one in the markdown.
	gcn3First bool
	// fig1 names the metric's row in Figure 1.
	fig1 string
}

var (
	dynInsts = metric{fig1: "Dynamic instructions", cell: f0, count: true,
		of: func(s *stats.Run) float64 { return float64(s.TotalInsts()) }}
	vrfConflicts = metric{fig1: "VRF bank conflicts", csv: "conflicts_per_kiloinst", of: (*stats.Run).ConflictsPerKiloInst, cell: f2}
	reuseDist    = metric{fig1: "Register reuse distance", csv: "reuse_median", cell: f0, count: true,
		of: func(s *stats.Run) float64 { return float64(s.Reuse.Median()) }}
	codeBytes = metric{fig1: "Code footprint", csv: "code_bytes", cell: kb, count: true,
		of: func(s *stats.Run) float64 { return float64(s.CodeFootprintBytes) }}
	l1iMissRate = metric{label: "L1I miss rate", csv: "l1i_miss_rate", cell: f3, gcn3First: true,
		of: func(s *stats.Run) float64 { return float64(s.L1IMisses) / float64(max(s.L1IAccesses, 1)) }}
	ibFlushes = metric{fig1: "IB flushes (per inst)", csv: "ib_flushes_per_kiloinst", of: (*stats.Run).IBFlushesPerKiloInst, cell: f2}
	readUniq  = metric{label: "read", csv: "read_uniq", of: (*stats.Run).ReadUniqueness, cell: pct}
	writeUniq = metric{label: "write", csv: "write_uniq", of: (*stats.Run).WriteUniqueness, cell: pct}
	ipc       = metric{fig1: "IPC", label: "IPC", csv: "ipc", of: (*stats.Run).IPC, cell: f3}
	cycles    = metric{fig1: "GPU cycles", label: "cycles", csv: "cycles", cell: f0, count: true,
		of: func(s *stats.Run) float64 { return float64(s.Cycles) }}
	dataBytes = metric{fig1: "Data footprint (similar)", label: "footprint", csv: "data_bytes", cell: kb, count: true,
		of: func(s *stats.Run) float64 { return float64(s.DataFootprintBytes) }}
	simdUtil = metric{fig1: "SIMD utilization (similar)", label: "SIMD util", csv: "simd_util", of: (*stats.Run).SIMDUtilization, cell: pct}
)

// show formats the metric of one run for the markdown tables.
func (m metric) show(s *stats.Run) string { return m.cell(m.of(s)) }

// abstractions is the order of a metric's two columns.
var abstractions = []core.Abstraction{core.AbsHSAIL, core.AbsGCN3}

func (p *Pair) run(a core.Abstraction) *stats.Run {
	if a == core.AbsHSAIL {
		return p.HSAIL
	}
	return p.GCN3
}

// ratio is the direction of a figure's per-workload ratio column.
type ratio struct {
	head          string
	hsailOverGCN3 bool
}

var (
	gcn3OverHSAIL = &ratio{head: "GCN3/HSAIL"}
	hsailOverGCN3 = &ratio{head: "HSAIL/GCN3", hsailOverGCN3: true}
)

// of is m's ratio for one workload. The report's one rule for a zero
// denominator: the ratio reads 0 and ok is false, which keeps the workload
// out of every suite summary.
func (d *ratio) of(m metric, p *Pair) (v float64, ok bool) {
	num, den := m.of(p.GCN3), m.of(p.HSAIL)
	if d.hsailOverGCN3 {
		num, den = den, num
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// geomean is the suite summary of m's ratio: the geomean over the workloads
// whose denominator is not zero.
func (r *Results) geomean(m metric, d *ratio) float64 {
	var xs []float64
	for _, name := range r.Order {
		if v, ok := d.of(m, r.Runs[name]); ok {
			xs = append(xs, v)
		}
	}
	return stats.Geomean(xs)
}

// A section is one table or figure of the report, declared once: Markdown
// renders the sections in list order, ilsim-report -exp names one by its
// key, and WriteCSV exports the per-run values behind it as key.csv.
type section struct {
	key, title, note string
	// metrics are what a figure plots per workload: an HSAIL and a GCN3
	// column each, in the table and in the CSV.
	metrics []metric
	// ratio, when set, follows the first metric's columns, and the table
	// ends with its suite summary unless noGeomean is set.
	ratio     *ratio
	noGeomean bool
	// body renders a section of its own shape in place of the metric
	// table; csv gives its CSV rows, header first, if it has any.
	body func(*Results, *section, *table) error
	csv  func(*Results) [][]string
}

var sections = []section{
	{key: "fig1", title: "Figure 1 — Average of dissimilar and similar statistics (GCN3/HSAIL)",
		metrics: []metric{dynInsts, codeBytes, vrfConflicts, reuseDist, ibFlushes, cycles, ipc, simdUtil, dataBytes},
		ratio:   gcn3OverHSAIL, body: (*Results).fig1},
	{key: "fig3", title: "Figure 3 — Managing control flow (HSAIL vs GCN3)", body: (*Results).fig3},
	{key: "fig5", title: "Figure 5 — Dynamic instruction count and breakdown (normalized to HSAIL)",
		note:    "Each GCN3 column is that category's dynamic count divided by the workload's TOTAL HSAIL count; Total is the paper's headline expansion factor.",
		metrics: []metric{dynInsts}, ratio: gcn3OverHSAIL, body: (*Results).fig5, csv: (*Results).fig5CSV},
	{key: "fig6", title: "Figure 6 — VRF bank conflicts",
		note:    "Conflicts per 1K dynamic instructions; the paper reports GCN3 at roughly one third of HSAIL on average.",
		metrics: []metric{vrfConflicts}, ratio: hsailOverGCN3},
	{key: "fig7", title: "Figure 7 — Median vector register reuse distance",
		note:    "Dynamic instructions between consecutive accesses to the same vector register; finalizer scheduling should roughly double it.",
		metrics: []metric{reuseDist}, ratio: gcn3OverHSAIL},
	{key: "fig8", title: "Figure 8 — Instruction footprint",
		note:    "HSAIL uses the loader's 8-byte-per-instruction approximation; GCN3 is the true encoded size. LULESH's GCN3 footprint exceeding the 16KB L1I is the paper's highlighted case.",
		metrics: []metric{codeBytes, l1iMissRate}, ratio: gcn3OverHSAIL},
	{key: "fig9", title: "Figure 9 — Instruction buffer flushes",
		note:    "Flushes per 1K dynamic instructions. Reconvergence-stack jumps inflate HSAIL; predicated GCN3 flushes mostly on loop back-edges.",
		metrics: []metric{ibFlushes}, ratio: hsailOverGCN3},
	{key: "fig10", title: "Figure 10 — Uniqueness of VRF lane values",
		note:    "Unique values per active lane over sampled VRF accesses (reads and writes). Direction is workload-dependent, as in the paper.",
		metrics: []metric{readUniq, writeUniq}},
	{key: "fig11", title: "Figure 11 — IPC (normalized to HSAIL)",
		metrics: []metric{ipc}, ratio: gcn3OverHSAIL},
	{key: "fig12", title: "Figure 12 — Runtime (GPU cycles, HSAIL normalized to GCN3)",
		note:    "Values above 1 mean the IL simulation is pessimistic; below 1, optimistic. The paper's point is that the sign is workload-dependent and unpredictable.",
		metrics: []metric{cycles}, ratio: hsailOverGCN3, noGeomean: true},
	{key: "table6", title: "Table 6 — Similar statistics: data footprint and SIMD utilization",
		note:    "Footprints match except for workloads using per-launch special segments (FFT spill, LULESH private), which HSAIL's emulated ABI re-maps at every dynamic launch.",
		metrics: []metric{dataBytes, simdUtil}, ratio: &ratio{head: "ratio", hsailOverGCN3: true}, noGeomean: true},
	{key: "table7", title: "Table 7 — What the IL costs against the machine ISA",
		note: "The paper compares both simulators with an AMD Pro A12-8800B measured through the Radeon Compute Profiler; this repository has no silicon, so that comparison is not reproduced. " +
			"Instead, per dynamic kernel launch: |HSAIL − GCN3| / GCN3 cycles, the error an IL-level simulation adds against the machine-ISA simulation of the same binary. " +
			"The per-launch mean weights each workload by its launches (LULESH dominates it); the per-workload mean weights each workload once.",
		body: (*Results).table7, csv: (*Results).table7CSV},
	{key: "ablation", title: "Ablation — finalizer design choices (GCN3 runs of the ablation kernel)",
		note: "Each row disables one mechanism the paper credits for machine-ISA behavior; compare against the baseline. " +
			"Two honest observations: disabling scheduling trades conflicts for s_nop padding (sparser issue also means fewer same-cycle operand pulls), " +
			"and on this all-uniform-control kernel, disabling scalar kernarg loads divergence-poisons the loop bounds and converges with full de-scalarization.",
		body: (*Results).ablation},
}

// Experiments lists the keys ilsim-report -exp takes, one per section of
// the report, in report order.
func Experiments() []string {
	keys := make([]string, len(sections))
	for i, s := range sections {
		keys[i] = s.key
	}
	return keys
}

// Experiment renders the one section of the report that key names.
func (r *Results) Experiment(key string) (string, error) {
	if s := find(key); s != nil {
		return r.render(s)
	}
	return "", fmt.Errorf("report: unknown experiment %q", key)
}

// find is the section that key names, or nil.
func find(key string) *section {
	for i := range sections {
		if sections[i].key == key {
			return &sections[i]
		}
	}
	return nil
}

// summary is a section's suite summary: the geomean of its first metric's
// ratio.
func (r *Results) summary(s *section) float64 { return r.geomean(s.metrics[0], s.ratio) }

// render draws one section: its title, its note, then its own body or its
// metric table.
func (r *Results) render(s *section) (string, error) {
	t := &table{}
	t.title(s.title)
	if s.note != "" {
		t.note(s.note)
	}
	if s.body != nil {
		if err := s.body(r, s, t); err != nil {
			return "", err
		}
		return t.String(), nil
	}
	hdr := []string{"Workload"}
	at := 0 // the ratio's column
	for i, m := range s.metrics {
		for _, a := range m.columns() {
			hdr = append(hdr, strings.TrimSpace(a.String()+" "+m.label))
		}
		if i == 0 && s.ratio != nil {
			at = len(hdr)
			hdr = append(hdr, s.ratio.head)
		}
	}
	t.row(hdr...)
	t.sep(len(hdr))
	for _, name := range r.Order {
		p := r.Runs[name]
		cells := []string{name}
		for i, m := range s.metrics {
			for _, a := range m.columns() {
				cells = append(cells, m.show(p.run(a)))
			}
			if i == 0 && s.ratio != nil {
				v, _ := s.ratio.of(m, p)
				cells = append(cells, f2(v))
			}
		}
		t.row(cells...)
	}
	if s.ratio != nil && !s.noGeomean {
		cells := make([]string, len(hdr))
		cells[0], cells[at] = "**geomean**", f2(r.summary(s))
		t.row(cells...)
	}
	return t.String(), nil
}

// columns is the order of the metric's two markdown columns.
func (m metric) columns() []core.Abstraction {
	if m.gcn3First {
		return []core.Abstraction{core.AbsGCN3, core.AbsHSAIL}
	}
	return abstractions
}

// csvRows is the section's CSV export, header first; nil for a section
// without one.
func (r *Results) csvRows(s *section) [][]string {
	if s.csv != nil {
		return s.csv(r)
	}
	if s.body != nil {
		return nil
	}
	hdr := []string{"workload"}
	for _, m := range s.metrics {
		for _, a := range abstractions {
			hdr = append(hdr, strings.ToLower(a.String())+"_"+m.csv)
		}
	}
	rows := [][]string{hdr}
	for _, name := range r.Order {
		row := []string{name}
		for _, m := range s.metrics {
			for _, a := range abstractions {
				row = append(row, m.csvCell(r.Runs[name].run(a)))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func (m metric) csvCell(s *stats.Run) string {
	if m.count {
		return f0(m.of(s))
	}
	return strconv.FormatFloat(m.of(s), 'g', 6, 64)
}

// fig1 summarises the figures: each row is the suite geomean of one of the
// section's metrics under its one ratio.
func (r *Results) fig1(s *section, t *table) error {
	t.row("Statistic", s.ratio.head+" geomean")
	t.sep(2)
	for _, m := range s.metrics {
		t.row(m.fig1, f2(r.geomean(m, s.ratio)))
	}
	return nil
}

// fig5 renders the dynamic instruction count breakdown, GCN3 normalized to
// HSAIL per workload.
func (r *Results) fig5(s *section, t *table) error {
	hdr := []string{"Workload"}
	for c := range isa.NumCategories {
		hdr = append(hdr, isa.Category(c).String())
	}
	hdr = append(hdr, "GCN3 Total", "HSAIL VMem%", "HSAIL Branch%")
	t.row(hdr...)
	t.sep(len(hdr))
	for _, name := range r.Order {
		p := r.Runs[name]
		hTot := float64(p.HSAIL.TotalInsts())
		cells := []string{name}
		for c := range isa.NumCategories {
			cells = append(cells, f2(float64(p.GCN3.InstsByCategory[c])/hTot))
		}
		tot, _ := s.ratio.of(s.metrics[0], p)
		cells = append(cells, f2(tot),
			pct(float64(p.HSAIL.InstsByCategory[isa.CatVMem])/hTot),
			pct(float64(p.HSAIL.InstsByCategory[isa.CatBranch])/hTot))
		t.row(cells...)
	}
	t.row("**geomean**", "", "", "", "", "", "", "", "", f2(r.summary(s)), "", "")
	return nil
}

// fig5CSV is the instruction mix per workload and abstraction.
func (r *Results) fig5CSV() [][]string {
	hdr := []string{"workload", "abstraction"}
	for c := range isa.NumCategories {
		hdr = append(hdr, isa.Category(c).String())
	}
	rows := [][]string{append(hdr, "total")}
	for _, name := range r.Order {
		for _, a := range abstractions {
			run := r.Runs[name].run(a)
			row := []string{name, a.String()}
			for c := range isa.NumCategories {
				row = append(row, strconv.FormatUint(run.InstsByCategory[c], 10))
			}
			rows = append(rows, append(row, dynInsts.csvCell(run)))
		}
	}
	return rows
}
