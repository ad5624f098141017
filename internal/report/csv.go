package report

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"ilsim/internal/isa"
)

// WriteCSV exports the per-workload data behind every figure as CSV files in
// dir (fig5.csv ... fig12.csv, table6.csv, table7.csv), the format plotting
// pipelines consume.
func (r *Results) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, header []string, rows [][]string) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		w := csv.NewWriter(f)
		if err := w.Write(header); err != nil {
			return err
		}
		if err := w.WriteAll(rows); err != nil {
			return err
		}
		w.Flush()
		return w.Error()
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

	// fig5.csv: instruction mix per workload and abstraction.
	{
		header := []string{"workload", "abstraction"}
		for c := 0; c < isa.NumCategories; c++ {
			header = append(header, isa.Category(c).String())
		}
		header = append(header, "total")
		var rows [][]string
		for _, name := range r.Order {
			p := r.Runs[name]
			hRow := []string{name, "HSAIL"}
			gRow := []string{name, "GCN3"}
			for c := 0; c < isa.NumCategories; c++ {
				hRow = append(hRow, u(p.HSAIL.InstsByCategory[c]))
				gRow = append(gRow, u(p.GCN3.InstsByCategory[c]))
			}
			hRow = append(hRow, u(p.HSAIL.TotalInsts()))
			gRow = append(gRow, u(p.GCN3.TotalInsts()))
			rows = append(rows, hRow, gRow)
		}
		if err := write("fig5.csv", header, rows); err != nil {
			return err
		}
	}

	// fig6..fig12 + table6: one row per workload with both abstractions.
	metrics := []struct {
		file   string
		header []string
		row    func(name string) []string
	}{
		{"fig6.csv", []string{"workload", "hsail_conflicts_per_kiloinst", "gcn3_conflicts_per_kiloinst"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, f(p.HSAIL.ConflictsPerKiloInst()), f(p.GCN3.ConflictsPerKiloInst())}
			}},
		{"fig7.csv", []string{"workload", "hsail_reuse_median", "gcn3_reuse_median"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, u(uint64(p.HSAIL.Reuse.Median())), u(uint64(p.GCN3.Reuse.Median()))}
			}},
		{"fig8.csv", []string{"workload", "hsail_code_bytes", "gcn3_code_bytes"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, u(p.HSAIL.CodeFootprintBytes), u(p.GCN3.CodeFootprintBytes)}
			}},
		{"fig9.csv", []string{"workload", "hsail_ib_flushes", "gcn3_ib_flushes"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, u(p.HSAIL.IBFlushes), u(p.GCN3.IBFlushes)}
			}},
		{"fig10.csv", []string{"workload", "hsail_read_uniq", "gcn3_read_uniq", "hsail_write_uniq", "gcn3_write_uniq"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, f(p.HSAIL.ReadUniqueness()), f(p.GCN3.ReadUniqueness()),
					f(p.HSAIL.WriteUniqueness()), f(p.GCN3.WriteUniqueness())}
			}},
		{"fig11.csv", []string{"workload", "hsail_ipc", "gcn3_ipc"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, f(p.HSAIL.IPC()), f(p.GCN3.IPC())}
			}},
		{"fig12.csv", []string{"workload", "hsail_cycles", "gcn3_cycles"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, u(p.HSAIL.Cycles), u(p.GCN3.Cycles)}
			}},
		{"table6.csv", []string{"workload", "hsail_data_bytes", "gcn3_data_bytes", "hsail_simd_util", "gcn3_simd_util"},
			func(n string) []string {
				p := r.Runs[n]
				return []string{n, u(p.HSAIL.DataFootprintBytes), u(p.GCN3.DataFootprintBytes),
					f(p.HSAIL.SIMDUtilization()), f(p.GCN3.SIMDUtilization())}
			}},
	}
	for _, m := range metrics {
		var rows [][]string
		for _, name := range r.Order {
			rows = append(rows, m.row(name))
		}
		if err := write(m.file, m.header, rows); err != nil {
			return err
		}
	}

	// table7.csv: per dynamic kernel launch.
	var rows [][]string
	for _, name := range r.Order {
		p := r.Runs[name]
		for i := 0; i < len(p.HSAIL.KernelCycles) && i < len(p.GCN3.KernelCycles); i++ {
			rows = append(rows, []string{name, fmt.Sprint(i),
				u(p.HSAIL.KernelCycles[i]), u(p.GCN3.KernelCycles[i])})
		}
	}
	return write("table7.csv", []string{"workload", "kernel_index", "hsail_cycles", "gcn3_cycles"}, rows)
}
