package report

import (
	"encoding/csv"
	"os"
	"path/filepath"
)

// WriteCSV exports the per-workload data behind every figure as CSV files in
// dir (fig5.csv ... fig12.csv, table6.csv, table7.csv), the format plotting
// pipelines consume.
func (r *Results) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range sections {
		if rows := r.csvRows(&sections[i]); rows != nil {
			if err := writeCSV(filepath.Join(dir, sections[i].key+".csv"), rows); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
