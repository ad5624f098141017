package report

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/stats"
)

// goldenFile pins every statistic of every (workload, abstraction) of the
// Table 5 suite at scale 1 on the default Table 4 machine, one row per run
// and one column per field of stats.Run — everything stats.Run.Fingerprint
// serializes. Performance work on the timing core (cycle skipping,
// allocation-free issue) must leave every run byte-identical: this table is
// the contract. Regenerate it with:
//
//	ILSIM_UPDATE_GOLDEN=1 go test ./internal/report -run TestGoldenFingerprints
//
// but only when a change deliberately moves the model, never for a speedup,
// and together with a core.ModelVersion bump
// (TestGoldensPinnedToModelVersion). `git diff --word-diff` of the file then
// shows which fields moved.
const goldenFile = "testdata/goldens.txt"

// goldenModel and goldenSHA pin the pair (core.ModelVersion, sha256 of
// goldenFile): the goldens move only with a model version bump, so a
// -resume journal of the old model is refused instead of mixing two models'
// results into one report.
const (
	goldenModel = 2
	goldenSHA   = "8feae55a88bc116c69b878f583c5d0c7fb180b40609bf7ad22c3c50ac1b9104e"
)

// TestGoldensPinnedToModelVersion fails when the goldens or
// core.ModelVersion move without the other, and says what to re-pin.
func TestGoldensPinnedToModelVersion(t *testing.T) {
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(b)
	sum := hex.EncodeToString(s[:])
	switch {
	case sum == goldenSHA && core.ModelVersion == goldenModel:
	case core.ModelVersion == goldenModel:
		t.Fatalf("the goldens moved (sha256 %s, pinned %s) but core.ModelVersion is still %d: "+
			"bump core.ModelVersion in internal/core, then pin goldenModel and goldenSHA = %q",
			sum, goldenSHA, core.ModelVersion, sum)
	default:
		t.Fatalf("core.ModelVersion is %d but the goldens are pinned at model %d: "+
			"pin goldenModel = %d and goldenSHA = %q", core.ModelVersion, goldenModel, core.ModelVersion, sum)
	}
}

// goldenColumns renders r as the table's columns. The first, Fingerprint,
// is the first 12 hex digits of sha256(r.Fingerprint()): it covers every
// statistic at once, and it is the one column internal/core's
// TestResetMatchesFresh reads. Then come stats.Run's fields in their order:
// the counters verbatim, InstsByCategory comma-joined, and the long
// KernelCycles and Reuse lists as a short hash. The identity fields
// (Workload, Abstraction) name the row. A field of another type fails the
// test until it is given a rule here.
func goldenColumns(t *testing.T, r *stats.Run) (names, vals []string) {
	fp := sha256.Sum256(r.Fingerprint())
	names, vals = []string{"Fingerprint"}, []string{hex.EncodeToString(fp[:6])}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		var val string
		switch {
		case name == "Workload" || name == "Abstraction":
			continue
		case f.Kind() == reflect.Uint64:
			val = strconv.FormatUint(f.Uint(), 10)
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
			parts := make([]string, f.Len())
			for j := range parts {
				parts[j] = strconv.FormatUint(f.Index(j).Uint(), 10)
			}
			val = strings.Join(parts, ",")
		case name == "KernelCycles":
			val = shortHash(r.KernelCycles)
		case name == "Reuse":
			val = shortHash(r.Reuse.Items())
		default:
			t.Fatalf("stats.Run.%s (%s) has no golden column rule", name, f.Type())
		}
		names, vals = append(names, name), append(vals, val)
	}
	return names, vals
}

// shortHash is the first 12 hex digits of sha256(fmt.Sprint(x)).
func shortHash(x any) string {
	s := sha256.Sum256([]byte(fmt.Sprint(x)))
	return hex.EncodeToString(s[:6])
}

// readGoldens parses goldenFile: its header line names the columns, every
// other line is a run and its values; # lines are comments.
func readGoldens(t *testing.T) (cols []string, rows map[string][]string) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows = make(map[string][]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case cols == nil:
			cols = fields[1:]
		default:
			rows[fields[0]] = fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cols, rows
}

// TestGoldenFingerprints runs the full 10-workload suite under both
// abstractions (with the report's statistics tracking enabled, so the reuse
// and uniqueness paths are exercised) and requires every field of every
// run to equal goldenFile's, naming each one that moved, e.g.
// "MD/GCN3 ReadUnique 1234 → 1240".
func TestGoldenFingerprints(t *testing.T) {
	res, err := CollectParallel(exp.New(0), core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := goldenColumns(t, &stats.Run{})
	if os.Getenv("ILSIM_UPDATE_GOLDEN") != "" {
		var b bytes.Buffer
		b.WriteString("# Every statistic of the Table 5 suite at scale 1 on the default machine,\n" +
			"# one row per run (internal/report/golden_test.go). Generated by\n" +
			"# ILSIM_UPDATE_GOLDEN=1 go test ./internal/report -run TestGoldenFingerprints\n")
		tw := tabwriter.NewWriter(&b, 0, 0, 1, ' ', 0)
		fmt.Fprintln(tw, "run\t"+strings.Join(names, "\t"))
		for _, name := range res.Order {
			p := res.Runs[name]
			for _, r := range []*stats.Run{p.HSAIL, p.GCN3} {
				_, vals := goldenColumns(t, r)
				fmt.Fprintln(tw, r.Workload+"/"+r.Abstraction+"\t"+strings.Join(vals, "\t"))
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("golden update mode: wrote %s", goldenFile)
	}
	cols, want := readGoldens(t)
	if !slices.Equal(names, cols) {
		t.Fatalf("stats.Run has columns %v, %s has %v", names, goldenFile, cols)
	}
	seen := 0
	for _, name := range res.Order {
		p := res.Runs[name]
		for _, r := range []*stats.Run{p.HSAIL, p.GCN3} {
			key := r.Workload + "/" + r.Abstraction
			_, got := goldenColumns(t, r)
			row, ok := want[key]
			if !ok {
				t.Errorf("%s: no golden row committed", key)
				continue
			}
			seen++
			for i := range cols {
				if i >= len(row) || row[i] != got[i] {
					w := "<missing>"
					if i < len(row) {
						w = row[i]
					}
					t.Errorf("%s %s %s → %s", key, cols[i], w, got[i])
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%s holds %d rows, the suite ran %d of them", goldenFile, len(want), seen)
	}
}
