package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// verdict is the one rule every A/B of this repository is judged by.
type verdict string

const (
	improved    verdict = "improved"
	withinBound verdict = "within-bound"
	regressed   verdict = "regressed"
	unresolved  verdict = "unresolved"
)

// judge compares the runs of one (end-to-end metric, workload) pairing:
// a is the base, b the candidate. worse is the candidate's median change as
// a share of the base's median, signed so that positive is worse; spread is
// the wider of the two sides' inter-quartile spreads.
//
//   - improved: every candidate run beats every base run, or the candidate
//     wins at least nine tenths of the index-paired runs and its median gain
//     exceeds the base's own inter-quartile spread;
//   - unresolved: otherwise, when the spread is wider than the bound, so
//     that neither "no worse" nor "worse" can be told from noise — unless
//     every candidate run is worse than every base run;
//   - regressed: the median is worse by more than the bound;
//   - within-bound: anything else.
func judge(a, b []float64, higherBetter bool, bound float64) (v verdict, worse, spreadAB float64) {
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	spreadAB = max(spread(a), spread(b))

	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	switch {
	case allBetter, -worse > spread(a) && 10*wins >= 9*pairs:
		return improved, worse, spreadAB
	case spreadAB > bound && !allWorse:
		return unresolved, worse, spreadAB
	case worse > bound:
		return regressed, worse, spreadAB
	}
	return withinBound, worse, spreadAB
}

// compareFiles prints, per end-to-end metric and workload, both medians, the
// change with its base, the bound and the verdict; then whether the
// simulated statistics of the two files agree exactly.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var fa, fb resultFile
	if err := readJSON(pathA, &fa); err != nil {
		return err
	}
	if err := readJSON(pathB, &fb); err != nil {
		return err
	}
	describe := func(tag, path string, f resultFile) {
		p := f.Provenance
		fmt.Fprintf(w, "%s: %s  commit=%s dirty=%t cpu=%q nproc=%d gomaxprocs=%d P=%d go=%s runs=%d loadavg1-at-start=%.2f noisy=%t\n",
			tag, path, p.Commit, p.Dirty, p.CPU, p.NProc, p.GOMAXPROCS, p.P, p.GoVersion, len(f.Runs), p.LoadAvg1, p.Noisy)
	}
	describe("A (base)", pathA, fa)
	describe("B       ", pathB, fb)
	if pa, pb := fa.Provenance, fb.Provenance; pa.CPU != pb.CPU || pa.NProc != pb.NProc || pa.GOMAXPROCS != pb.GOMAXPROCS {
		fmt.Fprintln(w, "WARNING: the two files come from different hosts or GOMAXPROCS; host-time verdicts below mean nothing")
	}

	fmt.Fprintf(w, "\n%-14s %-15s %3s %14s %14s %22s %7s %7s  %s\n",
		"workload", "metric", "n", "median A", "median B", "change (base: A)", "spread", "bound", "verdict")
	for _, def := range workloadDefs {
		for _, md := range endToEnd {
			a := collect(fa, def.name, false, md.Name)
			b := collect(fb, def.name, false, md.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse, sp := judge(a, b, md.Better == "higher", md.Bound)
			dir := "worse"
			if worse < 0 {
				dir = "better"
			}
			fmt.Fprintf(w, "%-14s %-15s %3d %14.6g %14.6g %14.2f%% %-7s %6.1f%% %6.1f%%  %s\n",
				def.name, md.Name, min(len(a), len(b)), median(a), median(b), 100*math.Abs(worse), dir, 100*sp, 100*md.Bound, v)
		}
	}

	fmt.Fprintln(w, "\nsimulated statistics (must agree exactly unless a fidelity change is claimed):")
	for _, def := range workloadDefs {
		sa, sb := shas(fa, def.name), shas(fb, def.name)
		if len(sa) == 0 || len(sb) == 0 {
			continue
		}
		verdict := "DIFFERS"
		if slices.Equal(sa, sb) {
			verdict = "identical"
		}
		fmt.Fprintf(w, "%-14s stats_sha A=%v B=%v  %s\n", def.name, sa, sb, verdict)
	}
	compared, differ := 0, 0
	for _, d := range perLayer {
		if d.Layer != "sim" {
			continue
		}
		a, b := distinct(collect(fa, "", true, d.Name)), distinct(collect(fb, "", true, d.Name))
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		compared++
		if !slices.Equal(a, b) {
			differ++
			fmt.Fprintf(w, "%-46s A=%v B=%v  DIFFERS\n", d.Name, a, b)
		}
	}
	fmt.Fprintf(w, "sim.* metrics: %d compared over the traced runs of both files, %d differ\n", compared, differ)
	return nil
}

// collect returns one value per run of the named metric, in run order;
// workload "" takes every workload's runs.
func collect(f resultFile, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Trace != trace || (workload != "" && r.Workload != workload) {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// shas returns the distinct stats_sha values of a workload's runs, sorted.
func shas(f resultFile, workload string) []string {
	var out []string
	for _, r := range f.Runs {
		if r.Workload == workload && !slices.Contains(out, r.StatsSHA) {
			out = append(out, r.StatsSHA)
		}
	}
	slices.Sort(out)
	return out
}

func distinct(vs []float64) []float64 {
	out := slices.Clone(vs)
	slices.Sort(out)
	return slices.Compact(out)
}
