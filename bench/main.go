// Command bench is ilsim's one benchmark: five named workloads measured end
// to end in host time, and a ladder of per-layer measurements taken from
// outside through the packages' exported functions. BENCHMARK.json at the
// repository root declares it; README.md in this directory explains it.
//
//	go run ./bench -seed 1                 # every workload, end-to-end metrics
//	go run ./bench -layers                 # traced: per-layer metrics and spans
//	go run ./bench -workload md_serial -seed 3 -seconds 12 -trace 0
//	go run ./bench -compare a.json b.json  # noise-aware verdict per metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// scratchDir holds everything the benchmark writes unasked: spans, journal
// rungs, per-workload result files of a multi-workload run.
const scratchDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	runs     int
	out      string
	spans    string
}

func main() {
	var o options
	var trace int
	var layers, compare, manifest bool
	flag.StringVar(&o.workload, "workload", "", "run this workload only (default: all five, one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of everything the benchmark generates itself")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of each workload's timed loop")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&layers, "layers", false, "same as -trace 1")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test sizes: every code path, no useful timing")
	flag.IntVar(&o.runs, "runs", 1, "repeat the whole set this many times, with seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "also write the results to this file as JSON")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default "+scratchDir+"/spans.<workload>.json)")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as this package declares it")
	flag.Parse()
	o.trace = layers || trace != 0

	var err error
	switch {
	case manifest:
		err = writeManifest(os.Stdout)
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the result line
// the acceptance pipeline reads last.
func runOne(o options) error {
	def, ok := workloadByName(o.workload)
	if !ok {
		var names []string
		for _, d := range workloadDefs {
			names = append(names, d.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	rep, spans, err := measure(def, o)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if o.trace {
		path := o.spans
		if path == "" {
			path = filepath.Join(scratchDir, "spans."+def.name+".json")
		}
		if err := writeJSON(path, spans); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), path)
	}
	if o.out != "" {
		if err := writeJSON(o.out, resultFile{Schema: schemaName, Provenance: rep.Provenance, Runs: []*runReport{rep}}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep.driverLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll measures every workload, each in a process of its own so that one
// workload's heap and RSS high-water cannot leak into the next.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	file := resultFile{Schema: schemaName, Provenance: readProvenance(o.seed)}
	for r := 0; r < o.runs; r++ {
		for _, def := range workloadDefs {
			part := filepath.Join(scratchDir, fmt.Sprintf("part-%d.json", os.Getpid()))
			args := []string{"-workload", def.name, "-seed", fmt.Sprint(o.seed + int64(r)),
				"-seconds", fmt.Sprint(o.seconds), "-out", part}
			if o.trace {
				args = append(args, "-trace", "1")
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", def.name, err)
			}
			var got resultFile
			err := readJSON(part, &got)
			os.Remove(part)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, got.Runs...)
		}
	}
	if o.out != "" {
		return writeJSON(o.out, file)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
