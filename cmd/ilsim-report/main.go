// Command ilsim-report regenerates every table and figure of the paper's
// evaluation section and writes the results as markdown.
//
// The full suite at evaluation scale is the repository's longest campaign;
// -journal checkpoints every completed run so a killed regeneration
// resumes with -resume instead of restarting from zero, and -serve leases
// the suite to distributed workers (ilsim-workerd) instead of running it
// on the local pool — the assembled figures are identical either way.
//
// Usage:
//
//	ilsim-report [-scale N] [-hw=false] [-exp fig5] [-o EXPERIMENTS.md] [-j 8]
//	ilsim-report -journal report.jsonl            # checkpoint as it goes
//	ilsim-report -journal report.jsonl -resume    # continue after a kill
//	ilsim-report -serve :9666                     # lease the suite to workers
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
	"ilsim/internal/report"
)

// experiments renders each experiment -exp can name.
var experiments = map[string]func(*report.Results) (string, error){
	"fig1":     plain((*report.Results).Fig1),
	"fig3":     (*report.Results).Fig3,
	"fig5":     plain((*report.Results).Fig5),
	"fig6":     plain((*report.Results).Fig6),
	"fig7":     plain((*report.Results).Fig7),
	"fig8":     plain((*report.Results).Fig8),
	"fig9":     plain((*report.Results).Fig9),
	"fig10":    plain((*report.Results).Fig10),
	"fig11":    plain((*report.Results).Fig11),
	"fig12":    plain((*report.Results).Fig12),
	"table6":   plain((*report.Results).Table6),
	"table7":   plain((*report.Results).Table7),
	"ablation": plain((*report.Results).AblationTable),
}

func plain(f func(*report.Results) string) func(*report.Results) (string, error) {
	return func(r *report.Results) (string, error) { return f(r), nil }
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status: 2 for a bad command line, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilsim-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 2, "input scale for the workload suite")
	withHW := fs.Bool("hw", true, "run the hardware-correlation oracle (Table 7)")
	expName := fs.String("exp", "", "render only one experiment (fig1, fig3, fig5..fig12, table6, table7, ablation)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	csvDir := fs.String("csv", "", "also export per-figure CSV files to this directory")
	workers := fs.Int("j", 0, "max parallel simulation jobs (0 = GOMAXPROCS)")
	journalPath := fs.String("journal", "", "checkpoint completed suite jobs to this JSONL file")
	resume := fs.Bool("resume", false, "reuse an existing -journal file, re-running only unfinished jobs")
	verbose := fs.Bool("v", false, "print per-job progress with ETA to stderr")
	serve := fs.String("serve", "", "coordinate the suite over HTTP on this address instead of running it locally")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *resume && *journalPath == "" {
		fmt.Fprintln(stderr, "ilsim-report: -resume requires -journal")
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "ilsim-report: -j %d is negative (0 = GOMAXPROCS)\n", *workers)
		return 2
	}
	render := experiments[*expName]
	if *expName != "" && render == nil {
		fmt.Fprintf(stderr, "ilsim-report: unknown experiment %q\n", *expName)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ilsim-report:", err)
		return 1
	}

	cfg := core.DefaultConfig()
	if render == nil {
		render = func(r *report.Results) (string, error) { return r.Markdown(cfg), nil }
	}
	var journal *exp.Journal
	if *journalPath != "" {
		jobs := report.SuiteJobs(cfg, *scale, *withHW)
		j, err := exp.OpenJournal(*journalPath, jobs, *resume)
		if err != nil {
			return fail(err)
		}
		defer j.Close()
		if n := j.Resumable(); n > 0 {
			fmt.Fprintf(stderr, "resuming: %d of %d jobs already journaled in %s\n",
				n, len(jobs), *journalPath)
		}
		journal = j
	}
	var onProgress func(exp.Progress)
	if *verbose {
		onProgress = func(p exp.Progress) { fmt.Fprintln(stderr, p.Line()) }
	}
	var runner exp.Runner
	if *serve != "" {
		c := dist.NewCoordinator(dist.Options{
			Addr:       *serve,
			Journal:    journal,
			OnProgress: onProgress,
			Logf:       func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) },
		})
		if err := c.Start(); err != nil {
			return fail(err)
		}
		defer c.Close()
		fmt.Fprintf(stderr, "coordinating the suite on %s — attach workers with: ilsim-workerd -connect %s\n",
			c.Addr(), c.Addr())
		runner = c
	} else {
		eng := exp.New(*workers)
		eng.Journal = journal
		eng.OnProgress = onProgress
		runner = eng
	}
	res, err := report.CollectParallel(runner, cfg, *scale, *withHW)
	if err != nil {
		return fail(err)
	}
	if *csvDir != "" {
		if err := res.WriteCSV(*csvDir); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, "wrote CSV files to", *csvDir)
	}

	text, err := render(res)
	if err != nil {
		return fail(err)
	}
	if *out == "" {
		fmt.Fprint(stdout, text)
		return 0
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return 0
}
