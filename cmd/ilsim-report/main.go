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
	"flag"
	"fmt"
	"os"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
	"ilsim/internal/report"
)

func main() {
	scale := flag.Int("scale", 2, "input scale for the workload suite")
	withHW := flag.Bool("hw", true, "run the hardware-correlation oracle (Table 7)")
	expName := flag.String("exp", "", "render only one experiment (fig1, fig3, fig5..fig12, table6, table7, ablation)")
	out := flag.String("o", "", "write the report to this file instead of stdout")
	csvDir := flag.String("csv", "", "also export per-figure CSV files to this directory")
	workers := flag.Int("j", 0, "max parallel simulation jobs (0 = GOMAXPROCS)")
	journalPath := flag.String("journal", "", "checkpoint completed suite jobs to this JSONL file")
	resume := flag.Bool("resume", false, "reuse an existing -journal file, re-running only unfinished jobs")
	verbose := flag.Bool("v", false, "print per-job progress with ETA to stderr")
	serve := flag.String("serve", "", "coordinate the suite over HTTP on this address instead of running it locally")
	flag.Parse()
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "ilsim-report: -resume requires -journal")
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	var journal *exp.Journal
	if *journalPath != "" {
		jobs := report.SuiteJobs(cfg, *scale, *withHW)
		j, err := exp.OpenJournal(*journalPath, jobs, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ilsim-report:", err)
			os.Exit(1)
		}
		defer j.Close()
		if n := j.Resumable(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d of %d jobs already journaled in %s\n",
				n, len(jobs), *journalPath)
		}
		journal = j
	}
	var onProgress func(exp.Progress)
	if *verbose {
		onProgress = func(p exp.Progress) { fmt.Fprintln(os.Stderr, p.Line()) }
	}
	var runner exp.Runner
	if *serve != "" {
		c := dist.NewCoordinator(dist.Options{
			Addr:       *serve,
			Journal:    journal,
			OnProgress: onProgress,
			Logf:       func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
		})
		if err := c.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "ilsim-report:", err)
			os.Exit(1)
		}
		defer c.Close()
		fmt.Fprintf(os.Stderr, "coordinating the suite on %s — attach workers with: ilsim-workerd -connect %s\n",
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
		fmt.Fprintln(os.Stderr, "ilsim-report:", err)
		os.Exit(1)
	}
	if *csvDir != "" {
		if err := res.WriteCSV(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "ilsim-report:", err)
			os.Exit(1)
		}
		fmt.Println("wrote CSV files to", *csvDir)
	}

	var text string
	switch *expName {
	case "":
		text = res.Markdown(cfg)
	case "fig1":
		text = res.Fig1()
	case "fig3":
		text, err = res.Fig3()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ilsim-report:", err)
			os.Exit(1)
		}
	case "fig5":
		text = res.Fig5()
	case "fig6":
		text = res.Fig6()
	case "fig7":
		text = res.Fig7()
	case "fig8":
		text = res.Fig8()
	case "fig9":
		text = res.Fig9()
	case "fig10":
		text = res.Fig10()
	case "fig11":
		text = res.Fig11()
	case "fig12":
		text = res.Fig12()
	case "table6":
		text = res.Table6()
	case "table7":
		text = res.Table7()
	case "ablation":
		text = res.AblationTable()
	default:
		fmt.Fprintf(os.Stderr, "ilsim-report: unknown experiment %q\n", *expName)
		os.Exit(2)
	}

	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-report:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
