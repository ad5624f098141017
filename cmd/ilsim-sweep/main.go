// Command ilsim-sweep runs sensitivity studies over microarchitecture
// parameters — the experiments an architect would run next with this
// infrastructure, and a demonstration of how the IL-vs-ISA gap moves with
// the hardware design point. Points execute in parallel on the experiment
// engine's worker pool; results print in design-point order regardless of
// completion order.
//
// Long campaigns are fault-tolerant: per-job timeouts and cycle budgets
// kill runaways, a failed point is reported without stopping the others,
// and -journal checkpoints every successful job so an interrupted sweep
// resumes with -resume instead of restarting.
//
// Sweeps also distribute: -serve turns the process into a coordinator that
// leases the same job set, one job per lease, to ilsim-workerd workers and
// assembles their streamed results in design-point order, byte-identical
// to a local run. The endpoints optionally require TLS
// (-tls-cert/-tls-key), client certificates (-tls-client-ca, mutual TLS)
// and a shared token (-token), and -watch prints one status snapshot —
// queue depth, lease backlog, per-worker throughput and ETA — from a
// running coordinator (for a live board, run it under watch(1)); it is what
// tells an operator when to start another ilsim-workerd or SIGTERM one.
// -allow-cn pins the client-certificate CommonNames a mutual-TLS
// coordinator admits; anything else is refused with 403 and counted in the
// status. Build the coordinator and its workers from one commit: a worker
// whose simulator computes differently is not detected.
//
// A journal holds one line per successful job; a failed job is not written
// and runs again on -resume.
//
// Usage:
//
//	ilsim-sweep -param banks  -workload ArrayBW   # VRF bank count
//	ilsim-sweep -param ib     -workload CoMD      # instruction-buffer size
//	ilsim-sweep -param waves  -workload MD        # wavefront slots per CU
//	ilsim-sweep -param l1i    -workload LULESH    # I-cache size
//	ilsim-sweep -param cus    -workload SpMV      # machine scaling (CU count)
//	ilsim-sweep -param silicon -workload LULESH   # Table 4 vs slower memory latencies
//	ilsim-sweep -param banks -j 8 -v              # 8 workers, progress on stderr
//	ilsim-sweep -param banks -journal s.jsonl     # checkpoint successful jobs
//	ilsim-sweep -param banks -journal s.jsonl -resume   # continue after a kill
//	ilsim-sweep -param banks -serve :9666         # coordinate remote workers
//	ilsim-sweep -param banks -serve :9666 -token s3cret
//	ilsim-sweep -watch host:9666                  # campaign status snapshot
//	watch -n2 ilsim-sweep -watch host:9666        # live status board
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
	"ilsim/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-sweep:", err)
		os.Exit(1)
	}
}

// run parses args and executes the sweep, writing the result table to out
// and (with -v) progress lines plus any failure summary to errw. Split
// from main for the smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim-sweep", flag.ContinueOnError)
	fs.SetOutput(errw)
	param := fs.String("param", "banks", "parameter to sweep: "+strings.Join(exp.SweepParams(), ", "))
	name := fs.String("workload", "ArrayBW", "workload to sweep")
	scale := fs.Int("scale", 1, "input scale")
	workers := fs.Int("j", 0, "max parallel jobs (0 = GOMAXPROCS)")
	points := fs.Int("points", 0, "limit the sweep to its first N points (0 = all)")
	verbose := fs.Bool("v", false, "print per-job progress to stderr")
	timeout := fs.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
	maxCycles := fs.Uint64("maxcycles", 0, "per-job simulated-cycle budget (0 = unlimited)")
	journalPath := fs.String("journal", "", "checkpoint successful jobs to this JSONL file")
	resume := fs.Bool("resume", false, "reuse an existing -journal file, re-running only unfinished jobs")
	serve := fs.String("serve", "", "coordinate the sweep over HTTP on this address instead of running it locally")
	watch := fs.String("watch", "", "print a status snapshot (queue depth, per-worker throughput, ETA) from the coordinator at this address, then exit")
	allowCN := fs.String("allow-cn", "", "with -serve: comma-separated client-certificate CommonNames admitted past mutual TLS (needs -tls-client-ca); others get 403")
	token := fs.String("token", "", "shared auth token: required of workers with -serve, sent to the coordinator with -watch")
	tlsCert := fs.String("tls-cert", "", "with -serve: serve the coordinator endpoints over TLS using this PEM certificate. With -watch: present it as the client certificate (mutual TLS)")
	tlsKey := fs.String("tls-key", "", "the PEM key matching -tls-cert")
	tlsClientCA := fs.String("tls-client-ca", "", "with -serve: require client certificates signed by this PEM CA on every connection (mutual TLS; needs -tls-cert/-tls-key)")
	tlsCA := fs.String("tls-ca", "", "with -watch: trust this PEM certificate (e.g. a self-signed coordinator cert) and dial https")
	tlsInsecure := fs.Bool("tls-insecure", false, "with -watch: dial https without verifying the coordinator certificate (lab use only)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	blockProfile := fs.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	debugPprof := fs.Bool("pprof", false, "with -serve: expose net/http/pprof handlers on the coordinator's status mux")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *scale < 1:
		return fmt.Errorf("-scale %d is below 1", *scale)
	case *workers < 0:
		return fmt.Errorf("-j %d is negative (0 = GOMAXPROCS)", *workers)
	case *points < 0:
		return fmt.Errorf("-points %d is negative (0 = all)", *points)
	case *timeout < 0:
		return fmt.Errorf("-timeout %s is negative (0 = none)", *timeout)
	}

	stopProf, err := prof.StartOptions(prof.Options{
		CPUPath: *cpuProfile, MemPath: *memProfile,
		BlockPath: *blockProfile, MutexPath: *mutexProfile,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(errw, "ilsim-sweep:", perr)
		}
	}()
	if *resume && *journalPath == "" {
		return errors.New("-resume requires -journal")
	}
	if *serve != "" && *watch != "" {
		return errors.New("-serve and -watch are mutually exclusive")
	}
	if *watch != "" {
		// Status mode: one snapshot for operators and their scripts.
		// Here -tls-cert/-tls-key are this process's client certificate for
		// a mutual-TLS coordinator.
		st, err := dist.FetchStatus(context.Background(), *watch, dist.ClientOptions{AuthToken: *token,
			TLSCACert: *tlsCA, TLSSkipVerify: *tlsInsecure, TLSCert: *tlsCert, TLSKey: *tlsKey})
		if err != nil {
			return err
		}
		fmt.Fprint(out, st.Table())
		return nil
	}

	pts, err := exp.SweepPoints(*param)
	if err != nil {
		return err
	}
	if *points > 0 && *points < len(pts) {
		pts = pts[:*points]
	}
	jobs := exp.PairJobs(*name, *scale, pts, core.RunOptions{MaxCycles: *maxCycles})
	if *timeout > 0 {
		for i := range jobs {
			jobs[i].Timeout = *timeout
		}
	}

	var journal *exp.Journal
	if *journalPath != "" {
		j, err := exp.OpenJournal(*journalPath, jobs, *resume)
		if err != nil {
			return err
		}
		defer j.Close()
		if n := j.Resumable(); n > 0 {
			fmt.Fprintf(errw, "resuming: %d of %d jobs already journaled in %s\n", n, len(jobs), *journalPath)
		}
		journal = j
	}
	var onProgress func(exp.Progress)
	if *verbose {
		onProgress = func(p exp.Progress) { fmt.Fprintln(errw, p.Line()) }
	}

	var runner exp.Runner
	if *serve != "" {
		// Coordinator mode: the same job set, leased to workers instead of
		// a local pool; results assemble in the same submission order.
		var allowedCNs []string
		if *allowCN != "" {
			for _, cn := range strings.Split(*allowCN, ",") {
				if cn = strings.TrimSpace(cn); cn != "" {
					allowedCNs = append(allowedCNs, cn)
				}
			}
		}
		c := dist.NewCoordinator(dist.Options{
			Addr:        *serve,
			AuthToken:   *token,
			TLSCert:     *tlsCert,
			TLSKey:      *tlsKey,
			TLSClientCA: *tlsClientCA,
			AllowedCNs:  allowedCNs,
			Journal:     journal,
			OnProgress:  onProgress,
			Logf:        func(format string, a ...any) { fmt.Fprintf(errw, format+"\n", a...) },
			DebugPprof:  *debugPprof,
		})
		if err := c.Start(); err != nil {
			return err
		}
		defer c.Close()
		fmt.Fprintf(errw, "coordinating %d jobs on %s — attach workers with: ilsim-workerd -connect %s\n",
			len(jobs), c.Addr(), c.Addr())
		runner = c
	} else {
		eng := exp.New(*workers)
		eng.Journal = journal
		eng.OnProgress = onProgress
		runner = eng
	}
	results, metrics, err := runner.Run(jobs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "sweep %s on %s (scale %d)\n\n", *param, *name, *scale)
	fmt.Fprintf(out, "%-12s %12s %12s %10s %12s %12s %10s\n",
		"point", "HSAIL cyc", "GCN3 cyc", "H/G", "H conflicts", "G conflicts", "H flushes")
	for i := 0; i < len(results); i += 2 {
		h, g := results[i], results[i+1]
		if h.Err != nil || g.Err != nil {
			err := h.Err
			if err == nil {
				err = g.Err
			}
			fmt.Fprintf(out, "%-12s error [%s]: %s\n", h.Job.Label, exp.Classify(err), err)
			continue
		}
		fmt.Fprintf(out, "%-12s %12d %12d %10.2f %12d %12d %10d\n",
			h.Job.Label, h.Run.Cycles, g.Run.Cycles,
			float64(h.Run.Cycles)/float64(g.Run.Cycles),
			h.Run.VRFBankConflicts, g.Run.VRFBankConflicts, h.Run.IBFlushes)
	}
	fmt.Fprintf(out, "\n%d jobs in %.2fs (%.1f jobs/s, speedup %.2fx over serial",
		metrics.Jobs, metrics.Elapsed.Seconds(), metrics.Throughput(), metrics.Speedup())
	if metrics.Resumed > 0 {
		fmt.Fprintf(out, "; %d resumed from journal", metrics.Resumed)
	}
	fmt.Fprintln(out, ")")
	fmt.Fprintln(out, "\nNote how the HSAIL/GCN3 gap itself moves with the design point —")
	fmt.Fprintln(out, "the paper's argument that no fixed fudge-factor can correct IL simulation.")
	if failed := exp.WriteFailureSummary(errw, results); failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(results))
	}
	return nil
}
