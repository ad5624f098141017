// Command ilsim-fleetd is the fleet supervisor: it closes the
// autoscaling loop the coordinator's /status hints open. The daemon
// polls a coordinator (ilsim-sweep -serve), converts the WantWorkers
// slot target into a replica count through a hysteresis/cooldown policy
// (-min/-max clamps, -deadband, -up-cooldown/-down-cooldown), and
// reconciles the live fleet to match — launching workers to grow,
// draining them to shrink, and exiting 0 once the campaign completes and
// the fleet is gone.
//
// Replicas are local ilsim-workerd child processes, launched with the
// transport and engine flags given here (-token, -tls-ca, -tls-insecure,
// -tls-cert/-tls-key, -chaos, -j) plus -name/-fleet labels; a crashed
// worker relaunches under the same name with exponential backoff, and a
// crash loop trips a breaker that abandons the lineage instead of
// respawning it forever.
//
// Scale-down never loses work: the supervisor sends the victim SIGTERM,
// which is ilsim-workerd's own drain — the worker finishes its in-flight
// job, says goodbye to the coordinator via POST /release, and exits 0 —
// and reaps the process, killing it only if it is still up -drain-grace
// later. Victims are the cheapest first: crashed lineages waiting out a
// backoff, then quarantined workers, then idle ones, then the slowest.
//
// -v narrates every launch, drain, crash and target change; the campaign's
// status board is `ilsim-sweep -watch`. SIGINT/SIGTERM stops supervising
// and kills the fleet; held leases lapse via their TTL and re-lease to
// surviving workers.
//
// Usage:
//
//	ilsim-fleetd -connect host:9666 -max 8                 # local fleet, up to 8 workers
//	ilsim-fleetd -connect host:9666 -min 2 -max 16 -j 4    # 4 slots per worker
//	ilsim-fleetd -connect host:9666 -max 8 -token s3cret -tls-ca coord.pem
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"ilsim/internal/dist"
	"ilsim/internal/fleet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-fleetd:", err)
		os.Exit(1)
	}
}

// run parses args and supervises until the campaign completes; split
// from main for the smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim-fleetd", flag.ContinueOnError)
	fs.SetOutput(errw)
	connect := fs.String("connect", "", "coordinator address (host:port; required)")
	label := fs.String("fleet", "fleet", "fleet label: prefix of worker names and the join-time tag that marks them supervisor-managed")
	minR := fs.Int("min", 1, "minimum replicas (also the bootstrap size before the first hint)")
	maxR := fs.Int("max", 4, "maximum replicas (0 = no ceiling)")
	deadband := fs.Float64("deadband", 0.25, "hysteresis width as a fraction of the current replica count")
	upCd := fs.Duration("up-cooldown", 5*time.Second, "quiet time required after any fleet change before growing")
	downCd := fs.Duration("down-cooldown", 30*time.Second, "quiet time required after any fleet change before shrinking")
	poll := fs.Duration("poll", 2*time.Second, "status poll and reconcile interval")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "how long a worker may take to drain after SIGTERM before it is killed")
	breaker := fs.Int("breaker", 5, "consecutive crashes that abandon a worker lineage")
	slots := fs.Int("j", 1, "execution slots per launched worker (passed to ilsim-workerd as -j)")
	workerBin := fs.String("worker-bin", "", "ilsim-workerd binary to launch (default: found next to this binary, then $PATH)")
	token := fs.String("token", "", "shared auth token, used by the supervisor and passed to the launched workers")
	tlsCA := fs.String("tls-ca", "", "trust this PEM certificate and dial https (passed through to workers)")
	tlsInsecure := fs.Bool("tls-insecure", false, "dial https without verifying the coordinator certificate (lab use only)")
	tlsCert := fs.String("tls-cert", "", "client certificate for mutual TLS (passed through to workers; needs -tls-key)")
	tlsKey := fs.String("tls-key", "", "private key for -tls-cert")
	chaosSpec := fs.String("chaos", "", "chaos spec passed through to the launched workers (dev/test harness)")
	verbose := fs.Bool("v", false, "log supervisor lifecycle events to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return errors.New("-connect is required")
	}
	if *minR < 0 || (*maxR > 0 && *maxR < *minR) {
		return fmt.Errorf("bad replica bounds: min %d, max %d", *minR, *maxR)
	}

	clientOpts := dist.ClientOptions{
		AuthToken:     *token,
		TLSCACert:     *tlsCA,
		TLSSkipVerify: *tlsInsecure,
		TLSCert:       *tlsCert,
		TLSKey:        *tlsKey,
	}

	bin, err := findWorkerBinary(*workerBin)
	if err != nil {
		return err
	}
	wargs := []string{"-j", strconv.Itoa(*slots)}
	if *token != "" {
		wargs = append(wargs, "-token", *token)
	}
	if *tlsCA != "" {
		wargs = append(wargs, "-tls-ca", *tlsCA)
	}
	if *tlsInsecure {
		wargs = append(wargs, "-tls-insecure")
	}
	if *tlsCert != "" {
		wargs = append(wargs, "-tls-cert", *tlsCert, "-tls-key", *tlsKey)
	}
	if *chaosSpec != "" {
		wargs = append(wargs, "-chaos", *chaosSpec)
	}
	if *verbose {
		wargs = append(wargs, "-v")
	}

	sup := &fleet.Supervisor{
		Coordinator: *connect,
		Client:      clientOpts,
		Fleet:       *label,
		Launcher:    &fleet.ExecLauncher{Path: bin, Args: wargs, Stdout: errw, Stderr: errw},
		Policy: fleet.Policy{
			Min: *minR, Max: *maxR,
			Deadband:   *deadband,
			UpCooldown: *upCd, DownCooldown: *downCd,
		},
		SlotsPerWorker: *slots,
		Poll:           *poll,
		DrainGrace:     *drainGrace,
		BreakerCrashes: *breaker,
	}
	if *verbose {
		sup.Logf = func(format string, a ...any) { fmt.Fprintf(errw, format+"\n", a...) }
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-ctx.Done():
		case <-sigs:
			fmt.Fprintln(errw, "stopping: killing the fleet (held leases re-lease via their TTL)")
			cancel()
		}
	}()

	if err := sup.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "campaign complete; fleet drained")
	return nil
}

// findWorkerBinary locates ilsim-workerd: an
// explicit -worker-bin wins, then a binary sitting next to ilsim-fleetd
// (the `go build ./...` layout), then $PATH.
func findWorkerBinary(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("worker binary %s: %w", explicit, err)
		}
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "ilsim-workerd")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if path, err := exec.LookPath("ilsim-workerd"); err == nil {
		return path, nil
	}
	return "", errors.New("cannot find ilsim-workerd (set -worker-bin, or put it next to ilsim-fleetd or on $PATH)")
}
