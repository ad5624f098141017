// Command ilsim-workerd is the distributed-sweep worker daemon: it joins a
// coordinator (ilsim-sweep -serve, or any dist.Coordinator), leases jobs,
// executes each once on a local experiment engine — watchdog budgets and
// panic isolation apply per job, as they would locally — and streams
// integrity-hashed results back. The reply to each result is the slot's next
// lease, so a slot long-polls for a lease only for its first job and after
// the coordinator says to wait. It exits 0 when the coordinator reports the
// campaign complete.
//
// The join handshake refuses stale binaries: protocol versions must match
// and the worker must recompute the coordinator's job fingerprints
// identically, so a worker whose job encoding drifted can never taint a
// campaign.
//
// A lease carries one job and each of the -j slots leases independently,
// so a kill forfeits only the jobs in flight. For hardened coordinators,
// -token sends the shared auth token, -tls-ca/-tls-insecure dial https, and
// -tls-cert/-tls-key present this worker's client certificate to a
// mutual-TLS coordinator. (The campaign's status board is `ilsim-sweep
// -watch`, not this daemon.)
//
// Workers are added and removed by hand: start another ilsim-workerd
// -connect to grow a campaign's capacity at any time, and signal one to
// shrink it. The first SIGINT/SIGTERM drains gracefully: in-flight jobs
// finish and report, no further lease is taken, and the process exits 0 —
// no job is lost or run twice. A second signal aborts hard — work in flight
// cancels and held leases lapse via their TTL.
//
// -chaos injects deterministic, seeded network faults (drops, delays,
// duplicates, corrupted and truncated responses) into
// this worker's coordinator connection — a development harness for
// rehearsing the retry, integrity-hash and re-lease machinery against a
// reproducible hostile network. See package ilsim/internal/chaos for the
// spec syntax.
//
// Usage:
//
//	ilsim-workerd -connect host:9666              # one execution slot
//	ilsim-workerd -connect host:9666 -j 8 -v      # 8 slots, lifecycle logs
//	ilsim-workerd -connect host:9666 -token s3cret -tls-ca coord.pem
//	ilsim-workerd -connect host:9666 -tls-ca ca.pem -tls-cert w.pem -tls-key w.key
//	ilsim-workerd -connect host:9666 -chaos 'seed=7,drop=0.05,delay=20ms:0.2'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ilsim/internal/chaos"
	"ilsim/internal/dist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-workerd:", err)
		os.Exit(1)
	}
}

// run parses args and executes leases until the campaign completes; split
// from main for the smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim-workerd", flag.ContinueOnError)
	fs.SetOutput(errw)
	connect := fs.String("connect", "", "coordinator address (host:port; required)")
	name := fs.String("name", "", "worker name in leases and logs (default hostname-pid)")
	slots := fs.Int("j", 0, "concurrent execution slots (0 = GOMAXPROCS)")
	window := fs.Duration("window", 2*time.Minute, "how long to retry an unreachable coordinator before giving up")
	token := fs.String("token", "", "shared auth token for a coordinator started with -token")
	tlsCA := fs.String("tls-ca", "", "trust this PEM certificate (e.g. a self-signed coordinator cert) and dial https")
	tlsInsecure := fs.Bool("tls-insecure", false, "dial https without verifying the coordinator certificate (lab use only)")
	tlsCert := fs.String("tls-cert", "", "present this PEM certificate as the worker's client certificate (mutual TLS; needs -tls-key)")
	tlsKey := fs.String("tls-key", "", "private key for -tls-cert")
	chaosSpec := fs.String("chaos", "", "inject deterministic seeded network faults into the coordinator connection, e.g. 'seed=7,drop=0.05,corrupt=0.02,delay=20ms:0.2' (dev/test harness)")
	verbose := fs.Bool("v", false, "log lifecycle events to stderr")
	debugAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *slots < 0 {
		return fmt.Errorf("-j %d is negative (0 = GOMAXPROCS)", *slots)
	}
	if *window < 0 {
		return fmt.Errorf("-window %s is negative (0 = 2m0s)", *window)
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("pprof listen %s: %w", *debugAddr, err)
		}
		defer ln.Close()
		fmt.Fprintf(errw, "pprof: http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, dist.NewDebugMux("ilsim-workerd"))
	}
	if *connect == "" {
		return errors.New("-connect is required")
	}
	if *slots == 0 {
		*slots = runtime.GOMAXPROCS(0)
	}

	clientOpts := dist.ClientOptions{
		AuthToken:     *token,
		TLSCACert:     *tlsCA,
		TLSSkipVerify: *tlsInsecure,
		TLSCert:       *tlsCert,
		TLSKey:        *tlsKey,
	}
	var chaosT *chaos.Transport
	if *chaosSpec != "" {
		plan, err := chaos.ParsePlan(*chaosSpec)
		if err != nil {
			return err
		}
		clientOpts.Wrap = func(inner http.RoundTripper) http.RoundTripper {
			t := plan.Transport(inner)
			chaosT = t
			return t
		}
		fmt.Fprintf(errw, "chaos: injecting faults (%s)\n", *chaosSpec)
	}
	w := &dist.Worker{
		Coordinator: *connect,
		Name:        *name,
		Slots:       *slots,
		Client:      clientOpts,
		RetryWindow: *window,
	}
	if *verbose {
		w.Logf = func(format string, a ...any) { fmt.Fprintf(errw, format+"\n", a...) }
	}

	// Two-stage shutdown. The first SIGINT/SIGTERM drains: in-flight
	// jobs finish and report, no further lease is taken, and Run returns
	// cleanly. A
	// second signal aborts hard — work cancels mid-flight and held
	// leases lapse via their TTL.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-ctx.Done():
			return
		case <-sigs:
		}
		fmt.Fprintln(errw, "draining: finishing in-flight jobs, taking no more (signal again to abort)")
		w.Drain()
		select {
		case <-ctx.Done():
		case <-sigs:
			fmt.Fprintln(errw, "aborting: cancelling in-flight work")
			cancel()
		}
	}()

	if err := w.Run(ctx); err != nil {
		return err
	}
	if chaosT != nil {
		s := chaosT.Stats()
		fmt.Fprintf(errw, "chaos: %d requests: %d dropped, %d delayed, %d duplicated, %d truncated, %d corrupted\n",
			s.Requests, s.Drops, s.Delays, s.Dups, s.Truncates, s.Corrupts)
	}
	if w.Draining() {
		fmt.Fprintln(out, "drained")
	} else {
		fmt.Fprintln(out, "campaign complete")
	}
	return nil
}
