package dist

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ilsim/internal/exp"
)

// Options configures a Coordinator.
type Options struct {
	// Addr is the listen address (host:port; port 0 picks a free one).
	Addr string
	// LeaseTTL bounds how long a worker may hold a job without
	// heartbeating before it is reassigned (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LongPoll caps how long a /lease request is held open waiting for a
	// job to become available (default DefaultLongPoll).
	LongPoll time.Duration
	// BundleTarget is inert: a lease carries exactly one job. The field
	// remains only because the frozen benchmark (bench/ladder.go) still
	// sets it; the next [benchmark] PR removes both.
	BundleTarget time.Duration
	// TLSCert and TLSKey are PEM file paths; when both are set the
	// coordinator serves its endpoints over TLS. Self-signed pairs work —
	// point workers at the certificate via ClientOptions.TLSCACert.
	TLSCert string
	TLSKey  string
	// TLSClientCA is a PEM CA-bundle path; when set (TLSCert/TLSKey
	// required too) the coordinator demands a client certificate signed
	// by it on every connection — mutual TLS. The client certificate's
	// CN is recorded in the worker's WorkerStatus.
	TLSClientCA string
	// AuthToken, when non-empty, requires `Authorization: Bearer <token>`
	// on every endpoint (status and pprof included), compared in constant
	// time. Wrong or missing tokens get 401.
	AuthToken string
	// AllowedCNs, when non-empty, pins the set of client-certificate
	// CommonNames admitted past mutual TLS: every request must arrive
	// with a verified client certificate whose CN is in this set, or it
	// is refused with 403, logged, and counted in Status.RejectedCNs.
	// Requires TLSClientCA — an ACL over unverified names would pin
	// nothing.
	AllowedCNs []string
	// Journal, when non-nil, persists every accepted result before it is
	// acknowledged, exactly as a local engine would — the same file
	// resumes the campaign across coordinator restarts.
	Journal *exp.Journal
	// OnProgress observes every completed job, with Progress.Worker naming
	// the worker that ran it. Calls are serialized.
	OnProgress func(exp.Progress)
	// Logf, when non-nil, receives coordinator lifecycle events (worker
	// joins, lease reassignments, refused handshakes).
	Logf func(format string, args ...any)
	// DebugPprof exposes net/http/pprof handlers under /debug/pprof/ on
	// the coordinator's mux, so a long campaign can be profiled live
	// (`go tool pprof http://coordinator/debug/pprof/profile`). Off by
	// default: the endpoints reveal runtime internals.
	DebugPprof bool
}

// Coordinator serves one campaign at a time to remote workers and
// assembles their results in submission order. It satisfies exp.Runner,
// so every consumer of the local engine — the sweep CLI's table printer,
// report.CollectParallel — can run distributed by swapping the runner.
// It is lifecycle only — listener, TLS set-up, installing the campaign —
// and makes no protocol decision itself (see the package doc).
type Coordinator struct {
	opts    Options
	ln      net.Listener
	srv     *http.Server
	handler http.Handler

	// rejectedCNs counts requests refused by the AllowedCNs ACL; it lives
	// on the coordinator, not the campaign, so refusals before a campaign
	// installs still count.
	rejectedCNs atomic.Int64

	mu   sync.Mutex
	camp *campaign
}

var _ exp.Runner = (*Coordinator)(nil)

// withDefaults fills the zero values; idempotent.
func (opts Options) withDefaults() Options {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.LongPoll <= 0 {
		opts.LongPoll = DefaultLongPoll
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return opts
}

// NewCoordinator creates a coordinator; call Start to bind its listener.
func NewCoordinator(opts Options) *Coordinator {
	return &Coordinator{opts: opts.withDefaults()}
}

// Start binds the listener — wrapped in TLS when Options.TLSCert/TLSKey
// are set — and begins serving the protocol in the background. Workers
// may connect immediately; they wait (503 → retry) until RunContext
// installs a campaign.
func (c *Coordinator) Start() error {
	if c.ln != nil {
		return nil
	}
	ln, err := net.Listen("tcp", c.opts.Addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", c.opts.Addr, err)
	}
	if c.opts.TLSClientCA != "" && (c.opts.TLSCert == "" || c.opts.TLSKey == "") {
		ln.Close()
		return fmt.Errorf("dist: -tls-client-ca requires a server certificate (TLSCert/TLSKey)")
	}
	if len(c.opts.AllowedCNs) > 0 && c.opts.TLSClientCA == "" {
		ln.Close()
		return fmt.Errorf("dist: -allow-cn requires mutual TLS (-tls-client-ca): without verified client certificates the ACL pins nothing")
	}
	if c.opts.TLSCert != "" || c.opts.TLSKey != "" {
		cert, err := tls.LoadX509KeyPair(c.opts.TLSCert, c.opts.TLSKey)
		if err != nil {
			ln.Close()
			return fmt.Errorf("dist: load TLS keypair: %w", err)
		}
		cfg := &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
		}
		if c.opts.TLSClientCA != "" {
			pem, err := os.ReadFile(c.opts.TLSClientCA)
			if err != nil {
				ln.Close()
				return fmt.Errorf("dist: read client CA: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				ln.Close()
				return fmt.Errorf("dist: no certificates in client CA %s", c.opts.TLSClientCA)
			}
			cfg.ClientCAs = pool
			cfg.ClientAuth = tls.RequireAndVerifyClientCert
		}
		ln = tls.NewListener(ln, cfg)
	}
	c.ln = ln
	c.srv = &http.Server{Handler: c.Handler()}
	go c.srv.Serve(ln)
	return nil
}

// Addr returns the bound listen address (useful with port 0).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return c.opts.Addr
	}
	return c.ln.Addr().String()
}

// Close stops serving: no new connection is accepted, replies in flight get
// up to two seconds to reach their clients — one cut off mid-write leaves
// its worker retrying a closed listener for a whole RetryWindow — and
// whatever is still open then is closed under it. The campaign journal (if
// any) stays resumable.
func (c *Coordinator) Close() error {
	if c.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if c.srv.Shutdown(ctx) == nil {
		return nil
	}
	return c.srv.Close()
}

// Run executes the job set through remote workers (see RunContext).
func (c *Coordinator) Run(jobs []exp.Job) ([]exp.Result, exp.Metrics, error) {
	return c.RunContext(context.Background(), jobs)
}

// RunContext installs jobs as the active campaign and blocks until every
// job has a terminal result or ctx ends. Results come back in submission
// order with the same semantics as the local engine's: per-job errors live
// in the results (reported permanent failures are not re-leased), and jobs
// still unfinished at cancellation carry exp.ErrCanceled. With a Journal
// attached, journaled successes are restored instead of re-leased, and every
// accepted success is persisted before it is acknowledged to its worker; an
// accepted failure is not journaled, so a resumed campaign leases it again.
func (c *Coordinator) RunContext(ctx context.Context, jobs []exp.Job) ([]exp.Result, exp.Metrics, error) {
	if err := c.Start(); err != nil {
		return nil, exp.Metrics{}, err
	}
	cp := newCampaign(jobs, c.opts, time.Now())
	if j := c.opts.Journal; j != nil {
		if err := j.Bind(jobs); err != nil {
			return nil, exp.Metrics{}, err
		}
		for i := range jobs {
			if r, ok := j.Completed(i); ok {
				cp.restore(i, r)
			}
		}
	}

	c.mu.Lock()
	c.camp = cp
	c.mu.Unlock()

	// Reclaim expired leases even when no worker traffic arrives to
	// trigger the lazy sweep in the lease handler.
	stopReclaim := make(chan struct{})
	go func() {
		t := time.NewTicker(reclaimEvery(c.opts.LeaseTTL))
		defer t.Stop()
		for {
			select {
			case <-stopReclaim:
				return
			case <-t.C:
				cp.reclaim(time.Now())
			}
		}
	}()
	defer close(stopReclaim)

	select {
	case <-cp.finished:
		// Completed normally: stay up briefly so every live worker's next
		// lease poll gets a Done reply instead of a vanished coordinator
		// (which it could not tell apart from a crash, and would retry for
		// its whole outage window).
		c.linger(ctx, cp)
	case <-ctx.Done():
		cp.abort()
	}
	results, metrics := cp.assemble(time.Now())
	return results, metrics, nil
}

// linger blocks until every worker seen within the last lease TTL has read
// a Done reply and said goodbye, capped by a grace period of two long-poll
// windows — a silent worker is presumed dead, not waited for.
func (c *Coordinator) linger(ctx context.Context, cp *campaign) {
	grace := 2 * c.opts.LongPoll
	if grace > 30*time.Second {
		grace = 30 * time.Second
	}
	deadline := time.Now().Add(grace)
	for {
		now := time.Now()
		allAcked, ch := cp.allAcked(now)
		if allAcked || now.After(deadline) || ctx.Err() != nil {
			return
		}
		t := time.NewTimer(20 * time.Millisecond)
		select {
		case <-ch:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
}

// reclaimEvery picks the reclaim sweep period: a quarter TTL, floored so
// tests with millisecond TTLs still work and capped so long TTLs do not
// leave dead workers' jobs stranded for minutes after the deadline.
func reclaimEvery(ttl time.Duration) time.Duration {
	d := ttl / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
