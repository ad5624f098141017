package dist

import (
	"context"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
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
	// BundleTarget is how much estimated work each lease should carry:
	// bundles are sized so their jobs sum to roughly this much runtime at
	// the worker's observed per-job EWMA. 0 means DefaultBundleTarget;
	// negative disables bundling (one job per lease, the v1 behavior).
	BundleTarget time.Duration
	// ScaleHorizon is the drain time the Status.WantWorkers hint aims
	// for: the hint is the slot count that would finish the remaining
	// jobs within this window (default DefaultScaleHorizon).
	ScaleHorizon time.Duration
	// Replicas leases every job to this many distinct workers and accepts
	// the majority result (votes are stats.Run integrity hashes — see
	// package docs). 0 or 1 means no replication: first result wins,
	// exactly the pre-quorum behavior. Use 3 when workers are untrusted;
	// even values work but buy no extra fault tolerance over the next
	// odd value down.
	Replicas int
	// Health tunes the worker health ledger and quarantine thresholds
	// (nil = DefaultHealthPolicy).
	Health *HealthPolicy
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

// NewCoordinator creates a coordinator; call Start to bind its listener.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.LongPoll <= 0 {
		opts.LongPoll = DefaultLongPoll
	}
	if opts.BundleTarget == 0 {
		opts.BundleTarget = DefaultBundleTarget
	}
	if opts.ScaleHorizon <= 0 {
		opts.ScaleHorizon = DefaultScaleHorizon
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Health == nil {
		hp := DefaultHealthPolicy()
		opts.Health = &hp
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Coordinator{opts: opts}
}

// Handler returns the coordinator's HTTP handler — the protocol mux
// wrapped in the auth middleware — for callers that serve it on their own
// listener (httptest servers, shared muxes). Start uses the same handler.
func (c *Coordinator) Handler() http.Handler {
	if c.handler != nil {
		return c.handler
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", c.handleJoin)
	mux.HandleFunc("POST /lease", c.handleLease)
	mux.HandleFunc("POST /result", c.handleResult)
	mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /release", c.handleRelease)
	mux.HandleFunc("POST /drain", c.handleDrain)
	mux.HandleFunc("GET /status", c.handleStatus)
	if c.opts.DebugPprof {
		registerPprof(mux)
	}
	c.handler = c.requireAuth(c.requireCN(mux))
	return c.handler
}

// requireCN wraps h with the certificate ACL. With no AllowedCNs the
// handler passes through untouched; with some, every request must carry a
// verified client certificate (mutual TLS did the verifying) whose CN is
// in the allowed set — anything else is 403, logged and counted.
func (c *Coordinator) requireCN(h http.Handler) http.Handler {
	if len(c.opts.AllowedCNs) == 0 {
		return h
	}
	allowed := make(map[string]bool, len(c.opts.AllowedCNs))
	for _, cn := range c.opts.AllowedCNs {
		allowed[cn] = true
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cn := ""
		if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
			cn = r.TLS.PeerCertificates[0].Subject.CommonName
		}
		if !allowed[cn] {
			c.rejectedCNs.Add(1)
			c.opts.Logf("dist: refused %s %s from %s: client certificate CN %q not in the allowed set",
				r.Method, r.URL.Path, r.RemoteAddr, cn)
			httpError(w, http.StatusForbidden, "dist: client certificate CN %q is not allowed here", cn)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// requireAuth wraps h with the shared-token check. With no AuthToken the
// handler passes through untouched; with one, every request — status and
// pprof included — must carry the matching bearer token.
func (c *Coordinator) requireAuth(h http.Handler) http.Handler {
	token := c.opts.AuthToken
	if token == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			httpError(w, http.StatusUnauthorized, "dist: missing or wrong auth token")
			return
		}
		h.ServeHTTP(w, r)
	})
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

// Close stops serving. The campaign journal (if any) stays resumable.
func (c *Coordinator) Close() error {
	if c.srv == nil {
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
// order with the same semantics as the local engine's CollectAll mode:
// per-job errors live in the results (reported permanent failures are not
// re-leased), and jobs still unfinished at cancellation carry
// exp.ErrCanceled. With a Journal attached, journaled completions are
// restored instead of re-leased and every accepted result is persisted
// before it is acknowledged to its worker.
func (c *Coordinator) RunContext(ctx context.Context, jobs []exp.Job) ([]exp.Result, exp.Metrics, error) {
	if err := c.Start(); err != nil {
		return nil, exp.Metrics{}, err
	}
	cp := newCampaign(jobs, c.opts)
	if c.opts.Journal != nil {
		if err := c.opts.Journal.Bind(jobs); err != nil {
			return nil, exp.Metrics{}, err
		}
		for i := range jobs {
			if r, ok := c.opts.Journal.Completed(i); ok {
				cp.results[i].Run, cp.results[i].Wall, cp.results[i].Resumed = r.Run, r.Wall, true
				cp.state[i] = stateDone
				// Record the accepted ballot so a stray post-restart
				// result for this job is judged against it rather than
				// counted as dissent by default.
				cp.accepted[i] = exp.RunSHA(r.Run)
				cp.done++
				cp.resumed++
			}
		}
		if cp.done == len(jobs) {
			close(cp.finished)
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
				cp.mu.Lock()
				cp.reclaimLocked(time.Now())
				cp.mu.Unlock()
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
	return cp.assemble()
}

// linger blocks until every worker seen within the last lease TTL has been
// told the campaign is done, capped by a grace period of two long-poll
// windows — a silent worker is presumed dead, not waited for.
func (c *Coordinator) linger(ctx context.Context, cp *campaign) {
	grace := 2 * c.opts.LongPoll
	if grace > 30*time.Second {
		grace = 30 * time.Second
	}
	deadline := time.Now().Add(grace)
	for {
		now := time.Now()
		cp.mu.Lock()
		allAcked := true
		for name, ws := range cp.workers {
			if now.Sub(ws.seen) > cp.leaseTTL || cp.drains[name] {
				// Dead workers are not waited for; neither are draining
				// ones — they stop polling once their in-flight work lands.
				continue
			}
			if ws.acked < ws.slots {
				allAcked = false
				break
			}
		}
		ch := cp.changed
		cp.mu.Unlock()
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

// ewmaAlpha weights the newest observation in the per-worker runtime
// average bundle sizing runs on: high enough to track a workload change
// within a few jobs, low enough that one outlier cannot collapse or
// explode the next bundle.
const ewmaAlpha = 0.3

// workerState is everything the coordinator tracks per worker: liveness,
// the completion handshake, the runtime estimate behind bundle sizing
// and the autoscaling hints, and the health ledger behind quarantine.
type workerState struct {
	seen time.Time
	// slots is the worker's declared lease-poll concurrency; acked counts
	// the Done replies served to it. The coordinator lingers after
	// completion until every live worker's acked count reaches its slots,
	// so every polling slot learns the campaign is over.
	slots int
	acked int
	// done counts results reported by this worker; ewma tracks its
	// observed per-job runtime.
	done int
	ewma time.Duration
	// cn is the CommonName of the worker's client certificate under
	// mutual TLS.
	cn string
	// fleet is the supervisor label the worker announced at join; empty
	// for hand-launched workers.
	fleet string
	// Health ledger: score decays exponentially from scoreAt; a non-zero
	// quarantinedUntil in the future means leases are refused. The
	// counters feed WorkerStatus.
	score            float64
	scoreAt          time.Time
	quarantinedUntil time.Time
	quarantines      int
	integrity        int
	dissents         int
	expiries         int
}

// campaign is the lease table, ballot box and result store of one job
// set. With replicas > 1 a job may be leased to several workers at once;
// leases maps job index → holder → deadline, and votes/ballots/accepted
// run the per-job election over result fingerprints.
type campaign struct {
	mu      sync.Mutex
	jobs    []exp.Job
	fps     []string
	setFP   string
	results []exp.Result
	state   []jobState
	leases  map[int]map[string]time.Time
	workers map[string]*workerState
	// drains marks workers asked to retire: their next lease poll or
	// heartbeat carries the drain flag, and the post-completion linger
	// does not wait for them. A worker that posts /release marks itself.
	drains map[string]bool

	// replicas is the quorum width; health the ledger policy.
	replicas int
	health   HealthPolicy
	// votes[idx] maps voter → ballot key; ballots[idx] maps ballot key →
	// the first result that cast it; accepted[idx] is the winning key
	// once the job is done ("" for resumed failures and pre-quorum
	// campaigns); tallying[idx] guards the unlock-journal-relock window
	// so one election is only journaled once.
	votes    []map[string]string
	ballots  []map[string]voteOutcome
	accepted []string
	tallying []bool

	done, resumed, failed, retries int
	jobWall                        time.Duration
	start                          time.Time
	aborted                        bool
	// ewma is the campaign-wide per-job runtime estimate: the bundle-size
	// fallback for workers with no history yet, and the basis of the
	// WantWorkers hint.
	ewma time.Duration
	// leases granted and the largest bundle granted, for Status; grants
	// counts lease grants per job (a reassigned job has more than one).
	leaseGrants int
	maxBundle   int
	grants      []int
	// changed is closed and replaced on every state transition a lease
	// long-poller could care about; finished closes once when every job is
	// terminal (or the campaign aborts).
	changed  chan struct{}
	finished chan struct{}

	journal      *exp.Journal
	onProgress   func(exp.Progress)
	progressMu   sync.Mutex
	leaseTTL     time.Duration
	bundleTarget time.Duration
	scaleHorizon time.Duration
	logf         func(string, ...any)
}

type jobState uint8

const (
	statePending jobState = iota
	stateDone
)

// voteOutcome is one ballot's evidence: the first result that cast it and
// the worker it came from (the worker credited on acceptance).
type voteOutcome struct {
	res    exp.Result
	worker string
}

func newCampaign(jobs []exp.Job, opts Options) *campaign {
	replicas := opts.Replicas
	if replicas < 1 {
		replicas = 1
	}
	health := DefaultHealthPolicy()
	if opts.Health != nil {
		health = *opts.Health
	}
	cp := &campaign{
		jobs:         jobs,
		fps:          make([]string, len(jobs)),
		setFP:        exp.JobSetFingerprint(jobs),
		results:      make([]exp.Result, len(jobs)),
		state:        make([]jobState, len(jobs)),
		grants:       make([]int, len(jobs)),
		leases:       make(map[int]map[string]time.Time),
		workers:      make(map[string]*workerState),
		drains:       make(map[string]bool),
		replicas:     replicas,
		health:       health,
		votes:        make([]map[string]string, len(jobs)),
		ballots:      make([]map[string]voteOutcome, len(jobs)),
		accepted:     make([]string, len(jobs)),
		tallying:     make([]bool, len(jobs)),
		start:        time.Now(),
		changed:      make(chan struct{}),
		finished:     make(chan struct{}),
		journal:      opts.Journal,
		onProgress:   opts.OnProgress,
		leaseTTL:     opts.LeaseTTL,
		bundleTarget: opts.BundleTarget,
		scaleHorizon: opts.ScaleHorizon,
		logf:         opts.Logf,
	}
	for i, job := range jobs {
		cp.fps[i] = job.Fingerprint()
		cp.results[i].Job = job
	}
	return cp
}

// workerLocked returns (creating if needed) the named worker's state.
// Callers hold cp.mu.
func (cp *campaign) workerLocked(name string) *workerState {
	ws := cp.workers[name]
	if ws == nil {
		ws = &workerState{}
		cp.workers[name] = ws
	}
	return ws
}

// broadcastLocked wakes every lease long-poller. Callers hold cp.mu.
func (cp *campaign) broadcastLocked() {
	close(cp.changed)
	cp.changed = make(chan struct{})
}

// finishedNow reports whether the campaign has ended (all terminal or
// aborted).
func (cp *campaign) finishedNow() bool {
	select {
	case <-cp.finished:
		return true
	default:
		return false
	}
}

// reclaimLocked returns every expired lease to the pending pool and
// charges the expiry against the holder's health ledger. Leases are per
// job even when granted as a bundle, so only the un-acked remainder of a
// dead worker's bundle comes back — jobs it already reported stay done.
// Callers hold cp.mu.
func (cp *campaign) reclaimLocked(now time.Time) {
	woke := false
	for idx, holders := range cp.leases {
		for worker, deadline := range holders {
			if now.Before(deadline) {
				continue
			}
			delete(holders, worker)
			if cp.state[idx] != stateDone {
				woke = true
				cp.logf("dist: lease on job %d (%s) held by %s expired; reassigning", idx, cp.jobs[idx], worker)
				cp.workerLocked(worker).expiries++
				cp.strikeLocked(worker, cp.health.WExpiry, fmt.Sprintf("lease expiry on job %d", idx), now)
			}
		}
		if len(holders) == 0 {
			delete(cp.leases, idx)
		}
	}
	if woke {
		cp.broadcastLocked()
	}
}

// bundleSizeLocked sizes worker's next bundle: enough jobs to fill the
// effective bundle target at the worker's observed per-job EWMA (falling
// back to the campaign-wide estimate for a worker with no history), never
// fewer than one nor more than maxBundleJobs. workerMS, when positive, is
// the worker's own preferred target and can only shrink the bundle.
// Callers hold cp.mu.
func (cp *campaign) bundleSizeLocked(worker string, workerMS int64) int {
	target := cp.bundleTarget
	if workerPref := time.Duration(workerMS) * time.Millisecond; workerPref > 0 && (target <= 0 || workerPref < target) {
		target = workerPref
	}
	if target <= 0 {
		return 1
	}
	est := cp.ewma
	if ws := cp.workers[worker]; ws != nil && ws.ewma > 0 {
		est = ws.ewma
	}
	if est <= 0 {
		return 1
	}
	n := int(target / est)
	if n < 1 {
		return 1
	}
	if n > maxBundleJobs {
		return maxBundleJobs
	}
	return n
}

// wantLeasesLocked returns how many leases job idx should have
// outstanding given its election so far: provision the full replica
// count up front, then keep enough in flight to reach a majority — so a
// split election (every voter a different ballot) extends itself one
// voter at a time until some ballot wins. Callers hold cp.mu.
func (cp *campaign) wantLeasesLocked(idx int) int {
	want := cp.replicas - len(cp.votes[idx])
	best := 0
	counts := make(map[string]int, len(cp.votes[idx]))
	for _, k := range cp.votes[idx] {
		counts[k]++
		if counts[k] > best {
			best = counts[k]
		}
	}
	if need := cp.replicas/2 + 1 - best; need > want {
		want = need
	}
	return want
}

// takeLocked hands up to max of the lowest eligible jobs to worker as one
// bundle. A job is eligible when it is not done, this worker neither
// holds it nor has voted on it, and its election still wants more voters
// than it has leases outstanding. Callers hold cp.mu.
func (cp *campaign) takeLocked(worker string, now time.Time, max int) []int {
	var taken []int
	deadline := now.Add(cp.leaseTTL)
	for idx, st := range cp.state {
		if st == stateDone {
			continue
		}
		holders := cp.leases[idx]
		if _, held := holders[worker]; held {
			continue
		}
		if cp.replicas == 1 {
			if len(holders) > 0 {
				continue
			}
		} else {
			if _, voted := cp.votes[idx][worker]; voted {
				continue
			}
			if len(holders) >= cp.wantLeasesLocked(idx) {
				continue
			}
		}
		if holders == nil {
			holders = make(map[string]time.Time)
			cp.leases[idx] = holders
		}
		holders[worker] = deadline
		cp.grants[idx]++
		taken = append(taken, idx)
		if len(taken) >= max {
			break
		}
	}
	if len(taken) > 0 {
		cp.leaseGrants++
		if len(taken) > cp.maxBundle {
			cp.maxBundle = len(taken)
		}
	}
	return taken
}

// heartbeat extends the deadlines of held leases (only those the worker
// actually owns), refreshes the worker's last-seen time, and reports
// whether the worker has been asked to drain.
func (cp *campaign) heartbeat(worker string, held []int, now time.Time) (drain bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.workerLocked(worker).seen = now
	for _, idx := range held {
		if idx < 0 || idx >= len(cp.state) {
			continue
		}
		if holders := cp.leases[idx]; holders != nil {
			if _, ok := holders[worker]; ok {
				holders[worker] = now.Add(cp.leaseTTL)
			}
		}
	}
	return cp.drains[worker]
}

// drain marks a worker for retirement; its next lease poll or heartbeat
// learns about it. The long-pollers are woken so an idle worker drains
// immediately rather than at the end of its poll window.
func (cp *campaign) drain(worker string) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.drains[worker] {
		return
	}
	cp.drains[worker] = true
	cp.logf("dist: drain requested for worker %s", worker)
	cp.broadcastLocked()
}

// release returns one worker's lease on a job to the pending pool (the
// worker declined it: a canceled attempt it will not retry, or a
// graceful drain handing back its unstarted bundle remainder).
func (cp *campaign) release(idx int, worker string) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if idx < 0 || idx >= len(cp.state) || cp.state[idx] == stateDone {
		return
	}
	if holders := cp.leases[idx]; holders != nil {
		if _, ok := holders[worker]; ok {
			delete(holders, worker)
			cp.broadcastLocked()
		}
	}
}

// voteKey derives the ballot a result casts: the run's integrity hash
// for successes (two workers agree iff their runs fingerprint
// byte-identically), the error class for failures (two workers that both
// hit a permanent failure agree on "the job fails", not on its text).
func voteKey(w exp.WireResult, res exp.Result) string {
	if res.Err != nil {
		return "err:" + exp.Classify(res.Err).String()
	}
	return w.RunSHA
}

// vote records one worker's result for job idx as a ballot in that job's
// election and accepts the first ballot to reach a majority of the
// replica count. With replicas == 1 every election is decided by its
// first vote, which reduces exactly to the pre-quorum first-result-wins
// behavior. The journal write happens before the job is marked done, so
// an acknowledged acceptance is always durable; a journal failure clears
// the tally guard and surfaces as a 5xx, and the worker's retry re-enters
// the tally through the duplicate-vote path. Dissenting ballots — cast
// before or after acceptance — are charged against their workers' health
// ledgers.
func (cp *campaign) vote(idx int, res exp.Result, worker, key string) error {
	now := time.Now()
	cp.mu.Lock()
	if cp.aborted {
		cp.mu.Unlock()
		return nil
	}
	if cp.quarantinedLocked(worker, now) {
		// Acked but not evidence: a quarantined worker's ballots are
		// exactly what the quarantine exists to keep out of elections.
		cp.logf("dist: dropping result for job %d from quarantined worker %s", idx, worker)
		cp.mu.Unlock()
		return nil
	}
	ws := cp.workerLocked(worker)
	ws.seen = now
	prior, dup := cp.votes[idx][worker]
	if dup {
		key = prior // a duplicate delivery cannot switch ballots
	} else {
		if cp.votes[idx] == nil {
			cp.votes[idx] = make(map[string]string)
		}
		cp.votes[idx][worker] = key
		if cp.ballots[idx] == nil {
			cp.ballots[idx] = make(map[string]voteOutcome)
		}
		if _, ok := cp.ballots[idx][key]; !ok {
			cp.ballots[idx][key] = voteOutcome{res: res, worker: worker}
		}
		if holders := cp.leases[idx]; holders != nil {
			delete(holders, worker)
		}
		ws.done++
		ws.ewma = ewma(ws.ewma, res.Wall)
		cp.ewma = ewma(cp.ewma, res.Wall)
		if res.Err != nil && exp.Classify(res.Err) == exp.ClassPanic {
			cp.strikeLocked(worker, cp.health.WPanic, fmt.Sprintf("panic-class result on job %d", idx), now)
		}
	}
	if cp.state[idx] == stateDone {
		// Late ballot: the election is over, but agreement is still
		// evidence — a straggler disagreeing with the accepted result is
		// as suspect as a dissenting voter.
		if !dup && cp.accepted[idx] != "" && key != cp.accepted[idx] {
			ws.dissents++
			cp.strikeLocked(worker, cp.health.WDissent, fmt.Sprintf("late dissent on job %d", idx), now)
		}
		cp.mu.Unlock()
		return nil
	}
	bestKey, best := "", 0
	counts := make(map[string]int, len(cp.votes[idx]))
	for _, k := range cp.votes[idx] {
		counts[k]++
		if counts[k] > best {
			bestKey, best = k, counts[k]
		}
	}
	if best < cp.replicas/2+1 {
		// Election still open. Wake the long-pollers: a fresh dissenting
		// ballot can raise this job's wanted-lease count.
		cp.broadcastLocked()
		cp.mu.Unlock()
		return nil
	}
	if cp.tallying[idx] {
		// Another request is journaling this election's winner.
		cp.mu.Unlock()
		return nil
	}
	cp.tallying[idx] = true
	winner := cp.ballots[idx][bestKey]
	journal := cp.journal
	voters := make(map[string]string, len(cp.votes[idx]))
	for w, k := range cp.votes[idx] {
		voters[w] = k
	}
	cp.mu.Unlock()

	if journal != nil {
		if err := journal.Record(idx, winner.res); err != nil {
			cp.mu.Lock()
			cp.tallying[idx] = false
			cp.mu.Unlock()
			return fmt.Errorf("dist: journal: %w", err)
		}
		if cp.replicas > 1 {
			for w, k := range voters {
				if err := journal.RecordVote(idx, w, k, bestKey); err != nil {
					cp.logf("dist: journal: vote record for job %d: %v", idx, err)
					break
				}
			}
		}
	}

	cp.mu.Lock()
	if cp.state[idx] == stateDone || cp.aborted {
		cp.tallying[idx] = false
		cp.mu.Unlock()
		return nil
	}
	cp.state[idx] = stateDone
	cp.accepted[idx] = bestKey
	cp.tallying[idx] = false
	delete(cp.leases, idx) // stragglers still running report as late ballots
	r := winner.res
	r.Job = cp.jobs[idx]
	cp.results[idx] = r
	cp.done++
	if r.Err != nil {
		cp.failed++
	}
	if r.Attempts > 1 {
		cp.retries += r.Attempts - 1
	}
	cp.jobWall += r.Wall
	for w, k := range voters {
		if k != bestKey {
			dws := cp.workerLocked(w)
			dws.dissents++
			cp.logf("dist: quorum on job %d: worker %s dissented (%s vs accepted %s)", idx, w, k, bestKey)
			cp.strikeLocked(w, cp.health.WDissent, fmt.Sprintf("lost quorum vote on job %d", idx), now)
		}
	}
	done, failed, resumed := cp.done, cp.failed, cp.resumed
	total := len(cp.jobs)
	elapsed := time.Since(cp.start)
	if done == total && !cp.finishedNow() {
		close(cp.finished)
	}
	cp.broadcastLocked()
	cp.mu.Unlock()

	if cp.onProgress != nil {
		cp.progressMu.Lock()
		cp.onProgress(exp.Progress{
			Done: done, Failed: failed, Total: total,
			Executed: done - resumed,
			Job:      r.Job, Err: r.Err,
			Wall: r.Wall, Elapsed: elapsed,
			ETA:    progressETA(done-resumed, done, total, elapsed),
			Worker: winner.worker,
		})
		cp.progressMu.Unlock()
	}
	return nil
}

// ewma folds one new observation into a runtime average (seeding from the
// first observation).
func ewma(prev, obs time.Duration) time.Duration {
	if prev <= 0 {
		return obs
	}
	return time.Duration(ewmaAlpha*float64(obs) + (1-ewmaAlpha)*float64(prev))
}

// abort ends the campaign early; unfinished jobs become ErrCanceled.
func (cp *campaign) abort() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.finishedNow() {
		return
	}
	cp.aborted = true
	for i := range cp.state {
		if cp.state[i] != stateDone {
			cp.results[i].Err = exp.ErrCanceled
			cp.failed++
		}
	}
	close(cp.finished)
	cp.broadcastLocked()
}

// assemble returns the submission-ordered results and campaign metrics.
func (cp *campaign) assemble() ([]exp.Result, exp.Metrics, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m := exp.Metrics{
		Jobs: len(cp.jobs), Failed: cp.failed, Resumed: cp.resumed,
		Retries: cp.retries, Elapsed: time.Since(cp.start), JobWall: cp.jobWall,
	}
	return cp.results, m, nil
}

// statusLocked assembles the Status snapshot, autoscaling hints included.
// Callers hold cp.mu.
func (cp *campaign) statusLocked(now time.Time) Status {
	s := Status{
		SetFP: cp.setFP, Total: len(cp.jobs),
		Done: cp.done, Failed: cp.failed, Resumed: cp.resumed,
		Workers: len(cp.workers),
		Leases:  cp.leaseGrants, MaxBundle: cp.maxBundle,
		Finished: cp.finishedNow(),
	}
	if cp.replicas > 1 {
		s.Replicas = cp.replicas
	}
	for idx, st := range cp.state {
		if st == stateDone {
			continue
		}
		if len(cp.leases[idx]) > 0 {
			s.Leased++
		} else {
			s.Pending++
		}
	}
	held := make(map[string]int, len(cp.workers))
	// active tracks the lowest-indexed job each worker holds: workers
	// execute bundles in lease order, so that is the job on its CPU now
	// (or next). Min over indexes keeps the label deterministic despite
	// map iteration order.
	active := make(map[string]int, len(cp.workers))
	for idx, holders := range cp.leases {
		for w := range holders {
			held[w]++
			if cur, ok := active[w]; !ok || idx < cur {
				active[w] = idx
			}
		}
	}
	for name, ws := range cp.workers {
		quarantined := cp.quarantinedLocked(name, now)
		draining := cp.drains[name]
		if draining {
			s.Draining++
		}
		if quarantined {
			s.Quarantined++
		} else if now.Sub(ws.seen) <= cp.leaseTTL && !draining {
			s.Slots += ws.slots
		}
		row := WorkerStatus{
			Name: name, Slots: ws.slots, Held: held[name],
			Done: ws.done, EWMAMS: ws.ewma.Milliseconds(),
			CN:          ws.cn,
			Fleet:       ws.fleet,
			Draining:    draining,
			Score:       cp.scoreLocked(ws, now),
			Quarantined: quarantined,
			Dissents:    ws.dissents,
			Integrity:   ws.integrity,
			Expiries:    ws.expiries,
		}
		if ws.ewma > 0 {
			row.Throughput = float64(time.Second) / float64(ws.ewma)
		}
		if idx, ok := active[name]; ok {
			row.Job = cp.jobs[idx].String()
		}
		s.PerWorker = append(s.PerWorker, row)
	}
	s.ETAMS = progressETA(cp.done-cp.resumed, cp.done, len(cp.jobs), now.Sub(cp.start)).Milliseconds()
	s.WantWorkers = cp.wantWorkersLocked()
	return s
}

// wantWorkersLocked computes the autoscaling hint: the worker-slot count
// that would drain the remaining jobs within the scale horizon at the
// campaign's observed per-job runtime. No observation yet (or nothing
// left to do) means no hint. Callers hold cp.mu.
func (cp *campaign) wantWorkersLocked() int {
	remaining := len(cp.jobs) - cp.done
	if remaining <= 0 || cp.finishedNow() || cp.ewma <= 0 {
		return 0
	}
	n := int(math.Ceil(float64(remaining) * float64(cp.ewma) / float64(cp.scaleHorizon)))
	if n < 1 {
		n = 1
	}
	if n > remaining {
		n = remaining
	}
	return n
}

// progressETA mirrors the engine's ETA derivation (exp.Metrics.Throughput
// over executed jobs) for the coordinator's lease-aware progress stream.
func progressETA(executed, done, total int, elapsed time.Duration) time.Duration {
	tput := exp.Metrics{Jobs: done, Resumed: done - executed, Elapsed: elapsed}.Throughput()
	if tput <= 0 || total <= done {
		return 0
	}
	return time.Duration(float64(total-done) / tput * float64(time.Second))
}

// ---- HTTP handlers ----

// errNoCampaign is served (as 503) while no campaign is installed; workers
// treat it as "not yet" and retry.
var errNoCampaign = errors.New("dist: no active campaign")

// campaignFor returns the active campaign, or nil.
func (c *Coordinator) campaignFor() *campaign {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.camp
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "dist: bad request body: %v", err)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.campaignFor()
	if cp == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", errNoCampaign)
		return
	}
	if req.Version != ProtocolVersion {
		cp.logf("dist: refused worker %s: protocol version %d, want %d", req.Worker, req.Version, ProtocolVersion)
		httpError(w, http.StatusConflict, "dist: protocol version %d, coordinator speaks %d (stale binary?)", req.Version, ProtocolVersion)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "dist: join without a worker name")
		return
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	cn := ""
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		cn = r.TLS.PeerCertificates[0].Subject.CommonName
	}
	cp.mu.Lock()
	ws := cp.workerLocked(req.Worker)
	ws.seen = time.Now()
	ws.slots = slots
	ws.cn = cn
	ws.fleet = req.Fleet
	nWorkers := len(cp.workers)
	cp.mu.Unlock()
	if cn != "" {
		cp.logf("dist: worker %s joined with client cert CN %q (%d known)", req.Worker, cn, nWorkers)
	} else {
		cp.logf("dist: worker %s joined (%d known)", req.Worker, nWorkers)
	}
	rep := joinReply{SetFP: cp.setFP, Total: len(cp.jobs), LeaseTTLMS: cp.leaseTTL.Milliseconds()}
	if len(cp.jobs) > 0 {
		rep.Probe, rep.ProbeFP = &cp.jobs[0], cp.fps[0]
	}
	reply(w, rep)
}

// checkSet validates a request's campaign fingerprint against the active
// campaign, writing the HTTP error itself on mismatch.
func (c *Coordinator) checkSet(w http.ResponseWriter, setFP string) *campaign {
	cp := c.campaignFor()
	if cp == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", errNoCampaign)
		return nil
	}
	if setFP != cp.setFP {
		httpError(w, http.StatusConflict, "dist: job-set fingerprint %s does not match campaign %s", setFP, cp.setFP)
		return nil
	}
	return cp
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	hold := time.Duration(req.WaitMS) * time.Millisecond
	if hold <= 0 || hold > c.opts.LongPoll {
		hold = c.opts.LongPoll
	}
	deadline := time.NewTimer(hold)
	defer deadline.Stop()
	for {
		now := time.Now()
		cp.mu.Lock()
		if cp.finishedNow() {
			cp.workerLocked(req.Worker).acked++
			cp.broadcastLocked() // wake the post-completion linger
			cp.mu.Unlock()
			reply(w, leaseReply{Done: true})
			return
		}
		cp.reclaimLocked(now)
		cp.workerLocked(req.Worker).seen = now
		if cp.drains[req.Worker] {
			cp.mu.Unlock()
			reply(w, leaseReply{Drain: true})
			return
		}
		// A quarantined worker stays in the long-poll loop (so it learns
		// promptly when the campaign finishes, or when its probation
		// ends) but is never granted a lease.
		// Nor is a request whose worker has hung up (a drain cancels its
		// lease polls): a bundle granted now would sit unseen until its
		// leases expire.
		if !cp.quarantinedLocked(req.Worker, now) && r.Context().Err() == nil {
			if taken := cp.takeLocked(req.Worker, now, cp.bundleSizeLocked(req.Worker, req.BundleMS)); len(taken) > 0 {
				bundle := make([]leasedJob, len(taken))
				for i, idx := range taken {
					job := cp.jobs[idx]
					bundle[i] = leasedJob{Index: idx, Job: &job, JobFP: cp.fps[idx]}
				}
				cp.mu.Unlock()
				reply(w, leaseReply{Jobs: bundle})
				return
			}
		}
		ch := cp.changed
		cp.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			reply(w, leaseReply{Wait: true})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	idx := req.Result.Index
	if idx < 0 || idx >= len(cp.jobs) {
		httpError(w, http.StatusBadRequest, "dist: result index %d out of range", idx)
		return
	}
	if req.Result.Job != cp.fps[idx] {
		httpError(w, http.StatusConflict, "dist: result for job %d carries fingerprint %s, want %s (stale binary?)", idx, req.Result.Job, cp.fps[idx])
		return
	}
	res, err := req.Result.Decode()
	if err != nil {
		// An integrity-hash failure is a health event, not just a bad
		// request: the sender shipped a payload it could not have
		// believed in. Strike it and free its lease for re-assignment.
		var ie *exp.IntegrityError
		if errors.As(err, &ie) {
			now := time.Now()
			cp.mu.Lock()
			cp.workerLocked(req.Worker).integrity++
			cp.strikeLocked(req.Worker, cp.health.WIntegrity, fmt.Sprintf("integrity-hash failure on job %d", idx), now)
			if holders := cp.leases[idx]; holders != nil {
				if _, held := holders[req.Worker]; held {
					delete(holders, req.Worker)
					cp.broadcastLocked()
				}
			}
			cp.mu.Unlock()
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A canceled attempt is not an outcome — the worker died mid-job or
	// declined it; put the job back up for lease.
	if res.Err != nil && exp.Classify(res.Err) == exp.ClassCanceled {
		cp.release(idx, req.Worker)
		reply(w, struct{}{})
		return
	}
	if err := cp.vote(idx, res, req.Worker, voteKey(req.Result, res)); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	reply(w, struct{}{})
}

// handleRelease hands a draining worker's unstarted leases back so they
// re-lease immediately instead of waiting out the TTL.
func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	for _, idx := range req.Indexes {
		cp.release(idx, req.Worker)
	}
	released := len(req.Indexes)
	// Handing leases back without results is a worker's goodbye — mark it
	// draining so status reflects it, the linger does not wait for it, and
	// a lease poll of its still unwinding is refused rather than granted.
	cp.mu.Lock()
	cp.drains[req.Worker] = true
	if req.All {
		unlisted := 0
		for idx, holders := range cp.leases {
			if _, ok := holders[req.Worker]; ok && cp.state[idx] != stateDone {
				delete(holders, req.Worker)
				unlisted++
			}
		}
		if unlisted > 0 {
			released += unlisted
			cp.broadcastLocked()
		}
	}
	cp.mu.Unlock()
	if released > 0 {
		cp.logf("dist: worker %s released %d leases", req.Worker, released)
	}
	reply(w, struct{}{})
}

// handleDrain marks a worker for retirement on a supervisor's behalf: the
// worker's next lease poll or heartbeat carries the drain flag.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req drainRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "dist: drain without a worker name")
		return
	}
	cp := c.campaignFor()
	if cp == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", errNoCampaign)
		return
	}
	cp.drain(req.Worker)
	reply(w, struct{}{})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	drain := cp.heartbeat(req.Worker, req.Held, time.Now())
	reply(w, heartbeatReply{Drain: drain})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	cp := c.campaignFor()
	if cp == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", errNoCampaign)
		return
	}
	cp.mu.Lock()
	s := cp.statusLocked(time.Now())
	cp.mu.Unlock()
	s.RejectedCNs = c.rejectedCNs.Load()
	reply(w, s)
}
