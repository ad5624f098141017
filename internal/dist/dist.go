// Package dist distributes experiment campaigns across machines. A
// Coordinator owns one declarative job set (the same []exp.Job a local
// engine would run), serves it over HTTP as short-lived leases, and
// assembles the streamed-back results in submission order — so a
// distributed campaign is byte-identical, fingerprint for fingerprint, to
// the same job set run in one process. Workers wrap an ordinary
// exp.Engine: watchdog budgets and panic isolation apply per job on the
// worker, which runs each leased job once and reports whatever it ended in.
// The coordinator never re-runs a reported failure — the simulator is
// deterministic — it only re-leases jobs whose worker went silent
// (heartbeats stop, lease deadline passes).
//
// A lease carries exactly one job and a job has at most one lease; a worker
// with N slots holds up to N leases at once, one per slot. The first valid
// result for a job is accepted and journaled; a later one is acknowledged
// and dropped.
//
// The protocol is six JSON-over-HTTP endpoints:
//
//	POST /join       version + probe-fingerprint handshake; stale binaries refused
//	POST /lease      long-poll for one job (index, job, fingerprint)
//	POST /result     stream back one exp.WireResult (integrity-hashed); the
//	                 reply is the slot's next lease
//	POST /heartbeat  keep held leases alive
//	POST /release    a departing worker's goodbye: hands every held lease back
//	GET  /status     campaign counters plus per-worker throughput
//
// The code is split along one seam. campaign.go and result.go are the
// protocol as a pure state machine: join, lease, result, release, heartbeat
// and status are methods that take plain values and the current time and
// return replies or typed refusals — no sockets, so lease expiry and
// reassignment are tested with a fake clock. handlers.go is the HTTP adapter
// (authenticate, decode, call, map refusals to status codes, encode) and
// coordinator.go the listener, TLS set-up and campaign lifecycle.
//
// Each defence answers a fault that happens. Every result is integrity-hash
// checked at decode, and a payload that fails is refused and its lease
// freed; the protocol version, the join probe and every lease's job
// fingerprint refuse a stale binary; a silent worker's lease expires and
// its job is reassigned. A worker that computes a different stats.Run from
// the same job — bad hardware, or a build from another commit — is not
// detected, any more than a bad host running the local engine is: build the
// coordinator and the workers from one commit. internal/chaos supplies a
// deterministic fault-injecting transport that exercises the worker's side
// of all of this.
//
// Transport hardening is opt-in: Options.TLSCert/TLSKey serve the
// endpoints over TLS (self-signed works — point workers at the cert with
// ClientOptions.TLSCACert), Options.AuthToken requires a shared bearer
// token on every request, checked in constant time, and
// Options.TLSClientCA demands client certificates (mutual TLS) — the
// worker's certificate CN is then recorded in its WorkerStatus.
//
// Durability is the journal's: attach an exp.Journal to the coordinator
// and every accepted result is fsynced before it is acknowledged, so a
// killed coordinator resumes mid-campaign exactly like a local -resume
// run — the journal file format is the same.
package dist

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ilsim/internal/exp"
)

// ProtocolVersion gates the coordinator/worker handshake; both sides must
// match exactly. Bump it on any wire-visible change.
//
// History: 1 = single-job leases; 2 = bundled leases (leaseReply.Jobs),
// bundle targets in leaseRequest, autoscaling fields in Status; 3 =
// POST /release (graceful drain), quorum re-execution (multi-worker
// leases per job), worker-health fields in Status; 4 = fleet labels
// in the join handshake and Status, coordinator-mediated drain (POST
// /drain, drain flags on lease and heartbeat replies); 5 = single-job
// leases again (leaseReply carries one job, leaseRequest no bundle
// target, /release hands back everything the worker holds, Status drops
// its lease/bundle counters); 6 = one drain path (POST /drain and the
// drain flags on lease and heartbeat replies are gone — a supervisor
// stops the worker it launched, and /heartbeat answers the empty ack),
// and one completion handshake per worker, not per slot: the worker that
// reads a Done reply stops all its slots and posts /release; 7 = the
// supervisor is gone: no fleet label in the join handshake or Status, no
// wanted-slots hint in Status; 8 = a job runs once: exp.WireResult drops
// its attempts count; 9 = one lease per job: quorum re-execution and the
// worker health ledger are gone, and with them their fields in Status and
// WorkerStatus; 10 = a /result reply carries the slot's next lease (a
// leaseReply, answered at once, never long-polled) unless the request says
// the worker is draining, so a slot posts /lease only for its first job and
// after a Wait.
const ProtocolVersion = 10

// Defaults for the lease lifecycle. LeaseTTL bounds how long a silent
// worker keeps a job before it is reassigned; workers heartbeat at a third
// of the TTL, so one lost heartbeat does not forfeit a lease.
const (
	DefaultLeaseTTL = 30 * time.Second
	DefaultLongPoll = 10 * time.Second
)

// joinRequest opens a worker's session with the coordinator. Slots is the
// worker's concurrent lease-poll count, the capacity Status.Slots sums.
type joinRequest struct {
	Version int    `json:"version"`
	Worker  string `json:"worker"`
	Slots   int    `json:"slots"`
}

// joinReply fixes the campaign identity for the session. Probe is one job
// of the set with the coordinator's fingerprint for it: the worker
// recomputes the fingerprint from the decoded job, and a mismatch — the
// mark of a stale worker binary whose job encoding drifted — aborts the
// session before any lease is granted.
type joinReply struct {
	SetFP      string   `json:"setFp"`
	Total      int      `json:"total"`
	LeaseTTLMS int64    `json:"leaseTtlMs"`
	Probe      *exp.Job `json:"probe,omitempty"`
	ProbeFP    string   `json:"probeFp,omitempty"`
}

// leaseRequest asks for a job, long-polling up to WaitMS when none is
// available.
type leaseRequest struct {
	Worker string `json:"worker"`
	SetFP  string `json:"setFp"`
	WaitMS int64  `json:"waitMs"`
}

// leaseReply grants one job — its submission index, the job itself, and
// the coordinator's fingerprint for it (re-verified by the worker) — or asks
// the worker to poll again (Wait), or ends the session (Done — the campaign
// is complete; the worker that reads one stops all its slots and posts
// /release).
type leaseReply struct {
	Done  bool     `json:"done,omitempty"`
	Wait  bool     `json:"wait,omitempty"`
	Index int      `json:"index,omitempty"`
	Job   *exp.Job `json:"job,omitempty"`
	JobFP string   `json:"jobFp,omitempty"`
}

// resultRequest streams one finished job back. Its reply is the slot's next
// lease — the grant, Wait or Done a lease poll would answer at once — or,
// when Draining says the worker takes no more jobs, an empty leaseReply.
type resultRequest struct {
	Worker   string         `json:"worker"`
	SetFP    string         `json:"setFp"`
	Result   exp.WireResult `json:"result"`
	Draining bool           `json:"draining,omitempty"`
}

// heartbeatRequest renews the deadlines of every lease the worker holds.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	SetFP  string `json:"setFp"`
	Held   []int  `json:"held"`
}

// releaseRequest is a departing worker's last word, sent once nothing is
// executing — after a drain, or after reading a Done reply: every lease the
// coordinator still holds in its name goes back to the pending pool now
// instead of at TTL expiry. That covers the grant the worker never saw —
// its reply was in flight when the drain cut the lease poll short.
type releaseRequest struct {
	Worker string `json:"worker"`
	SetFP  string `json:"setFp"`
}

// WorkerStatus is one worker's row in the Status snapshot.
type WorkerStatus struct {
	Name string `json:"name"`
	// Slots is the concurrency the worker declared at join.
	Slots int `json:"slots"`
	// Held counts the leases the worker currently holds (at most one per
	// slot).
	Held int `json:"held"`
	// Job labels the lowest-indexed job the worker currently holds; empty
	// when the worker holds nothing.
	Job string `json:"job,omitempty"`
	// Done counts results the coordinator accepted from this worker.
	Done int `json:"done"`
	// EWMAMS is the exponentially weighted moving average of the worker's
	// observed per-job runtime, in milliseconds — the estimate behind
	// Throughput.
	EWMAMS int64 `json:"ewmaMs"`
	// Throughput is the worker's estimated rate in jobs per second
	// (1/EWMA; 0 until a first result establishes an estimate).
	Throughput float64 `json:"throughput"`
	// CN is the CommonName of the worker's client certificate when the
	// coordinator runs mutual TLS; empty otherwise.
	CN string `json:"cn,omitempty"`
	// Draining reports that the worker said goodbye via POST /release — it
	// drained, or the campaign finished — and takes no further leases.
	Draining bool `json:"draining,omitempty"`
}

// Status is the GET /status snapshot: campaign counters plus the queue
// depth, per-worker throughput and ETA an operator needs to decide whether
// to add or remove a worker. ilsim-sweep -watch prints it.
type Status struct {
	SetFP   string `json:"setFp"`
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Resumed int    `json:"resumed"`
	// Pending is the queue depth: jobs not yet leased to any worker.
	Pending int `json:"pending"`
	// Leased is the lease backlog: jobs currently held by workers.
	Leased int `json:"leased"`
	// Workers counts every worker ever seen; Slots sums the declared
	// concurrency of workers seen within the last lease TTL (the live
	// fleet's capacity).
	Workers int `json:"workers"`
	Slots   int `json:"slots"`
	// ETAMS estimates the time to drain the remaining jobs at the
	// campaign's observed throughput (0 until a rate is established).
	ETAMS    int64 `json:"etaMs"`
	Finished bool  `json:"finished"`
	// Draining counts workers that said goodbye (posted /release); their
	// slots are excluded from Slots.
	Draining int `json:"draining,omitempty"`
	// RejectedCNs counts requests refused by the certificate ACL
	// (Options.AllowedCNs) since the coordinator started.
	RejectedCNs int64 `json:"rejectedCNs,omitempty"`
	// PerWorker is one row per worker ever seen, in coordinator map order
	// (sort before displaying).
	PerWorker []WorkerStatus `json:"perWorker,omitempty"`
}

// Summary renders the one-line form of the snapshot, the first line of
// Table.
func (s Status) Summary() string {
	line := fmt.Sprintf("dist: %d/%d done (%d failed, %d resumed), %d pending, %d leased, %d workers/%d slots",
		s.Done, s.Total, s.Failed, s.Resumed, s.Pending, s.Leased, s.Workers, s.Slots)
	if s.ETAMS > 0 {
		line += fmt.Sprintf(", eta %s", (time.Duration(s.ETAMS) * time.Millisecond).Round(100*time.Millisecond))
	}
	if s.Draining > 0 {
		line += fmt.Sprintf(", %d draining", s.Draining)
	}
	if s.RejectedCNs > 0 {
		line += fmt.Sprintf(", %d CN-rejected", s.RejectedCNs)
	}
	if s.Finished {
		line += ", finished"
	}
	return line
}

// Table renders the multi-line operator view ilsim-sweep -watch prints:
// the Summary plus one row per worker, sorted by name.
func (s Status) Table() string {
	var b strings.Builder
	b.WriteString(s.Summary())
	b.WriteByte('\n')
	rows := append([]WorkerStatus(nil), s.PerWorker...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for _, ws := range rows {
		name := ws.Name
		if ws.CN != "" && ws.CN != ws.Name {
			name += " (" + ws.CN + ")"
		}
		fmt.Fprintf(&b, "  %-24s slots %-3d held %-3d done %-4d ewma %-8s %.2f jobs/s",
			name, ws.Slots, ws.Held, ws.Done,
			(time.Duration(ws.EWMAMS) * time.Millisecond).Round(time.Millisecond), ws.Throughput)
		if ws.Job != "" {
			fmt.Fprintf(&b, "  on %s", ws.Job)
		}
		if ws.Draining {
			b.WriteString("  DRAINING")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
