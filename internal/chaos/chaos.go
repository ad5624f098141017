// Package chaos injects deterministic, seed-driven network faults into an
// http.RoundTripper — the distributed-sweep counterpart of exp.FaultPlan.
// Where FaultPlan misbehaves inside a job's execution, a chaos.Plan
// misbehaves on the wire between worker and coordinator: dropped and
// duplicated requests, delays, truncated and corrupted response bodies.
// Schedules are reproducible (a Seed drives every probabilistic choice;
// Every-based rules are exactly periodic; nothing reads the wall clock), so
// a campaign run under a given plan either survives byte-identically or
// fails the same way every time — which is what makes the recovery paths
// testable at all.
//
// Faults are asymmetric by design: Drop, Delay and Dup act on requests,
// but Truncate and Corrupt act only on RESPONSE bodies. Corrupting a
// request body would make the coordinator reply 400, which workers
// rightly treat as fatal (a malformed request is a bug, not weather);
// corrupting a response exercises the client-side decode-and-retry path
// without convicting an honest worker.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fault is the set of misbehaviors one Rule can inject. Multiple fields
// may be set; they apply in order: Delay, then Drop (which wins over the
// rest), then Dup, then the response mutations.
type Fault struct {
	// Drop fails the request before it is sent, as a connection error.
	Drop bool
	// Delay sleeps before sending; the request context cuts it short.
	Delay time.Duration
	// Dup sends the request twice (the duplicate first, its response
	// drained and discarded) — the at-least-once delivery hazard every
	// idempotent endpoint must survive.
	Dup bool
	// Truncate cuts the response body in half.
	Truncate bool
	// Corrupt overwrites one response-body byte with a control character,
	// guaranteeing any JSON payload fails to decode.
	Corrupt bool
}

// Rule schedules a Fault on matching requests. Either Every (exactly
// periodic: fires on the Every-th, 2·Every-th, … matching request) or
// Prob (seeded coin flip per matching request) selects when it fires.
// The first firing rule wins for a given request.
type Rule struct {
	// Path matches the request URL path exactly; empty matches all.
	Path string
	// Every fires deterministically on every Every-th matching request
	// (1 = every request). Takes precedence over Prob when > 0.
	Every int
	// Prob fires with this probability per matching request, driven by
	// the plan's seeded RNG.
	Prob float64
	Fault
}

// Plan is a reproducible fault schedule. Build one (or ParsePlan a spec
// string), then wrap a transport with Transport.
type Plan struct {
	// Seed drives every probabilistic choice (Prob rules, Corrupt byte
	// positions). Same seed + same request sequence = same faults.
	Seed int64
	// Rules are checked in order per request; the first that fires wins.
	Rules []Rule
}

// Stats counts what a Transport actually injected — assert on these in
// tests to prove the chaos happened rather than silently matching nothing.
type Stats struct {
	Requests  int
	Drops     int
	Delays    int
	Dups      int
	Truncates int
	Corrupts  int
}

// Transport is the fault-injecting http.RoundTripper a Plan produces.
// Safe for concurrent use; fault selection is serialized so the schedule
// stays deterministic for a deterministic request order.
type Transport struct {
	inner http.RoundTripper
	plan  Plan

	mu     sync.Mutex
	rng    *rand.Rand
	counts []int // per-rule matching-request counters (Every)
	stats  Stats
}

// Transport wraps inner (nil = http.DefaultTransport) with the plan's
// fault schedule. Each call makes an independent transport with its own
// RNG and counters, so two workers sharing a Plan value but not a
// Transport get independent (but individually reproducible) schedules.
func (p Plan) Transport(inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:  inner,
		plan:   p,
		rng:    rand.New(rand.NewSource(p.Seed)),
		counts: make([]int, len(p.Rules)),
	}
}

// Stats returns a snapshot of injected-fault counts.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// errDropped is the connection-style error an injected Drop produces.
type errDropped struct{ path string }

func (e errDropped) Error() string { return "chaos: request to " + e.path + " dropped" }

// RoundTrip applies the schedule to one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	t.mu.Lock()
	t.stats.Requests++
	var fault Fault
	var fired bool
	for i, r := range t.plan.Rules {
		if r.Path != "" && r.Path != path {
			continue
		}
		t.counts[i]++
		if r.Every > 0 {
			fired = t.counts[i]%r.Every == 0
		} else if r.Prob > 0 {
			fired = t.rng.Float64() < r.Prob
		}
		if fired {
			fault = r.Fault
			break
		}
	}
	// Corrupt's target byte is drawn now, under the lock, so the schedule
	// does not depend on response-arrival order.
	corruptDraw := 0.0
	if fired && fault.Corrupt {
		corruptDraw = t.rng.Float64()
	}
	if fired {
		if fault.Delay > 0 {
			t.stats.Delays++
		}
		if fault.Drop {
			t.stats.Drops++
		}
		if fault.Dup {
			t.stats.Dups++
		}
	}
	t.mu.Unlock()

	if !fired {
		return t.inner.RoundTrip(req)
	}
	if fault.Delay > 0 {
		if !sleepContext(req.Context(), fault.Delay) {
			return nil, req.Context().Err()
		}
	}
	if fault.Drop {
		return nil, errDropped{path: path}
	}
	if fault.Dup {
		if clone, err := cloneRequest(req); err == nil {
			if resp, err := t.inner.RoundTrip(clone); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if fault.Truncate || fault.Corrupt {
		if err := t.mangleResponse(resp, fault, corruptDraw); err != nil {
			resp.Body.Close()
			return nil, err
		}
	}
	return resp, nil
}

// mangleResponse rewrites the response body in place: truncation keeps the
// first half; corruption overwrites one byte in the first three quarters
// with 0x01 — a control character, illegal anywhere inside a JSON
// document, so a corrupted JSON response is guaranteed to fail decoding
// rather than sometimes slipping through as a different valid value.
func (t *Transport) mangleResponse(resp *http.Response, fault Fault, draw float64) error {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("chaos: reading response to mangle: %w", err)
	}
	if fault.Truncate && len(body) > 0 {
		body = body[:len(body)/2]
		t.mu.Lock()
		t.stats.Truncates++
		t.mu.Unlock()
	}
	if fault.Corrupt && len(body) > 0 {
		span := len(body) * 3 / 4
		if span == 0 {
			span = len(body)
		}
		body[int(draw*float64(span))%span] = 0x01
		t.mu.Lock()
		t.stats.Corrupts++
		t.mu.Unlock()
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return nil
}

// cloneRequest copies req with a fresh body for duplicate delivery.
// Requests without GetBody (streaming bodies) cannot be duplicated.
func cloneRequest(req *http.Request) (*http.Request, error) {
	clone := req.Clone(req.Context())
	if req.Body == nil || req.Body == http.NoBody {
		return clone, nil
	}
	if req.GetBody == nil {
		return nil, fmt.Errorf("chaos: request body not replayable")
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	clone.Body = body
	return clone, nil
}

// sleepContext sleeps for d or until ctx ends, reporting whether the full
// sleep completed.
func sleepContext(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ParsePlan builds a Plan from a compact comma-separated spec — the
// `-chaos` flag syntax:
//
//	seed=N            RNG seed (default 1)
//	drop=P            drop each request with probability P
//	dup=P             duplicate each request with probability P
//	corrupt=P         corrupt each response body with probability P
//	truncate=P        truncate each response body with probability P
//	delay=DUR:P       delay each request by DUR with probability P
//
// Example: "seed=7,drop=0.1,delay=50ms:0.2".
func ParsePlan(spec string) (Plan, error) {
	plan := Plan{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return plan, fmt.Errorf("chaos: empty plan spec")
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return plan, fmt.Errorf("chaos: bad spec field %q (want key=value)", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return plan, fmt.Errorf("chaos: bad seed %q: %v", val, err)
			}
			plan.Seed = n
		case "drop", "dup", "corrupt", "truncate":
			p, err := parseProb(val)
			if err != nil {
				return plan, fmt.Errorf("chaos: bad %s probability %q: %v", key, val, err)
			}
			f := Fault{Drop: key == "drop", Dup: key == "dup",
				Corrupt: key == "corrupt", Truncate: key == "truncate"}
			plan.Rules = append(plan.Rules, Rule{Prob: p, Fault: f})
		case "delay":
			durStr, probStr, ok := strings.Cut(val, ":")
			if !ok {
				return plan, fmt.Errorf("chaos: bad delay %q (want DUR:PROB)", val)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return plan, fmt.Errorf("chaos: bad delay duration %q", durStr)
			}
			p, err := parseProb(probStr)
			if err != nil {
				return plan, fmt.Errorf("chaos: bad delay probability %q: %v", probStr, err)
			}
			plan.Rules = append(plan.Rules, Rule{Prob: p, Fault: Fault{Delay: d}})
		default:
			return plan, fmt.Errorf("chaos: unknown spec key %q", key)
		}
	}
	return plan, nil
}

// parseProb parses a probability in [0, 1].
func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}
