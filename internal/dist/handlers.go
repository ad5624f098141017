package dist

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// The HTTP adapter: authenticate, decode, call the campaign, map its typed
// refusals to status codes, encode. No protocol decision lives here.

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
		cn := peerCN(r)
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

// campaignFor returns the active campaign, or nil.
func (c *Coordinator) campaignFor() *campaign {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.camp
}

// peerCN returns the verified client certificate's CommonName ("" without
// mutual TLS).
func peerCN(r *http.Request) string {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		return r.TLS.PeerCertificates[0].Subject.CommonName
	}
	return ""
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// refusalStatus maps the campaign's refusal kinds to status codes.
var refusalStatus = [...]int{
	refuseMalformed: http.StatusBadRequest,
	refuseStale:     http.StatusConflict,
	refuseJournal:   http.StatusInternalServerError,
	refuseNotReady:  http.StatusServiceUnavailable,
}

// refuse writes err with the status code its refusal kind maps to (500 for
// an untyped error).
func refuse(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var ref *refusal
	if errors.As(err, &ref) {
		code = refusalStatus[ref.kind]
	}
	http.Error(w, err.Error(), code)
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// serve is the shape every POST endpoint shares: decode the body into a
// Req, run the campaign-free validation (which must come first — a stale
// worker is refused 409 even before a campaign installs), find the campaign,
// call it, and encode the reply or refusal.
func serve[Req, Rep any](c *Coordinator, w http.ResponseWriter, r *http.Request,
	validate func(Req) error, call func(*campaign, Req) (Rep, error)) {
	var req Req
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "dist: bad request body: %v", err)
		return
	}
	if validate != nil {
		if err := validate(req); err != nil {
			c.opts.Logf("dist: refused %s from %s: %v", r.URL.Path, r.RemoteAddr, err)
			refuse(w, err)
			return
		}
	}
	cp := c.campaignFor()
	if cp == nil {
		refuse(w, errNoCampaign)
		return
	}
	rep, err := call(cp, req)
	if err != nil {
		refuse(w, err)
		return
	}
	reply(w, rep)
}

// ack is the empty JSON reply of the endpoints that only acknowledge.
type ack struct{}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, validateJoin, func(cp *campaign, req joinRequest) (joinReply, error) {
		return cp.join(req, peerCN(r), time.Now()), nil
	})
}

// handleLease long-polls: while the campaign has nothing for this worker it
// waits for the next state change, up to the (capped) hold the worker asked
// for. A request whose worker has hung up (a drain cancels its lease polls)
// is not offered a job: a grant now would sit unseen until its lease
// expires (or the worker's closing /release hands it back).
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, nil, func(cp *campaign, req leaseRequest) (leaseReply, error) {
		hold := time.Duration(req.WaitMS) * time.Millisecond
		if hold <= 0 || hold > c.opts.LongPoll {
			hold = c.opts.LongPoll
		}
		deadline := time.NewTimer(hold)
		defer deadline.Stop()
		for r.Context().Err() == nil {
			rep, changed, err := cp.lease(req, time.Now())
			if err != nil || changed == nil {
				return rep, err
			}
			select {
			case <-changed:
			case <-deadline.C:
				return rep, nil // Wait: poll again
			case <-r.Context().Done():
			}
		}
		return leaseReply{Wait: true}, nil // nobody is listening
	})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, nil, func(cp *campaign, req resultRequest) (leaseReply, error) {
		return cp.result(req, time.Now())
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, nil, func(cp *campaign, req heartbeatRequest) (ack, error) {
		return ack{}, cp.heartbeat(req, time.Now())
	})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, nil, func(cp *campaign, req releaseRequest) (ack, error) {
		return ack{}, cp.release(req)
	})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	cp := c.campaignFor()
	if cp == nil {
		refuse(w, errNoCampaign)
		return
	}
	s := cp.status(time.Now())
	s.RejectedCNs = c.rejectedCNs.Load()
	reply(w, s)
}
