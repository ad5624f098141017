package dist

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// ClientOptions is the transport side of the coordinator's hardening
// knobs, shared by workers and status clients: the bearer token matching
// Options.AuthToken, and how to trust a TLS coordinator. Setting any TLS
// field makes bare host:port addresses dial https instead of http.
type ClientOptions struct {
	// AuthToken is sent as `Authorization: Bearer <token>` on every
	// request; required when the coordinator sets Options.AuthToken.
	AuthToken string
	// TLSCACert is a PEM file whose certificates are trusted in place of
	// the system roots — the way a worker trusts a self-signed
	// coordinator certificate.
	TLSCACert string
	// TLSSkipVerify disables server-certificate verification. Test and
	// lab use only: it keeps the transport encrypted but not
	// authenticated.
	TLSSkipVerify bool
	// TLSCert and TLSKey are a PEM client-certificate pair presented to
	// a mutual-TLS coordinator (Options.TLSClientCA); setting them also
	// makes bare addresses dial https.
	TLSCert string
	TLSKey  string
	// Wrap, when non-nil, wraps the constructed transport — the hook the
	// chaos package's fault injector plugs into. Ignored when HTTPClient
	// is set (wrap that client's transport yourself).
	Wrap func(http.RoundTripper) http.RoundTripper
	// HTTPClient overrides the constructed client entirely (tests,
	// custom transports). The other TLS fields and Wrap are ignored when
	// set.
	HTTPClient *http.Client
}

// useTLS reports whether addresses without an explicit scheme should be
// dialed over https. Callers supplying their own HTTPClient pass a
// scheme-qualified URL instead.
func (co ClientOptions) useTLS() bool {
	return co.TLSCACert != "" || co.TLSSkipVerify || (co.TLSCert != "" && co.TLSKey != "")
}

// baseURL normalizes a coordinator address into a scheme-qualified base
// URL with no trailing slash.
func (co ClientOptions) baseURL(addr string) string {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		scheme := "http"
		if co.useTLS() {
			scheme = "https"
		}
		base = scheme + "://" + base
	}
	return base
}

// Client builds the HTTP client the options describe (HTTPClient itself when
// set). TLS options get a fresh transport, with its own connection pool, on
// every call: a poll loop calls Client once and keeps the result in
// HTTPClient, or every poll opens — and strands — a new connection.
func (co ClientOptions) Client() (*http.Client, error) {
	if co.HTTPClient != nil {
		return co.HTTPClient, nil
	}
	var transport http.RoundTripper
	if co.useTLS() {
		cfg := &tls.Config{MinVersion: tls.VersionTLS12}
		if co.TLSSkipVerify {
			cfg.InsecureSkipVerify = true
		}
		if co.TLSCACert != "" {
			pem, err := os.ReadFile(co.TLSCACert)
			if err != nil {
				return nil, fmt.Errorf("dist: read TLS CA cert: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				return nil, fmt.Errorf("dist: no certificates in %s", co.TLSCACert)
			}
			cfg.RootCAs = pool
		}
		if co.TLSCert != "" || co.TLSKey != "" {
			cert, err := tls.LoadX509KeyPair(co.TLSCert, co.TLSKey)
			if err != nil {
				return nil, fmt.Errorf("dist: load client TLS keypair: %w", err)
			}
			cfg.Certificates = []tls.Certificate{cert}
		}
		transport = &http.Transport{TLSClientConfig: cfg}
	}
	if co.Wrap != nil {
		transport = co.Wrap(transport)
	}
	return &http.Client{Transport: transport}, nil
}

// authorize attaches the bearer token, if any.
func (co ClientOptions) authorize(req *http.Request) {
	if co.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+co.AuthToken)
	}
}

// StatusErrKind classifies why a status fetch failed, so a consumer of the
// feed (ilsim-sweep -watch, the benchmark) branches on a kind instead of
// matching error strings.
type StatusErrKind int

const (
	// StatusUnreachable is a transport failure: connection refused, DNS,
	// timeout — the coordinator may be gone, restarting, or partitioned.
	StatusUnreachable StatusErrKind = iota
	// StatusNotReady is HTTP 503: the coordinator is up but no campaign
	// is installed yet. Normal startup noise; retry.
	StatusNotReady
	// StatusDenied is HTTP 401/403: credentials or certificate CN
	// refused. Retrying with the same credentials cannot help.
	StatusDenied
	// StatusProtocol is any other refusal or an undecodable body — a
	// version or configuration problem.
	StatusProtocol
)

func (k StatusErrKind) String() string {
	switch k {
	case StatusUnreachable:
		return "unreachable"
	case StatusNotReady:
		return "not-ready"
	case StatusDenied:
		return "denied"
	default:
		return "protocol"
	}
}

// StatusError is the typed failure FetchStatus returns: the kind drives
// retry policy, the wrapped error keeps the detail.
type StatusError struct {
	Addr string
	Kind StatusErrKind
	Err  error
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("dist: status from %s (%s): %v", e.Addr, e.Kind, e.Err)
}

func (e *StatusError) Unwrap() error { return e.Err }

// StatusKindOf extracts the classification from a FetchStatus error;
// non-StatusError values (nil included) report as StatusProtocol.
func StatusKindOf(err error) (StatusErrKind, bool) {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Kind, true
	}
	return StatusProtocol, false
}

// FetchStatus retrieves one GET /status snapshot from the coordinator at
// addr (host:port, or a full http(s):// base URL) — the feed behind
// ilsim-sweep -watch. Failures come back as *StatusError, classified.
func FetchStatus(ctx context.Context, addr string, co ClientOptions) (Status, error) {
	statusErr := func(kind StatusErrKind, err error) error {
		return &StatusError{Addr: addr, Kind: kind, Err: err}
	}
	client, err := co.Client()
	if err != nil {
		return Status{}, statusErr(StatusProtocol, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, co.baseURL(addr)+"/status", nil)
	if err != nil {
		return Status{}, statusErr(StatusProtocol, err)
	}
	co.authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		return Status{}, statusErr(StatusUnreachable, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusServiceUnavailable:
		return Status{}, statusErr(StatusNotReady, errors.New(resp.Status))
	case resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden:
		return Status{}, statusErr(StatusDenied, errors.New(resp.Status))
	default:
		return Status{}, statusErr(StatusProtocol, errors.New(resp.Status))
	}
	var s Status
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return Status{}, statusErr(StatusProtocol, fmt.Errorf("decode: %w", err))
	}
	return s, nil
}
