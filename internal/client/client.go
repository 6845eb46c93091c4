// Package client is the typed Go client for the eyeballserve /v1 API,
// built to stay correct while the server misbehaves: every call runs
// deadline-aware retries with full-jitter exponential backoff (a
// deterministic schedule under a seeded rng), honors the server's
// Retry-After on shed responses, spends from a client-wide retry
// budget so retries cannot amplify an outage, and routes through a
// per-endpoint circuit breaker (closed/open/half-open with a single
// probe). Idempotent GETs can optionally be hedged: a second attempt
// races the first when it is slow, first success wins.
//
// Every failure is typed — ErrNotFound, ErrOverloaded, ErrCircuitOpen,
// ErrRetryBudgetExhausted, ErrUnavailable, or an *APIError — so
// callers classify outcomes with errors.Is, never string matching.
// The Observer hook sees one event per wire attempt (status, X-Chaos
// marker, transport error), which is how the chaos e2e harness
// reconciles the client's view against the server's injection ledger.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"eyeballas/internal/rng"
)

// Attempt is one wire-level try, reported to the Observer before the
// retry decision is made. Status is 0 when the attempt died in
// transport (the client-side signature of the serve-drop chaos point);
// Chaos carries the server's X-Chaos header when the response was
// fault-injected.
type Attempt struct {
	Endpoint string
	Status   int
	Chaos    string
	Hedged   bool
	Err      error
}

// Options configures a Client. The zero value of every field selects
// a production-reasonable default.
type Options struct {
	// HTTPClient issues the actual requests. Defaults to a dedicated
	// client (never http.DefaultClient, whose transport the process
	// may have tuned for other traffic).
	HTTPClient *http.Client

	// MaxAttempts bounds wire attempts per call, first try included.
	// Default 4.
	MaxAttempts int

	// MaxBackoff bounds the full-jitter exponential backoff: retry n
	// sleeps uniform in [0, min(MaxBackoff, baseBackoff<<(n-1))].
	// Default 2s.
	MaxBackoff time.Duration

	// Seed makes the jitter stream deterministic: two clients with the
	// same seed draw identical backoff schedules. The zero seed is a
	// valid stream, not "random".
	Seed uint64

	// Breaker tunes the per-endpoint circuit breakers.
	Breaker BreakerConfig

	// HedgeAfter arms hedged GETs: when a GET has produced no response
	// after this long, a second identical attempt races it and the
	// first success wins. 0 disables hedging. Non-idempotent requests
	// are never hedged.
	HedgeAfter time.Duration

	// Observer, when set, receives every wire attempt.
	Observer func(Attempt)

	// Now and Sleep are the clock seams. Tests inject both; production
	// leaves them nil for time.Now and a context-aware timer sleep.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

// endpoints is the fixed breaker partition: one circuit per logical
// endpoint so a broken footprint renderer cannot open the healthz
// circuit.
var endpoints = [...]string{"healthz", "as", "lookup", "footprint", "reload"}

// Client is a typed eyeballserve API client. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opts Options

	budget   *retryBudget
	breakers map[string]*breaker

	mu  sync.Mutex // guards rng
	rng rng.SplitMix
}

// New builds a client for the server at baseURL (scheme://host:port,
// no trailing slash required).
func New(baseURL string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	c := &Client{
		base:     strings.TrimRight(baseURL, "/"),
		hc:       opts.HTTPClient,
		opts:     opts,
		budget:   &retryBudget{tokens: retryBudgetInit},
		breakers: make(map[string]*breaker, len(endpoints)),
		rng:      rng.NewSplitMix(opts.Seed),
	}
	for _, ep := range endpoints {
		c.breakers[ep] = newBreaker(opts.Breaker, opts.Now)
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BreakerState reports an endpoint's circuit state as a string
// (closed, open, half-open) — introspection for tests and operators.
func (c *Client) BreakerState(endpoint string) string {
	b := c.breakers[endpoint]
	if b == nil {
		return "unknown"
	}
	return b.snapshot().String()
}

// Health is the /healthz response.
type Health struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	ASes       int    `json:"ases"`
	Peers      int    `json:"peers"`
	Degraded   bool   `json:"degraded"`
}

// Healthz fetches liveness and the serving artifact summary.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	body, err := c.call(ctx, "healthz", http.MethodGet, "/healthz")
	if err != nil {
		return nil, err
	}
	return decodeInto[Health]("healthz", body)
}

// ASInfo is the /v1/as/{asn} classification record.
type ASInfo struct {
	ASN     int `json:"asn"`
	Users   int `json:"users"`
	Samples int `json:"samples"`
	Class   struct {
		Level string  `json:"level"`
		Place string  `json:"place"`
		Share float64 `json:"share"`
	} `json:"class"`
	Region      string         `json:"region"`
	P90GeoErrKm float64        `json:"p90_geoerr_km"`
	PeersByApp  map[string]int `json:"peers_by_app"`
}

// AS fetches one AS's classification record. ErrNotFound when the AS
// is not in the dataset.
func (c *Client) AS(ctx context.Context, asn int) (*ASInfo, error) {
	body, err := c.call(ctx, "as", http.MethodGet, fmt.Sprintf("/v1/as/%d", asn))
	if err != nil {
		return nil, err
	}
	return decodeInto[ASInfo]("as", body)
}

// LookupResult is the /v1/lookup response.
type LookupResult struct {
	IP        string `json:"ip"`
	Matched   bool   `json:"matched"`
	ASN       int    `json:"asn"`
	InDataset bool   `json:"in_dataset"`
}

// Lookup resolves an IPv4 address to its origin AS via the server's
// compiled LPM table.
func (c *Client) Lookup(ctx context.Context, ip string) (*LookupResult, error) {
	body, err := c.call(ctx, "lookup", http.MethodGet, "/v1/lookup?ip="+ip)
	if err != nil {
		return nil, err
	}
	return decodeInto[LookupResult]("lookup", body)
}

// MaxBandwidthKm mirrors the server's bandwidth ceiling
// (serve.MaxBandwidthKm — a test pins the two constants equal): a
// ?bw= outside (0, MaxBandwidthKm] would only earn a 400 from the
// server, so the client rejects it before the wire. NaN and ±Inf fail
// the same envelope.
const MaxBandwidthKm = 5000

// validBW reports whether bw is inside the request envelope: 0 (use
// the server default) or a finite value in (0, MaxBandwidthKm].
func validBW(bw float64) bool {
	return bw == 0 || (bw > 0 && bw <= MaxBandwidthKm)
}

// errBadBW builds the client-side rejection for an out-of-envelope
// bandwidth. NaN, ±Inf, negatives, and > MaxBandwidthKm all land here.
func errBadBW(bw float64) error {
	return fmt.Errorf("client: bad bandwidth %g (want 0 for server default, or 0 < bw <= %d km)", bw, MaxBandwidthKm)
}

// Footprint fetches an AS's PoP-level footprint as the server's
// canonical JSON bytes, unparsed — byte-for-byte comparable across
// servers, which the chaos harness exploits. bw 0 uses the server's
// default bandwidth; anything else must be finite and in
// (0, MaxBandwidthKm], mirroring the server's own validation.
func (c *Client) Footprint(ctx context.Context, asn int, bw float64) ([]byte, error) {
	if !validBW(bw) {
		return nil, errBadBW(bw)
	}
	path := fmt.Sprintf("/v1/footprint/%d", asn)
	if bw > 0 {
		path += fmt.Sprintf("?bw=%g", bw)
	}
	return c.call(ctx, "footprint", http.MethodGet, path)
}

// footprintsBatchSize bounds how many ASNs one bulk request carries;
// larger requests are split into sequential batches, results
// concatenated in order.
const footprintsBatchSize = 64

// Footprints fetches many ASes' footprints through the server's bulk
// endpoint (GET /v1/footprints), batching footprintsBatchSize ASNs per
// request. The result has exactly one entry per requested ASN, in
// request order; each entry is the raw line the server streamed —
// byte-identical to what Footprint would have returned for that AS,
// including the trailing newline, with per-AS errors (unknown AS,
// render failure) arriving inline as the server's JSON error payload
// rather than failing the whole batch. Only whole-request failures
// (transport, shed, bad input) return an error.
func (c *Client) Footprints(ctx context.Context, asns []int, bw float64) ([][]byte, error) {
	if !validBW(bw) {
		return nil, errBadBW(bw)
	}
	if len(asns) == 0 {
		return nil, fmt.Errorf("client: footprints: no ASNs given")
	}
	for _, asn := range asns {
		if asn < 0 {
			return nil, fmt.Errorf("client: footprints: bad ASN %d", asn)
		}
	}
	out := make([][]byte, 0, len(asns))
	for start := 0; start < len(asns); start += footprintsBatchSize {
		batch := asns[start:min(start+footprintsBatchSize, len(asns))]
		var sb strings.Builder
		sb.WriteString("/v1/footprints?asns=")
		for i, asn := range batch {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(asn))
		}
		if bw > 0 {
			fmt.Fprintf(&sb, "&bw=%g", bw)
		}
		body, err := c.call(ctx, "footprint", http.MethodGet, sb.String())
		if err != nil {
			return nil, err
		}
		lines := splitLines(body)
		if len(lines) != len(batch) {
			return nil, fmt.Errorf("client: footprints: server returned %d lines for %d ASNs", len(lines), len(batch))
		}
		out = append(out, lines...)
	}
	return out, nil
}

// splitLines cuts a newline-delimited body into lines, each keeping
// its trailing newline (the server terminates every line, so a
// well-formed body splits exactly).
func splitLines(body []byte) [][]byte {
	var lines [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			lines = append(lines, body)
			break
		}
		lines = append(lines, body[:i+1])
		body = body[i+1:]
	}
	return lines
}

// ReloadResult is the POST /-/reload response.
type ReloadResult struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	RolledBack bool   `json:"rolled_back"`
}

// Reload asks the server to hot-swap to the re-read artifact file.
// A reload that rolled back to the last-known-good artifact returns
// an *APIError whose decoded body set RolledBack — surfaced via the
// error message; the pinned generation keeps serving.
func (c *Client) Reload(ctx context.Context) (*ReloadResult, error) {
	body, err := c.call(ctx, "reload", http.MethodPost, "/-/reload")
	if err != nil {
		return nil, err
	}
	return decodeInto[ReloadResult]("reload", body)
}

// Get fetches an arbitrary server path with the full retry discipline,
// returning the raw response body. The breaker endpoint is inferred
// from the path; unknown paths share the healthz circuit.
func (c *Client) Get(ctx context.Context, path string) ([]byte, error) {
	return c.call(ctx, endpointOf(path), http.MethodGet, path)
}

func endpointOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/as/"):
		return "as"
	case strings.HasPrefix(path, "/v1/lookup"):
		return "lookup"
	case strings.HasPrefix(path, "/v1/footprint/"),
		strings.HasPrefix(path, "/v1/footprints"):
		return "footprint"
	case strings.HasPrefix(path, "/-/reload"):
		return "reload"
	}
	return "healthz"
}

func decodeInto[T any](endpoint string, body []byte) (*T, error) {
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("client: %s: decoding response: %w", endpoint, err)
	}
	return v, nil
}

// attemptResult is one wire attempt's outcome.
type attemptResult struct {
	status     int
	body       []byte
	chaos      string
	retryAfter int // parsed Retry-After seconds, 0 when absent
	err        error
}

// call runs the full resilience pipeline for one logical request.
func (c *Client) call(ctx context.Context, endpoint, method, path string) ([]byte, error) {
	br := c.breakers[endpoint]
	c.budget.deposit()

	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.budget.withdraw() {
				return nil, fmt.Errorf("%w (endpoint %s): %v", ErrRetryBudgetExhausted, endpoint, lastErr)
			}
			if err := c.pause(ctx, attempt, lastErr); err != nil {
				return nil, err
			}
		}
		if !br.allow() {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (endpoint %s): %v", ErrCircuitOpen, endpoint, lastErr)
			}
			return nil, fmt.Errorf("%w (endpoint %s)", ErrCircuitOpen, endpoint)
		}

		res := c.attempt(ctx, endpoint, method, path)

		switch {
		case res.err != nil:
			br.report(true)
			if ctx.Err() != nil {
				// The caller's deadline, not the server, killed the
				// attempt: surface the context error undisguised.
				return nil, ctx.Err()
			}
			lastErr = fmt.Errorf("%w (endpoint %s): %v", ErrUnavailable, endpoint, res.err)
		case res.status >= 200 && res.status < 300:
			br.report(false)
			return res.body, nil
		default:
			apiErr := &APIError{
				Endpoint: endpoint,
				Status:   res.status,
				Message:  errorMessage(res.body),
				Chaos:    res.chaos,
			}
			// 4xx means the server is healthy and the answer is final;
			// only server-side failure classes count against the
			// breaker or earn a retry.
			retryable := res.status >= 500
			br.report(retryable)
			if !retryable {
				return nil, apiErr
			}
			apiErr.retryAfterHint = res.retryAfter
			lastErr = apiErr
		}
	}
	return nil, lastErr
}

// retryAfterHint rides on APIError internally so pause can honor the
// server's Retry-After without re-parsing headers.
type retryAfterCarrier interface{ retryAfterSeconds() int }

func (e *APIError) retryAfterSeconds() int { return e.retryAfterHint }

// pause sleeps before a retry: full-jitter backoff, raised to the
// server's Retry-After when one was given, and skipped entirely —
// returning the prior error — when the caller's deadline cannot
// outlive the wait (deadline-aware retries never sleep into a wall).
func (c *Client) pause(ctx context.Context, retry int, lastErr error) error {
	c.mu.Lock()
	wait := backoff(&c.rng, baseBackoff, c.opts.MaxBackoff, retry)
	c.mu.Unlock()
	if rc, ok := lastErr.(retryAfterCarrier); ok {
		if ra := time.Duration(rc.retryAfterSeconds()) * time.Second; ra > wait {
			wait = ra
		}
	}
	if deadline, ok := ctx.Deadline(); ok && c.opts.Now().Add(wait).After(deadline) {
		return lastErr
	}
	if err := c.opts.Sleep(ctx, wait); err != nil {
		return err
	}
	return nil
}

// attempt performs one wire attempt, hedged when armed and idempotent.
func (c *Client) attempt(ctx context.Context, endpoint, method, path string) attemptResult {
	if c.opts.HedgeAfter <= 0 || method != http.MethodGet {
		return c.roundTrip(ctx, endpoint, method, path, false)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptResult, 2)
	go func() { ch <- c.roundTrip(hctx, endpoint, method, path, false) }()
	timer := time.NewTimer(c.opts.HedgeAfter)
	defer timer.Stop()
	inflight := 1
	for {
		select {
		case res := <-ch:
			if res.err == nil && res.status >= 200 && res.status < 300 {
				return res // first success wins; cancel() reaps the loser
			}
			inflight--
			if inflight == 0 {
				return res
			}
			// A failure with the hedge still running: let the hedge
			// decide the attempt.
		case <-timer.C:
			inflight++
			go func() { ch <- c.roundTrip(hctx, endpoint, method, path, true) }()
		}
	}
}

// roundTrip is the single-request primitive: one HTTP exchange, one
// Observer event. Attempts canceled by hedging (not by the caller)
// are not observed — they are bookkeeping, not outcomes.
func (c *Client) roundTrip(ctx context.Context, endpoint, method, path string, hedged bool) attemptResult {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return attemptResult{err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == context.Canceled {
			// Canceled, not failed: a reaped hedge loser or a caller
			// that walked away. Not an outcome; invisible to the
			// Observer so ledgers stay exact.
			return attemptResult{err: err}
		}
		c.observe(Attempt{Endpoint: endpoint, Err: err, Hedged: hedged})
		return attemptResult{err: err}
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(resp.Body)
	if readErr != nil {
		c.observe(Attempt{Endpoint: endpoint, Err: readErr, Hedged: hedged})
		return attemptResult{err: readErr}
	}
	res := attemptResult{
		status: resp.StatusCode,
		body:   body,
		chaos:  resp.Header.Get("X-Chaos"),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil && n > 0 {
			res.retryAfter = n
		}
	}
	c.observe(Attempt{Endpoint: endpoint, Status: res.status, Chaos: res.chaos, Hedged: hedged})
	return res
}

func (c *Client) observe(a Attempt) {
	if c.opts.Observer != nil {
		c.opts.Observer(a)
	}
}

// errorMessage extracts the server's JSON error field, falling back to
// a body prefix for non-JSON responses.
func errorMessage(body []byte) string {
	var m struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &m); err == nil && m.Error != "" {
		return m.Error
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}

// retryBudget is the Finagle-style token bucket that keeps retries
// from amplifying an outage: every logical call deposits
// retryBudgetRatio tokens, every retry withdraws one, so sustained
// retry traffic is at most that fraction of the base request rate. The
// bucket starts with a small float so cold clients can still retry
// their first few failures.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
}

const (
	retryBudgetRatio = 0.2
	retryBudgetInit  = 10.0
	retryBudgetCap   = 100.0
)

func (b *retryBudget) deposit() {
	b.mu.Lock()
	b.tokens += retryBudgetRatio
	if b.tokens > retryBudgetCap {
		b.tokens = retryBudgetCap
	}
	b.mu.Unlock()
}

func (b *retryBudget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
