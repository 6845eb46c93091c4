// Package serve is the query layer over snapshot artifacts: an HTTP
// server that loads a versioned binary snapshot (internal/snapshot) at
// startup and answers classification, origin-lookup, and footprint
// queries from it — the "compile offline, serve online" split that
// turns the paper's batch methodology into an operable system.
//
// Operational properties:
//
//   - Hot swap. The current artifact lives behind one atomic pointer.
//     A reload (SIGHUP or POST /-/reload) parses and fully validates
//     the new artifact off to the side and only then swaps the pointer;
//     in-flight requests keep the artifact pointer they loaded at entry
//     and finish on the old snapshot. A reload that fails validation —
//     truncated, checksum-corrupt, version-skewed — leaves the old
//     artifact serving and reports the typed snapshot error.
//
//   - Adaptive load shedding. An AIMD concurrency limiter (limiter.go)
//     bounds concurrently served requests: the limit opens at
//     MaxInflight, backs off multiplicatively while the request-latency
//     EWMA sits above the target, and recovers additively when latency
//     is healthy. Excess requests are shed immediately with 503 and a
//     Retry-After derived from the observed drain rate (clamped to
//     [1, 30]) rather than queueing without bound. /healthz and the
//     reload endpoint are exempt so probes and operators get through
//     under overload.
//
//   - Panic containment. A recovery middleware inside the serving
//     discipline converts handler panics into a 500 with a metric and
//     a flight-recorder event; the process survives. The one panic it
//     re-raises is http.ErrAbortHandler — the stdlib contract for
//     "sever this connection silently", which the serve-drop chaos
//     point uses.
//
//   - Deterministic chaos. When armed with a faults.Plan (chaos.go),
//     a middleware injects serve-slow / serve-500 / serve-panic /
//     serve-drop faults whose decisions are pure splitmix64 functions
//     of (seed, point, request sequence) — replayable, and accounted
//     in an injection ledger the chaos e2e harness reconciles against
//     the client's observations. Chaos off is one branch per request.
//
//   - Refused reloads. A reload checks the decoded replacement —
//     validate's structural checks, then the reload-fail chaos point —
//     before it installs anything. A replacement that fails is refused
//     (a "rollback" in the metrics and the reload response): the
//     serving artifact, its generation, its cached bodies and its warm
//     pass stay exactly as they were, and the refusal is counted.
//
//   - Bounded caching. Rendered footprints — the one expensive query,
//     a full KDE grid per call — live in one render table keyed by
//     (generation, ASN, bandwidth) (table.go): a key is either a render
//     in flight, which concurrent requests for it join instead of
//     rendering again, or a finished body, evicted past the bound by
//     what it would cost to render again and how often it was asked
//     for (GreedyDual-Frequency). Each install drops the bodies of
//     every other generation.
//
//   - Deadlines. Footprint requests run under a per-request context
//     timeout; the footprint estimator observes cancellation at KDE
//     block boundaries, so a stuck query returns 504 instead of holding
//     an admission slot forever. The other routes never block, so they
//     run without one.
//
// Every response the data endpoints produce is rendered by the same
// code paths the offline tools use (RenderFootprint's, over points
// prepared at install, in particular), so
// served bytes are bit-identical to eyeballpipe's exports for the same
// dataset — proven end to end in CI.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/kde"
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/snapshot"
	"eyeballas/internal/trace"
)

// Options configure a Server. Zero fields take the listed defaults.
type Options struct {
	// Timeout bounds each footprint request's handling (default 5s;
	// negative disables). Only the footprint routes can block, on a
	// render, so the other routes take no deadline.
	Timeout time.Duration
	// MaxInflight is the adaptive limiter's ceiling on concurrently
	// served data requests; excess requests are shed with 503 (default
	// 64; negative disables shedding entirely).
	MaxInflight int
	// TargetLatency is the service-latency target the adaptive limiter
	// holds its EWMA against: sustained latency above it shrinks the
	// admission limit multiplicatively (default 250ms).
	TargetLatency time.Duration
	// Chaos arms serve-path fault injection (nil — the default — is
	// chaos fully off at the cost of one branch per request). Build
	// one with NewChaos; swap at runtime with SetChaos.
	Chaos *Chaos
	// CacheSize bounds the rendered-footprint cache in entries (default
	// 128; negative disables caching, while concurrent renders of one
	// key still coalesce). Past the bound the table evicts the body
	// cheapest to render again, weighed by its hits (see renderTable).
	CacheSize int
	// BandwidthKm is the footprint bandwidth used when a request does
	// not pass ?bw= (default 40, the paper's kernel).
	BandwidthKm float64
	// Warm enables the background footprint warmer: after every
	// artifact install (startup load or reload) a warm pass renders, at
	// the default bandwidth, the top min(CacheSize, ASes) dataset ASes
	// by user count, most-used first, so steady-state traffic starts on
	// a cache holding the ASes it asks for most instead of a 504 storm.
	// With caching disabled it renders nothing. The pass is cancelled by
	// the next install and by Close.
	Warm bool
	// WarmWorkers bounds concurrent warm renders (default 1): the warm
	// pass runs on that many of the shared pool's workers. Warm renders
	// bypass the admission limiter entirely but pause while live traffic
	// holds a significant share of the admission limit.
	WarmWorkers int
	// Obs receives request metrics; nil disables instrumentation.
	Obs *obs.Registry
	// Tracer records one request-scoped trace per request into its
	// flight recorder, inspectable at /debug/requests and
	// /debug/trace/{id}; nil disables tracing (the per-request cost is
	// then a single branch). Response bytes are bit-identical either
	// way — tracing is a read-only side channel.
	Tracer *trace.Tracer
	// AccessLog receives one structured line per request (route,
	// status, outcome, duration, trace ID); nil disables access
	// logging.
	AccessLog *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.BandwidthKm == 0 {
		o.BandwidthKm = 40
	}
	if o.WarmWorkers <= 0 {
		o.WarmWorkers = 1
	}
	return o
}

// Artifact is one installed snapshot: the parsed artifact plus the path
// it came from (the reload target) and its install generation.
type Artifact struct {
	Snap *snapshot.Snapshot
	Path string
	Gen  uint64

	// points holds every AS's samples prepared for estimation, built
	// once at install and shared by every render of this generation at
	// every bandwidth. An AS with no samples has no entry.
	points map[astopo.ASN]*core.Points
}

// preparePoints prepares the samples of every AS in ds. It walks the
// record map rather than the order, which Load does not check.
func preparePoints(ds *pipeline.Dataset) map[astopo.ASN]*core.Points {
	points := make(map[astopo.ASN]*core.Points, len(ds.ASes))
	for asn, rec := range ds.ASes {
		if rec == nil {
			continue
		}
		if pts, err := core.Prepare(rec.Samples); err == nil {
			points[asn] = pts
		}
	}
	return points
}

// Server answers queries from the currently installed Artifact. Create
// with New, install an artifact with Load or LoadFile, and mount
// Handler on an http.Server.
type Server struct {
	opts Options
	art  atomic.Pointer[Artifact]

	lim     *limiter
	renders *renderTable
	chaos   atomic.Pointer[Chaos]

	// render is the footprint-render seam: renderServed in
	// production, an instrumented hook in tests that count or stall
	// renders. Every render — handler leader, bulk line, warm pass —
	// goes through it, with the AS's prepared points, and returns the
	// body with its cost in KDE cells.
	render renderFunc

	// mu serializes the artifact lifecycle — Load, Reload and Close —
	// and guards what it changes: generation assignment, the reload
	// counter the reload-fail point draws on, the running warm pass and
	// closed. Readers never take it.
	mu        sync.Mutex
	nextGen   uint64
	reloadSeq uint64
	warmStop  context.CancelFunc // cancels the running warm pass; nil when none runs
	warmDone  chan struct{}      // closed once the running pass's workers exit
	closed    bool
}

// renderFunc is the signature of the footprint renderer the server
// dispatches to (renderServed unless a test overrides it). pts is the
// AS's entry in its artifact's prepared points, nil for an AS without
// samples.
type renderFunc func(ctx context.Context, rec *pipeline.ASRecord, pts *core.Points, bwKm float64, reg *obs.Registry) ([]byte, int, error)

// New creates a server with no artifact installed (healthz reports 503
// until Load succeeds).
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{opts: o, renders: newRenderTable(o.CacheSize, o.Obs), render: renderServed}
	if o.MaxInflight > 0 {
		s.lim = newLimiter(DefaultController(o.MaxInflight, o.TargetLatency))
	}
	if o.Chaos != nil {
		s.chaos.Store(o.Chaos)
	}
	return s
}

// Close cancels the running warm pass (if any) and waits for its
// goroutines to exit. The server keeps answering requests — Close
// tears down background work, not the handler — but no further warm
// passes start. A reload in progress finishes first. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.stopWarm()
}

// SetChaos swaps the serve-path fault injector at runtime (nil turns
// chaos off). In-flight requests keep the injector they loaded at
// entry. The chaos e2e harness uses this to model fault recovery.
func (s *Server) SetChaos(c *Chaos) { s.chaos.Store(c) }

// ChaosState returns the currently armed injector (nil when chaos is off).
func (s *Server) ChaosState() *Chaos { return s.chaos.Load() }

// Load installs a parsed snapshot as the serving artifact, without
// the checks LoadFile and Reload run: the caller built or decoded it.
func (s *Server) Load(snap *snapshot.Snapshot, path string) *Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.install(snap, path)
}

// install makes snap the next generation and points the server at it:
// the render table switches to that generation first, so no render of
// it can finish before the table would cache it, then the artifact and
// its gauges go live and a warm pass starts. Callers hold mu.
func (s *Server) install(snap *snapshot.Snapshot, path string) *Artifact {
	s.nextGen++
	a := &Artifact{Snap: snap, Path: path, Gen: s.nextGen, points: preparePoints(snap.Dataset)}
	s.renders.install(a.Gen)
	s.art.Store(a)
	s.opts.Obs.Gauge("eyeball_serve_snapshot_generation").Set(float64(a.Gen))
	s.opts.Obs.Gauge("eyeball_serve_snapshot_ases").Set(float64(len(a.Snap.Dataset.Order)))
	s.startWarm(a)
	return a
}

// LoadFile reads, validates, and installs a snapshot artifact from
// disk. It runs the structural checks a reload runs (see validate)
// before installing. On error nothing changes: whatever artifact was
// serving keeps serving.
func (s *Server) LoadFile(path string) (*Artifact, error) {
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := validate(snap); err != nil {
		return nil, err
	}
	return s.Load(snap, path), nil
}

// ErrReloadRolledBack is the typed result of a reload whose re-read
// snapshot decoded but failed its checks (validate, or the reload-fail
// chaos point) and was refused before the swap: the last-known-good
// artifact keeps serving. Match with errors.Is.
var ErrReloadRolledBack = errors.New("serve: reload rolled back to last-known-good artifact")

// Reload re-reads the current artifact's file and hot-swaps to it, in
// the order LoadFile uses: read, check, install. In-flight requests
// that started before the swap finish on the artifact they loaded at
// entry.
//
// A file that fails to read or decode — including a snapshot corrupted
// on disk since the last load — returns the typed snapshot error. One
// that decodes but fails validate, or draws the reload-fail chaos
// point, is refused: the error matches ErrReloadRolledBack and the
// refusal counts in eyeball_serve_reload_rollbacks_total. Either way
// nothing is installed, so the serving artifact, its generation, its
// cached bodies and its warm pass stay as they were.
func (s *Server) Reload() (*Artifact, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.art.Load()
	if cur == nil {
		return nil, fmt.Errorf("serve: no artifact installed to reload")
	}
	snap, err := snapshot.ReadFile(cur.Path)
	if err != nil {
		s.opts.Obs.Counter("eyeball_serve_reloads_total", "result", "error").Inc()
		return nil, err
	}
	s.reloadSeq++
	if s.chaos.Load().reloadFails(s.reloadSeq) {
		err = fmt.Errorf("chaos: injected reload validation failure (attempt %d)", s.reloadSeq)
	} else {
		err = validate(snap)
	}
	if err != nil {
		s.opts.Obs.Counter("eyeball_serve_reload_rollbacks_total").Inc()
		s.opts.Obs.Counter("eyeball_serve_reloads_total", "result", "rollback").Inc()
		return nil, fmt.Errorf("%w (generation %d still serving): %v", ErrReloadRolledBack, cur.Gen, err)
	}
	a := s.install(snap, cur.Path)
	s.opts.Obs.Counter("eyeball_serve_reloads_total", "result", "ok").Inc()
	return a, nil
}

// validate checks the structural invariant decode alone cannot rule
// out: the funnel ledger conserves every peer. (The decoder builds the
// AS order from the records themselves and rejects records out of
// order.)
func validate(snap *snapshot.Snapshot) error {
	if f := snap.Dataset.Funnel; f != nil {
		if err := f.Check(); err != nil {
			return fmt.Errorf("serve: artifact funnel ledger inconsistent: %w", err)
		}
	}
	return nil
}

// Artifact returns the currently serving artifact (nil before Load).
func (s *Server) Artifact() *Artifact { return s.art.Load() }

// Handler returns the server's route table:
//
//	GET  /healthz              liveness + artifact summary
//	GET  /v1/as/{asn}          classification record for one AS
//	GET  /v1/lookup?ip=a.b.c.d origin AS of an address (compiled LPM)
//	GET  /v1/footprint/{asn}   PoP-level footprint (?bw= overrides km)
//	GET  /v1/footprints?asns=  bulk footprints, one JSON line per AS
//	POST /-/reload             hot-swap to the re-read artifact file
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.Handle("GET /v1/as/{asn}", s.instrument("as", true, s.handleAS))
	mux.Handle("GET /v1/lookup", s.instrument("lookup", true, s.handleLookup))
	mux.Handle("GET /v1/footprint/{asn}", s.instrument("footprint", true, s.withDeadline(s.handleFootprint)))
	mux.Handle("GET /v1/footprints", s.instrument("footprints", true, s.withDeadline(s.handleFootprints)))
	mux.Handle("POST /-/reload", s.instrument("reload", false, s.handleReload))
	// Diagnostic surfaces ride outside the serving discipline: no
	// shedding, no tracing of the trace-inspection requests themselves.
	if rec := s.opts.Tracer.Recorder(); rec != nil {
		mux.Handle("GET /debug/requests", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.handleDebugList(w, rec.Recent())
		}))
		mux.Handle("GET /debug/requests/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.handleDebugList(w, rec.Slow())
		}))
		mux.Handle("GET /debug/trace/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.handleDebugTrace(w, r, rec)
		}))
	}
	if s.opts.Obs != nil {
		h := s.opts.Obs.HTTPHandler()
		mux.Handle("GET /metrics", h)
		mux.Handle("GET /metrics.json", h)
	}
	return mux
}

// statusWriter records the response code and size for instrumentation,
// and carries the request's root span and outcome to the middleware
// layers (spanOf) without a context hop on the hot path.
type statusWriter struct {
	http.ResponseWriter
	code    int
	n       int
	wrote   bool // a header (explicit or implicit) reached the wire
	outcome string
	span    *trace.Span
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// Flush forwards to the wrapped writer, so a streaming handler's lines
// reach the client as they are written. Embedding alone would hide the
// wrapped writer's http.Flusher. A flush sends the header, so it counts as
// a write.
func (w *statusWriter) Flush() {
	w.wrote = true
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// spanOf returns the root span the middleware attached to this request,
// or nil when tracing is disabled. Composes with the nil-safe span API.
func spanOf(w http.ResponseWriter) *trace.Span {
	if sw, ok := w.(*statusWriter); ok {
		return sw.span
	}
	return nil
}

// withDeadline bounds h by Options.Timeout. Only the footprint handlers
// take it: a render is the one thing a handler can block on, and it
// observes the deadline at KDE block boundaries. instrument calls h
// after admission and serve-slow, so the deadline starts there.
func (s *Server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	if s.opts.Timeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// instrument wraps a handler with the serving discipline, innermost to
// outermost per request: chaos injection (when armed), adaptive load
// shedding (when limited), panic recovery, request/latency metrics,
// and — when configured — the request-scoped trace and the structured
// access-log line. The three records of one request (trace, log line,
// metrics) are emitted from the same deferred block over the same
// statusWriter state, so they cannot disagree about status or outcome.
func (s *Server) instrument(endpoint string, limited bool, h http.HandlerFunc) http.Handler {
	hist := s.opts.Obs.Histogram("eyeball_serve_latency_seconds", obs.LatencyBuckets(), "endpoint", endpoint)
	spanName := "serve." + endpoint
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, outcome: "ok"}
		start := time.Now()
		if s.opts.Tracer != nil {
			// Direct map index under the canonical key (the server
			// canonicalizes inbound header names): Header.Get with a
			// non-canonical key allocates on every request.
			var traceparent string
			if v := r.Header["Traceparent"]; len(v) > 0 {
				traceparent = v[0]
			}
			sw.span = s.opts.Tracer.StartAt(spanName, start, traceparent)
			sw.span.SetStr("route", endpoint)
		}
		// Deferred stack, LIFO: the limiter release (armed below) runs
		// first, panic recovery second — so a recovered panic has its
		// 500 in place — and this metrics/log/span block runs last,
		// reading the final statusWriter state.
		defer func() {
			dur := time.Since(start)
			switch sw.code {
			case http.StatusGatewayTimeout:
				sw.outcome = "timeout"
				s.opts.Obs.Counter("eyeball_serve_timeouts_total", "endpoint", endpoint).Inc()
			default:
				if sw.code >= 500 && sw.outcome == "ok" {
					sw.outcome = "error"
				}
			}
			if sw.span != nil {
				sw.span.SetInt("status", int64(sw.code))
				sw.span.SetStr("outcome", sw.outcome)
				sw.span.SetInt("bytes", int64(sw.n))
				sw.span.EndAt(start.Add(dur))
				hist.ObserveExemplar(dur.Seconds(), sw.span)
			} else {
				hist.Observe(dur.Seconds())
			}
			s.opts.Obs.Counter("eyeball_serve_requests_total",
				"endpoint", endpoint, "code", strconv.Itoa(sw.code)).Inc()
			if s.opts.AccessLog != nil {
				s.logRequest(r, sw, endpoint, sw.outcome, dur)
			}
		}()
		defer s.recoverPanic(sw, endpoint)

		d := decision{idx: -1}
		var chaos *Chaos
		if limited {
			if chaos = s.chaos.Load(); chaos != nil {
				d = chaos.decide()
				if s.applyPre(chaos, d, sw, endpoint) {
					return
				}
			}
		}
		if limited && s.lim != nil {
			ok, retryAfter := s.lim.acquire()
			if !ok {
				sw.outcome = "shed"
				s.opts.Obs.Counter("eyeball_serve_shed_total", "endpoint", endpoint).Inc()
				sw.Header().Set("Retry-After", strconv.Itoa(retryAfter))
				writeJSON(sw, http.StatusServiceUnavailable, map[string]any{
					"error": "overloaded: in-flight request limit reached",
				})
				return
			}
			admitted := time.Now()
			defer func() {
				now := time.Now()
				s.lim.release(now.Sub(admitted), now.UnixNano())
			}()
		}
		if chaos != nil {
			s.applySlow(chaos, d, sw)
		}
		h(sw, r)
	})
}

// recoverPanic is the panic-containment layer: any handler panic —
// injected by the serve-panic chaos point or genuine — is converted
// into a 500 (when nothing has reached the wire yet), a metric, and a
// flight-recorder event on the request's span; the process survives.
// http.ErrAbortHandler is re-raised: it is the stdlib contract for
// severing the connection without a response, and both the serve-drop
// chaos point and deliberate aborts rely on it.
func (s *Server) recoverPanic(sw *statusWriter, endpoint string) {
	rec := recover()
	if rec == nil {
		return
	}
	if rec == http.ErrAbortHandler {
		panic(rec)
	}
	s.opts.Obs.Counter("eyeball_serve_panics_total", "endpoint", endpoint).Inc()
	sw.span.AddEvent(fmt.Sprintf("panic recovered: %v", rec))
	sw.outcome = "panic"
	if !sw.wrote {
		writeError(sw, http.StatusInternalServerError, "internal error: handler panicked: %v", rec)
	} else if sw.code < http.StatusInternalServerError {
		// The response already started; the status on the wire cannot
		// change, but the records of the request must not claim success.
		sw.code = http.StatusInternalServerError
	}
}

// logRequest emits the request's structured access-log line. One line
// per request, same fields in the same order for every endpoint, trace
// ID included whenever tracing is on — the log is the grep-able index
// into the flight recorder.
func (s *Server) logRequest(r *http.Request, sw *statusWriter, endpoint, outcome string, dur time.Duration) {
	attrs := make([]slog.Attr, 0, 8)
	attrs = append(attrs,
		slog.String("route", endpoint),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.code),
		slog.String("outcome", outcome),
		slog.Int("bytes", sw.n),
		slog.Int64("dur_us", dur.Microseconds()),
	)
	if sw.span != nil {
		attrs = append(attrs, slog.String("trace", sw.span.TraceID().String()))
	}
	s.opts.AccessLog.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// errorBody renders the canonical error payload ({"error":"..."} plus
// trailing newline) — the exact bytes writeError puts on the wire. The
// bulk endpoint emits these same bytes as inline per-AS lines, which
// is what makes "bulk output == concatenated single responses" hold
// for error cases too.
func errorBody(format string, args ...any) []byte {
	b, err := json.Marshal(map[string]any{"error": fmt.Sprintf(format, args...)})
	if err != nil {
		// A map[string]any with one string value cannot fail to marshal.
		panic(err)
	}
	return append(b, '\n')
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(errorBody(format, args...))
}

// artifactOr503 resolves the serving artifact once per request; every
// subsequent read in the handler uses this pointer, so a concurrent
// hot swap cannot mix two snapshots within one response.
func (s *Server) artifactOr503(w http.ResponseWriter) *Artifact {
	a := s.art.Load()
	if a == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot loaded")
	}
	return a
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	a := s.art.Load()
	if a == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "loading"})
		return
	}
	ds := a.Snap.Dataset
	resp := map[string]any{
		"status":     "ok",
		"generation": a.Gen,
		"ases":       len(ds.Order),
		"peers":      ds.TotalPeers,
		"degraded":   ds.Degraded,
	}
	if a.Snap.Origins != nil {
		resp["lpm_prefixes"] = a.Snap.Origins.Len()
	}
	writeJSON(w, http.StatusOK, resp)
}

func pathASN(w http.ResponseWriter, r *http.Request) (astopo.ASN, bool) {
	raw := r.PathValue("asn")
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "bad ASN %q", raw)
		return 0, false
	}
	return astopo.ASN(n), true
}

func (s *Server) handleAS(w http.ResponseWriter, r *http.Request) {
	a := s.artifactOr503(w)
	if a == nil {
		return
	}
	asn, ok := pathASN(w, r)
	if !ok {
		return
	}
	spanOf(w).SetInt("generation", int64(a.Gen))
	rec := a.Snap.Dataset.AS(asn)
	if rec == nil {
		writeError(w, http.StatusNotFound, "AS%d not in dataset", asn)
		return
	}
	byApp := map[string]int{}
	for app, n := range rec.PeersByApp {
		byApp[app.String()] = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"asn":     int(rec.ASN),
		"users":   rec.Users,
		"samples": len(rec.Samples),
		"class": map[string]any{
			"level": rec.Class.Level.String(),
			"place": rec.Class.Place,
			"share": rec.Class.Share,
		},
		"region":        string(rec.Region),
		"p90_geoerr_km": rec.P90GeoErrKm,
		"peers_by_app":  byApp,
	})
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	a := s.artifactOr503(w)
	if a == nil {
		return
	}
	spanOf(w).SetInt("generation", int64(a.Gen))
	raw := r.URL.Query().Get("ip")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing ip query parameter")
		return
	}
	addr, err := ipnet.ParseAddr(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ip %q", raw)
		return
	}
	if a.Snap.Origins == nil {
		writeError(w, http.StatusServiceUnavailable, "snapshot carries no origin table")
		return
	}
	asn, ok := a.Snap.Origins.OriginOf(addr)
	resp := map[string]any{"ip": addr.String(), "matched": ok}
	if ok {
		resp["asn"] = int(asn)
		resp["in_dataset"] = a.Snap.Dataset.AS(asn) != nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// MaxBandwidthKm is the largest ?bw= the footprint endpoints accept.
// The KDE grid covers at most an AS's sample bounding box, so a kernel
// wider than a continent only burns CPU blurring a flat surface; 5000
// km comfortably covers every bandwidth the paper sweeps (40–100 km)
// and every plausible re-query (cf. the multi-scale experiments) while
// rejecting +Inf, 1e300 and the like. internal/client mirrors this
// bound.
const MaxBandwidthKm = 5000

// ValidBandwidth reports whether bw lies in (0, MaxBandwidthKm]: the one
// bandwidth rule for ?bw= and for every command-line bandwidth flag.
// NaN and ±Inf fail both comparisons, so neither reaches the KDE.
func ValidBandwidth(bw float64) bool { return bw > 0 && bw <= MaxBandwidthKm }

// parseBW validates a ?bw= query value: it must parse as a float and
// pass ValidBandwidth. Returns the bandwidth to use (the server default
// when the parameter is absent) and ok=false after writing the 400 when
// the value is invalid.
func (s *Server) parseBW(w http.ResponseWriter, raw string) (float64, bool) {
	if raw == "" {
		return s.opts.BandwidthKm, true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || !ValidBandwidth(v) {
		writeError(w, http.StatusBadRequest, "bad bandwidth %q (want 0 < bw <= %d km)", raw, MaxBandwidthKm)
		return 0, false
	}
	return v, true
}

// Cache-result labels: every footprint request that reaches the cache
// layer increments eyeball_serve_footprint_requests_total and exactly
// one result of eyeball_serve_footprint_cache_total — hit (served a
// cached body), miss (this request led the render), or coalesced (this
// request waited on a concurrent render of the same key). The funnel
// invariant hit + miss + coalesced == requests is pinned by tests and
// the CI jq assert. Warm renders increment none of these: they are not
// requests, and a live request that coalesces onto a warm-led render
// still counts itself exactly once (as coalesced).
const (
	cacheHit       = "hit"
	cacheMiss      = "miss"
	cacheCoalesced = "coalesced"
)

// countFootprint records one live footprint request's cache funnel
// step.
func (s *Server) countFootprint(result string) {
	s.opts.Obs.Counter("eyeball_serve_footprint_requests_total").Inc()
	s.opts.Obs.Counter("eyeball_serve_footprint_cache_total", "result", result).Inc()
	if result == cacheCoalesced {
		s.opts.Obs.Counter("eyeball_serve_footprint_coalesced_total").Inc()
	}
}

// footprint produces the response body for one (artifact, AS,
// bandwidth) triple through the render table: a cached body is a hit,
// the first lookup of an absent key leads its render (and alone pays
// the KDE), and lookups while it renders wait on it under their own
// deadlines. Returns the body, the cache result label, and the render's
// (or the wait's) error. Bodies are immutable; callers write them to the
// wire uncopied.
//
// A render that its leader's own deadline or cancellation ended says
// nothing about the key, so a waiter whose context is still alive looks
// the key up again (and leads it, or joins whoever does) instead of
// failing with the leader's context error. The label is the last
// lookup's, so each request still counts one cache result.
//
// sp is the request's span (nil for warm renders and untraced
// requests). Only a leader's render reads it, so the context carries it
// only there and a cache hit allocates nothing for tracing.
func (s *Server) footprint(ctx context.Context, sp *trace.Span, a *Artifact, rec *pipeline.ASRecord, bw float64) ([]byte, string, error) {
	key := cacheKey{gen: a.Gen, asn: rec.ASN, bw: math.Float64bits(bw)}
	for {
		e, result := s.renders.get(key)
		switch result {
		case cacheHit:
			return e.body, result, nil
		case cacheMiss:
			body, err := s.lead(ctx, sp, e, rec, a.points[rec.ASN], bw)
			return body, result, err
		}
		body, err := e.wait(ctx)
		leaderGaveUp := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if !leaderGaveUp || ctx.Err() != nil {
			return body, result, err
		}
	}
}

// lead renders the entry its caller's lookup entered and finishes it on
// every path. A panicking render finishes the entry with an error before
// the panic continues, so its waiters get an answer at once and the key
// does not stay in flight for good; recoverPanic (or the warm pass's
// pool) still sees the panic.
func (s *Server) lead(ctx context.Context, sp *trace.Span, e *entry, rec *pipeline.ASRecord, pts *core.Points, bw float64) ([]byte, error) {
	defer func() {
		if r := recover(); r != nil {
			s.renders.finish(e, nil, 0, fmt.Errorf("render panicked: %v", r))
			panic(r)
		}
	}()
	body, cost, err := s.render(trace.NewContext(ctx, sp), rec, pts, bw, s.opts.Obs)
	s.renders.finish(e, body, cost, err)
	return body, err
}

// footprintBody resolves one AS to the exact bytes the single-footprint
// endpoint would put on the wire — success body or error payload — plus
// the HTTP status that body carries there and the cache-result label
// ("" when the AS is not in the dataset and the cache layer was never
// reached). A bandwidth too small for the AS's extent, whose grid would
// exceed the KDE's cell cap, is the client's error: a 400, not a 500 a
// client would retry. The bulk endpoint streams these same bytes as
// lines, which is what makes bulk output the concatenation of single
// responses, byte for byte.
func (s *Server) footprintBody(ctx context.Context, sp *trace.Span, a *Artifact, asn astopo.ASN, bw float64) ([]byte, int, string) {
	rec := a.Snap.Dataset.AS(asn)
	if rec == nil {
		return errorBody("AS%d not in dataset", asn), http.StatusNotFound, ""
	}
	body, result, err := s.footprint(ctx, sp, a, rec, bw)
	s.countFootprint(result)
	if err != nil {
		if ctx.Err() != nil {
			return errorBody("footprint render timed out: %v", err), http.StatusGatewayTimeout, result
		}
		if errors.Is(err, kde.ErrGridTooLarge) {
			return errorBody("bad bandwidth for AS%d: %v", asn, err), http.StatusBadRequest, result
		}
		return errorBody("footprint render failed: %v", err), http.StatusInternalServerError, result
	}
	return body, http.StatusOK, result
}

func (s *Server) handleFootprint(w http.ResponseWriter, r *http.Request) {
	a := s.artifactOr503(w)
	if a == nil {
		return
	}
	asn, ok := pathASN(w, r)
	if !ok {
		return
	}
	bw, ok := s.parseBW(w, r.URL.Query().Get("bw"))
	if !ok {
		return
	}
	sp := spanOf(w)
	sp.SetInt("asn", int64(asn))
	sp.SetInt("generation", int64(a.Gen))
	body, code, result := s.footprintBody(r.Context(), sp, a, asn, bw)
	if result != "" {
		sp.SetStr("cache", result)
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	w.Write(body)
}

// maxBulkASNs bounds one bulk request's AS list; past it the request
// is a 400, not a slow-rolling denial of service.
const maxBulkASNs = 1024

// handleFootprints is the bulk endpoint: GET /v1/footprints?asns=a,b,c
// streams one line per requested AS, in request order, each line
// byte-identical to the single endpoint's body for that AS — including
// per-AS errors (unknown AS, a bandwidth too small for the AS, render
// failure), which arrive inline as the single endpoint's error payload
// instead of aborting the stream.
// The response is 200 once streaming starts; only whole-request
// problems (bad asns list, bad bw, no artifact) fail up front.
func (s *Server) handleFootprints(w http.ResponseWriter, r *http.Request) {
	a := s.artifactOr503(w)
	if a == nil {
		return
	}
	raw := r.URL.Query().Get("asns")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing asns query parameter (comma-separated AS numbers)")
		return
	}
	// Count before splitting: an over-long list is refused without
	// allocating a string header per entry.
	if n := strings.Count(raw, ",") + 1; n > maxBulkASNs {
		writeError(w, http.StatusBadRequest, "too many ASNs: %d (max %d)", n, maxBulkASNs)
		return
	}
	parts := strings.Split(raw, ",")
	asns := make([]astopo.ASN, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad ASN %q in asns", p)
			return
		}
		asns = append(asns, astopo.ASN(n))
	}
	bw, ok := s.parseBW(w, r.URL.Query().Get("bw"))
	if !ok {
		return
	}

	sp := spanOf(w)
	sp.SetInt("asns", int64(len(asns)))
	sp.SetInt("generation", int64(a.Gen))
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, asn := range asns {
		body, _, _ := s.footprintBody(r.Context(), sp, a, asn, bw)
		if _, err := w.Write(body); err != nil {
			return // client went away; nothing useful left to do
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	a, err := s.Reload()
	if err != nil {
		cur := s.art.Load()
		resp := map[string]any{"error": err.Error()}
		if cur != nil {
			resp["generation"] = cur.Gen // still serving this one
		}
		if errors.Is(err, ErrReloadRolledBack) {
			resp["rolled_back"] = true
		}
		writeJSON(w, http.StatusInternalServerError, resp)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "reloaded", "generation": a.Gen})
}
