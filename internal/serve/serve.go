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
//   - Reload rollback. The last-known-good artifact stays pinned: if a
//     hot-swapped snapshot fails post-swap validation (or the
//     reload-fail chaos point fires), the server auto-reverts to the
//     pinned artifact and counts the rollback.
//
//   - Bounded caching. Rendered footprints — the one expensive query,
//     a full KDE grid per call — live in one render table keyed by
//     (generation, ASN, bandwidth) (table.go): a key is either a render
//     in flight, which concurrent requests for it join instead of
//     rendering again, or a finished body on an LRU. The generation in
//     the key makes a hot swap invalidate the cache implicitly.
//
//   - Deadlines. Every request runs under a per-request context
//     timeout; the footprint estimator observes cancellation at KDE
//     block boundaries, so a stuck query returns 504 instead of holding
//     an admission slot forever.
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
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/snapshot"
	"eyeballas/internal/trace"
)

// Options configure a Server. Zero fields take the listed defaults.
type Options struct {
	// Timeout bounds each request's handling (default 5s; negative
	// disables).
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
	// CacheSize bounds the rendered-footprint LRU in entries (default
	// 128; negative disables caching, while concurrent renders of one
	// key still coalesce).
	CacheSize int
	// BandwidthKm is the footprint bandwidth used when a request does
	// not pass ?bw= (default 40, the paper's kernel).
	BandwidthKm float64
	// Warm enables the background footprint warmer: after every
	// artifact install (startup load, reload, rollback) a Warmer
	// renders, at the default bandwidth, the top min(CacheSize, ASes)
	// dataset ASes by user count, most-used first, so steady-state
	// traffic starts on a cache holding the ASes it asks for most
	// instead of a 504 storm. With caching disabled it renders nothing.
	// The warmer is cancelled by the next swap and by Close.
	Warm bool
	// WarmWorkers bounds concurrent warm renders (default 1): the warm
	// pass runs on that many of the shared pool's workers. Warm renders
	// bypass the admission limiter entirely but pause while live traffic
	// holds a significant share of the admission limit.
	WarmWorkers int
	// WarmBudget bounds one warm pass's wall time (0 = unbounded). A
	// pass that exhausts its budget stops where it is; the cache keeps
	// whatever was rendered.
	WarmBudget time.Duration
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
// record map rather than the order, which validate has not yet checked
// when a reload installs.
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
	// goes through it, with the AS's prepared points.
	render renderFunc

	// reloadMu serializes Load/Reload so two concurrent reloads cannot
	// interleave generation assignment; readers never take it.
	reloadMu  sync.Mutex
	nextGen   uint64
	reloadSeq uint64

	// warmMu guards the warmer lifecycle: at most one warm pass runs at
	// a time, the next swap cancels the previous pass before starting
	// its own, and Close cancels whatever is running.
	warmMu sync.Mutex
	warm   *Warmer
	closed bool
}

// renderFunc is the signature of the footprint renderer the server
// dispatches to (renderServed unless a test overrides it). pts is the
// AS's entry in its artifact's prepared points, nil for an AS without
// samples.
type renderFunc func(ctx context.Context, rec *pipeline.ASRecord, pts *core.Points, bwKm float64, reg *obs.Registry) ([]byte, error)

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
// passes start. Idempotent.
func (s *Server) Close() {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	s.closed = true
	if s.warm != nil {
		s.warm.cancel()
		<-s.warm.done
		s.warm = nil
	}
}

// SetChaos swaps the serve-path fault injector at runtime (nil turns
// chaos off). In-flight requests keep the injector they loaded at
// entry. The chaos e2e harness uses this to model fault recovery.
func (s *Server) SetChaos(c *Chaos) { s.chaos.Store(c) }

// ChaosState returns the currently armed injector (nil when chaos is off).
func (s *Server) ChaosState() *Chaos { return s.chaos.Load() }

// Load installs a parsed snapshot as the serving artifact.
func (s *Server) Load(snap *snapshot.Snapshot, path string) *Artifact {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.install(snap, path)
}

func (s *Server) install(snap *snapshot.Snapshot, path string) *Artifact {
	s.nextGen++
	a := &Artifact{Snap: snap, Path: path, Gen: s.nextGen, points: preparePoints(snap.Dataset)}
	s.art.Store(a)
	s.opts.Obs.Gauge("eyeball_serve_snapshot_generation").Set(float64(a.Gen))
	s.opts.Obs.Gauge("eyeball_serve_snapshot_ases").Set(float64(len(snap.Dataset.Order)))
	s.startWarm(a)
	return a
}

// LoadFile reads, validates, and installs a snapshot artifact from
// disk. It runs the structural checks a reload applies after its swap
// (see validate) before installing. On error nothing changes: whatever
// artifact was serving keeps serving.
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

// ErrReloadRolledBack is the typed result of a reload whose swapped-in
// snapshot failed post-swap validation: the server auto-reverted to the
// pinned last-known-good artifact. Match with errors.Is.
var ErrReloadRolledBack = errors.New("serve: reload rolled back to last-known-good artifact")

// Reload re-reads the current artifact's file and hot-swaps to it. The
// swap happens only after the new artifact fully parses and validates;
// on any error — including a snapshot corrupted on disk since the last
// load — the old artifact keeps serving and the typed snapshot error is
// returned. In-flight requests that started before the swap finish on
// the artifact they loaded at entry.
//
// The previously serving artifact stays pinned as last-known-good: if
// the swapped-in snapshot fails validation once live (a structural
// check the decode layer cannot see, or the reload-fail chaos point),
// the server auto-reverts to the pinned artifact, counts the rollback
// in eyeball_serve_reload_rollbacks_total, and returns an error
// matching ErrReloadRolledBack.
func (s *Server) Reload() (*Artifact, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
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
	a := s.install(snap, cur.Path)
	if err := s.verifyLive(a); err != nil {
		// Roll back: re-point at the pinned last-known-good artifact.
		// Requests that grabbed the bad artifact mid-flight finish on
		// it (the standard hot-swap discipline); everything after the
		// revert serves from the pinned one.
		s.art.Store(cur)
		s.opts.Obs.Gauge("eyeball_serve_snapshot_generation").Set(float64(cur.Gen))
		s.opts.Obs.Gauge("eyeball_serve_snapshot_ases").Set(float64(len(cur.Snap.Dataset.Order)))
		// Rewarm under the pinned generation: the rolled-back install
		// started a warm pass for the bad artifact, whose cache entries
		// are unreachable now the generation reverted.
		s.startWarm(cur)
		s.opts.Obs.Counter("eyeball_serve_reload_rollbacks_total").Inc()
		s.opts.Obs.Counter("eyeball_serve_reloads_total", "result", "rollback").Inc()
		return nil, fmt.Errorf("%w (generation %d still serving): %v", ErrReloadRolledBack, cur.Gen, err)
	}
	s.opts.Obs.Counter("eyeball_serve_reloads_total", "result", "ok").Inc()
	return a, nil
}

// verifyLive runs the post-swap validation pass over a just-installed
// artifact: the structural checks of validate, plus the reload-fail
// chaos point, which models exactly this class of "valid bytes, broken
// artifact" failure.
func (s *Server) verifyLive(a *Artifact) error {
	if s.chaos.Load().reloadFails(s.reloadSeq) {
		return fmt.Errorf("chaos: injected reload validation failure (attempt %d)", s.reloadSeq)
	}
	return validate(a.Snap)
}

// validate checks the structural invariants decode alone cannot rule
// out: every AS in the order has a record, the order is strictly
// ascending, and the funnel ledger conserves every peer.
func validate(snap *snapshot.Snapshot) error {
	ds := snap.Dataset
	for i, asn := range ds.Order {
		rec := ds.ASes[asn]
		if rec == nil {
			return fmt.Errorf("serve: artifact order lists AS%d with no record", asn)
		}
		if i > 0 && ds.Order[i-1] >= asn {
			return fmt.Errorf("serve: artifact AS order not strictly ascending at AS%d", asn)
		}
	}
	if f := ds.Funnel; f != nil {
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
	mux.Handle("GET /v1/footprint/{asn}", s.instrument("footprint", true, s.handleFootprint))
	mux.Handle("GET /v1/footprints", s.instrument("footprints", true, s.handleFootprints))
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

// instrument wraps a handler with the serving discipline, innermost to
// outermost per request: chaos injection (when armed), adaptive load
// shedding (when limited), the per-request deadline, panic recovery,
// request/latency metrics, and — when configured — the request-scoped
// trace and the structured access-log line. The three records of one
// request (trace, log line, metrics) are emitted from the same
// deferred block over the same statusWriter state, so they cannot
// disagree about status or outcome.
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
		if s.opts.Timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
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

// parseBW validates a ?bw= query value: it must parse as a float and
// land in (0, MaxBandwidthKm]. NaN and ±Inf fail both comparisons, so
// neither reaches the KDE. Returns the bandwidth to use (the server
// default when the parameter is absent) and ok=false after writing the
// 400 when the value is invalid.
func (s *Server) parseBW(w http.ResponseWriter, raw string) (float64, bool) {
	if raw == "" {
		return s.opts.BandwidthKm, true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(v > 0) || !(v <= MaxBandwidthKm) {
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
			s.renders.finish(e, nil, fmt.Errorf("render panicked: %v", r))
			panic(r)
		}
	}()
	body, err := s.render(trace.NewContext(ctx, sp), rec, pts, bw, s.opts.Obs)
	s.renders.finish(e, body, err)
	return body, err
}

// footprintBody resolves one AS to the exact bytes the single-footprint
// endpoint would put on the wire — success body or error payload — plus
// the HTTP status that body carries there and the cache-result label
// ("" when the AS is not in the dataset and the cache layer was never
// reached). The bulk endpoint streams these same bytes as lines, which
// is what makes bulk output the concatenation of single responses,
// byte for byte.
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
// per-AS errors (unknown AS, render failure), which arrive inline as
// the single endpoint's error payload instead of aborting the stream.
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
