// Command eyeballserve serves a snapshot artifact written by
// eyeballpipe -snapshot: classification records, compiled-LPM origin
// lookups, and KDE footprints over HTTP, with hot reload.
//
// Usage:
//
//	eyeballserve -snap dataset.snap [-addr :8080] [-timeout 5s]
//	             [-max-inflight N] [-target-latency D] [-cache N]
//	             [-bw KM] [-warm] [-warm-workers N] [-warm-budget D]
//	             [-print-footprint ASN] [-log-format json|text]
//	             [-tracing=false] [-trace-recent N] [-trace-slow D]
//	             [-trace-seed N]
//	             [-chaos SPEC] [-chaos-seed N] [-chaos-slow-max D]
//	             [-metrics out.json|out.prom|-] [-pprof :6060]
//
// Endpoints:
//
//	GET  /healthz              liveness + artifact summary
//	GET  /v1/as/{asn}          classification record for one AS
//	GET  /v1/lookup?ip=a.b.c.d origin AS of an address
//	GET  /v1/footprint/{asn}   PoP-level footprint (?bw= overrides km)
//	GET  /v1/footprints?asns=  bulk footprints, one JSON line per AS
//	POST /-/reload             hot-swap to the re-read artifact file
//	GET  /debug/requests       flight recorder: recent request traces
//	GET  /debug/requests/slow  flight recorder: slow captures
//	GET  /debug/trace/{id}     one full request trace as JSON
//	GET  /metrics              Prometheus exposition (with -metrics/-pprof)
//
// All operational output — startup, reload results, and the per-request
// access log — flows through one structured slog stream on stderr
// (JSON by default; -log-format text for humans). Request tracing is on
// by default and adds nothing to response bytes; -tracing=false
// disables it entirely.
//
// SIGHUP reloads the snapshot file in place, exactly like POST
// /-/reload: the new artifact is parsed and fully validated before the
// atomic swap, in-flight requests finish on the old artifact, and a
// corrupt replacement file leaves the old artifact serving. SIGINT and
// SIGTERM shut the server down gracefully.
//
// -print-footprint renders one AS's footprint JSON to stdout and exits
// without serving — the offline mode CI uses to prove served bytes
// match the pipeline's.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eyeballas/internal/faults"
	"eyeballas/internal/obs"
	"eyeballas/internal/serve"
	"eyeballas/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		// The flag-configured logger lives inside run; a startup
		// failure is reported on the same stream in the default shape.
		slog.New(slog.NewJSONHandler(os.Stderr, nil)).Error("eyeballserve failed", "error", err.Error())
		os.Exit(1)
	}
}

// newLogger builds the process-wide structured logger: one handler for
// startup, reload, and access-log lines, so the whole operational
// story is a single greppable stream.
func newLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("-log-format must be json or text, got %q", format)
}

// logReload emits the result of one reload attempt. The failure shape
// (level=ERROR, msg="reload failed", generation=<still serving>,
// error=<typed snapshot error>) is pinned by TestReloadFailureLogShape
// — operators alert on it, so it must not drift.
func logReload(logger *slog.Logger, art *serve.Artifact, cur *serve.Artifact, err error) {
	if err != nil {
		gen := uint64(0)
		if cur != nil {
			gen = cur.Gen
		}
		logger.LogAttrs(context.Background(), slog.LevelError, "reload failed",
			slog.Uint64("generation", gen),
			slog.String("error", err.Error()))
		return
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "reloaded",
		slog.String("path", art.Path),
		slog.Uint64("generation", art.Gen),
		slog.Int("ases", len(art.Snap.Dataset.Order)))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eyeballserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	snapPath := fs.String("snap", "", "snapshot artifact to serve (required; written by eyeballpipe -snapshot)")
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline (footprint renders observe it at KDE block boundaries)")
	maxInflight := fs.Int("max-inflight", 64, "bound on concurrently served data requests; excess requests get 503 + Retry-After (-1 disables)")
	cacheSize := fs.Int("cache", 128, "rendered-footprint LRU capacity in entries (-1 disables)")
	bw := fs.Float64("bw", 40, "default footprint kernel bandwidth in km (per-request ?bw= overrides)")
	warm := fs.Bool("warm", false, "prewarm the footprint cache: render the top -cache dataset ASes by user count at the default bandwidth on startup and after every reload")
	warmWorkers := fs.Int("warm-workers", 1, "concurrent warm renders (the warm pass's pool workers)")
	warmBudget := fs.Duration("warm-budget", 0, "wall-time bound per warm pass (0 = unbounded)")
	printFootprint := fs.Int("print-footprint", 0, "render this AS's footprint JSON to stdout and exit (no server)")
	logFormat := fs.String("log-format", "json", "structured log encoding: json or text")
	tracing := fs.Bool("tracing", true, "record request-scoped traces (flight recorder + /debug endpoints)")
	traceRecent := fs.Int("trace-recent", 128, "flight recorder capacity: last N completed request traces")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "slow-capture threshold; requests at or above it enter the slow ring")
	traceSeed := fs.Uint64("trace-seed", 0, "trace-ID seed: nonzero makes IDs deterministic (tests/CI), 0 draws random IDs")
	chaosSpec := fs.String("chaos", "", "serve-path fault plan, e.g. serve-500=0.05,serve-drop=0.02 (see internal/faults; empty = chaos off)")
	chaosSeed := fs.Uint64("chaos-seed", 1, "chaos plan seed: decisions are a pure function of (seed, point, request sequence)")
	chaosSlowMax := fs.Duration("chaos-slow-max", 25*time.Millisecond, "ceiling for serve-slow injected delays")
	targetLatency := fs.Duration("target-latency", 250*time.Millisecond, "latency target for the adaptive concurrency limiter (EWMA above it shrinks the admission limit)")
	obsFlags := obs.BindCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapPath == "" {
		return errors.New("-snap is required")
	}
	logger, err := newLogger(*logFormat, stderr)
	if err != nil {
		return err
	}
	reg := obsFlags.Registry()
	if err := obsFlags.Start(stderr); err != nil {
		return err
	}
	defer obsFlags.Finish(stdout)

	var chaos *serve.Chaos
	if *chaosSpec != "" {
		plan, err := faults.ParseSpec(*chaosSpec, *chaosSeed)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		chaos = serve.NewChaos(plan, *chaosSlowMax)
		if chaos == nil {
			return fmt.Errorf("-chaos %q arms no serve-path points (serve-slow, serve-panic, serve-500, serve-drop, reload-fail)", *chaosSpec)
		}
		logger.LogAttrs(ctx, slog.LevelWarn, "chaos armed",
			slog.String("spec", *chaosSpec),
			slog.Uint64("seed", *chaosSeed))
	}

	var tracer *trace.Tracer
	if *tracing {
		tracer = trace.New(trace.Options{
			Seed: *traceSeed,
			Recorder: trace.NewRecorder(trace.RecorderOptions{
				Recent:        *traceRecent,
				SlowThreshold: *traceSlow,
			}),
		})
	}

	srv := serve.New(serve.Options{
		Timeout:       *timeout,
		MaxInflight:   *maxInflight,
		CacheSize:     *cacheSize,
		BandwidthKm:   *bw,
		Warm:          *warm,
		WarmWorkers:   *warmWorkers,
		WarmBudget:    *warmBudget,
		TargetLatency: *targetLatency,
		Chaos:         chaos,
		Obs:           reg,
		Tracer:        tracer,
		AccessLog:     logger,
	})
	defer srv.Close() // stops the background warmer before the metrics snapshot
	art, err := srv.LoadFile(*snapPath)
	if err != nil {
		return fmt.Errorf("loading %s: %w", *snapPath, err)
	}
	if *warm {
		logger.LogAttrs(ctx, slog.LevelInfo, "warming footprint cache",
			slog.Int("ases", len(art.Snap.Dataset.Order)),
			slog.Int("workers", *warmWorkers),
			slog.Duration("budget", *warmBudget))
	}
	ds := art.Snap.Dataset
	logger.LogAttrs(ctx, slog.LevelInfo, "loaded snapshot",
		slog.String("path", *snapPath),
		slog.Int("ases", len(ds.Order)),
		slog.Int("peers", ds.TotalPeers),
		slog.Uint64("seed", art.Snap.Meta.Seed),
		slog.String("label", art.Snap.Meta.Label))

	if *printFootprint != 0 {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("/v1/footprint/%d?bw=%g", *printFootprint, *bw), nil)
		if err != nil {
			return err
		}
		rec := newBufferResponse()
		srv.Handler().ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			return fmt.Errorf("footprint AS%d: HTTP %d: %s", *printFootprint, rec.code, rec.body.String())
		}
		_, err = io.Copy(stdout, &rec.body)
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// SIGHUP → hot reload, for as long as the server runs.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				a, err := srv.Reload()
				logReload(logger, a, srv.Artifact(), err)
			}
		}
	}()

	logger.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("url", "http://"+ln.Addr().String()))
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutdownCtx)
	case err := <-errc:
		return err
	}
}

// bufferResponse captures a handler's response for the offline
// -print-footprint mode (no httptest outside _test files).
type bufferResponse struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func newBufferResponse() *bufferResponse {
	return &bufferResponse{code: http.StatusOK, header: make(http.Header)}
}

func (r *bufferResponse) Header() http.Header         { return r.header }
func (r *bufferResponse) WriteHeader(code int)        { r.code = code }
func (r *bufferResponse) Write(p []byte) (int, error) { return r.body.Write(p) }
