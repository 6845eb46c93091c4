package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"eyeballas/internal/benchgate"
	"eyeballas/internal/obs"
	"eyeballas/internal/trace"
)

const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// tracedServer builds a test server with deterministic tracing, a
// recorder, metrics, and a JSON access log captured into logBuf.
func tracedServer(t testing.TB, logBuf *bytes.Buffer, opts Options) (*Server, *trace.Recorder, *obs.Registry) {
	t.Helper()
	rec := trace.NewRecorder(trace.RecorderOptions{Recent: 16, Slow: 8, SlowThreshold: time.Hour})
	reg := obs.New()
	opts.Tracer = trace.New(trace.Options{Seed: 42, Recorder: rec})
	opts.Obs = reg
	if logBuf != nil {
		opts.AccessLog = slog.New(slog.NewJSONHandler(logBuf, nil))
	}
	s, _, _ := newTestServer(t, opts)
	return s, rec, reg
}

// getWithHeader issues a GET with an optional traceparent header.
func getWithHeader(t testing.TB, h http.Handler, url, traceparent string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// attrVal returns the value of key among a node's attrs, or "".
func attrVal(n obs.TreeNode, key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// findChild returns the first child with the given name, depth-first.
func findChild(n obs.TreeNode, name string) *obs.TreeNode {
	for i := range n.Children {
		if n.Children[i].Name == name {
			return &n.Children[i]
		}
		if c := findChild(n.Children[i], name); c != nil {
			return c
		}
	}
	return nil
}

// lastLogLine parses the last JSON line in buf.
func lastLogLine(t testing.TB, buf *bytes.Buffer) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("access log line %q is not JSON: %v", lines[len(lines)-1], err)
	}
	return m
}

func TestTraceMiddlewareFootprint(t *testing.T) {
	var logBuf bytes.Buffer
	s, rec, _ := tracedServer(t, &logBuf, Options{})
	h := s.Handler()

	w := getWithHeader(t, h, "/v1/footprint/64500", testTraceparent)
	if w.Code != http.StatusOK {
		t.Fatalf("footprint: %d %s", w.Code, w.Body.String())
	}

	roots := rec.Recent()
	if len(roots) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(roots))
	}
	root := roots[0]
	// The inbound traceparent's trace ID is inherited by the root span.
	if got := root.TraceID().String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID = %s, want inbound traceparent's", got)
	}
	n := root.Tree()
	if n.Name != "serve.footprint" {
		t.Fatalf("root span name = %q", n.Name)
	}
	for key, want := range map[string]string{
		"route": "footprint", "status": "200", "outcome": "ok",
		"asn": "64500", "generation": "1", "cache": "miss",
	} {
		if got := attrVal(n, key); got != want {
			t.Errorf("root attr %s = %q, want %q", key, got, want)
		}
	}
	// The KDE render contributed child spans via context propagation.
	kde := findChild(n, "kde.estimate")
	if kde == nil {
		t.Fatalf("no kde.estimate child in trace:\n%+v", n)
	}
	if attrVal(*kde, "samples") != "300" {
		t.Errorf("kde.estimate samples attr = %q", attrVal(*kde, "samples"))
	}
	if findChild(*kde, "blur_horizontal") == nil {
		t.Error("kde.estimate has no blur_horizontal child")
	}

	// The access-log line carries the same trace ID.
	line := lastLogLine(t, &logBuf)
	if line["trace"] != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("access log trace = %v, want the inherited trace ID", line["trace"])
	}

	// A cache hit is a new trace with cache=hit and no KDE child.
	w = getWithHeader(t, h, "/v1/footprint/64500", "")
	if w.Code != http.StatusOK {
		t.Fatalf("cached footprint: %d", w.Code)
	}
	hit := rec.Recent()[0].Tree()
	if attrVal(hit, "cache") != "hit" {
		t.Errorf("cache attr = %q, want hit", attrVal(hit, "cache"))
	}
	if findChild(hit, "kde.estimate") != nil {
		t.Error("cache-hit trace grew a kde.estimate child")
	}
}

// TestTracedColdRenderBinsPoints: a cold render bins the AS's distinct
// locations, prepared at install, not its samples. The fixture's 300
// samples sit on a few dozen jittered points, so the kde.estimate span
// reads points below samples, and samples, like
// eyeball_kde_samples_total, still counts every sample.
func TestTracedColdRenderBinsPoints(t *testing.T) {
	s, rec, reg := tracedServer(t, nil, Options{})
	distinct := map[[2]uint64]bool{}
	for _, smp := range s.Artifact().Snap.Dataset.AS(64500).Samples {
		distinct[[2]uint64{math.Float64bits(smp.Loc.Lat), math.Float64bits(smp.Loc.Lon)}] = true
	}
	if w := getWithHeader(t, s.Handler(), "/v1/footprint/64500", ""); w.Code != http.StatusOK {
		t.Fatalf("footprint: %d %s", w.Code, w.Body.String())
	}
	kde := findChild(rec.Recent()[0].Tree(), "kde.estimate")
	if kde == nil {
		t.Fatal("cold render has no kde.estimate span")
	}
	samples, points := attrVal(*kde, "samples"), attrVal(*kde, "points")
	if samples != "300" || points != strconv.Itoa(len(distinct)) || len(distinct) >= 300 {
		t.Errorf("kde.estimate samples %q points %q, want 300 and %d (< 300)", samples, points, len(distinct))
	}
	if n := reg.Counter("eyeball_kde_samples_total").Value(); n != 300 {
		t.Errorf("eyeball_kde_samples_total = %d, want 300", n)
	}
}

func TestAccessLogShape(t *testing.T) {
	var logBuf bytes.Buffer
	s, _, _ := tracedServer(t, &logBuf, Options{})
	getWithHeader(t, s.Handler(), "/v1/as/64500", "")

	line := lastLogLine(t, &logBuf)
	if line["msg"] != "request" || line["level"] != "INFO" {
		t.Fatalf("log line = %v", line)
	}
	for key, want := range map[string]any{
		"route":   "as",
		"method":  "GET",
		"path":    "/v1/as/64500",
		"status":  float64(200),
		"outcome": "ok",
	} {
		if line[key] != want {
			t.Errorf("log %s = %v, want %v", key, line[key], want)
		}
	}
	if b, ok := line["bytes"].(float64); !ok || b <= 0 {
		t.Errorf("log bytes = %v, want > 0", line["bytes"])
	}
	if _, ok := line["dur_us"].(float64); !ok {
		t.Errorf("log dur_us = %v, want a number", line["dur_us"])
	}
	if tid, ok := line["trace"].(string); !ok || len(tid) != 32 {
		t.Errorf("log trace = %v, want 32-hex trace ID", line["trace"])
	}
}

// TestShedTripleAgreement proves the three records of one shed request —
// the metric, the access-log line, and the flight-recorder trace — all
// fire and agree on outcome, status, and trace identity.
func TestShedTripleAgreement(t *testing.T) {
	var logBuf bytes.Buffer
	s, rec, reg := tracedServer(t, &logBuf, Options{MaxInflight: 1})
	h := s.Handler()

	if ok, _ := s.lim.acquire(); !ok { // occupy the only slot
		t.Fatal("could not occupy the only slot")
	}
	w := getWithHeader(t, h, "/v1/as/64500", testTraceparent)
	s.lim.release(time.Millisecond, time.Now().UnixNano())
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected shed 503, got %d", w.Code)
	}

	// 1. Metric.
	if n := reg.Counter("eyeball_serve_shed_total", "endpoint", "as").Value(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
	// 2. Access log.
	line := lastLogLine(t, &logBuf)
	if line["outcome"] != "shed" || line["status"] != float64(503) {
		t.Errorf("access log outcome/status = %v/%v, want shed/503", line["outcome"], line["status"])
	}
	// 3. Trace — same ID the log line printed.
	roots := rec.Recent()
	if len(roots) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(roots))
	}
	n := roots[0].Tree()
	if attrVal(n, "outcome") != "shed" || attrVal(n, "status") != "503" {
		t.Errorf("trace outcome/status = %q/%q, want shed/503", attrVal(n, "outcome"), attrVal(n, "status"))
	}
	if got := roots[0].TraceID().String(); got != line["trace"] {
		t.Errorf("trace ID %s != access-log trace %v", got, line["trace"])
	}
}

// TestTimeoutTripleAgreement is the 504 analogue of the shed test.
func TestTimeoutTripleAgreement(t *testing.T) {
	var logBuf bytes.Buffer
	s, rec, reg := tracedServer(t, &logBuf, Options{Timeout: time.Nanosecond})
	w := getWithHeader(t, s.Handler(), "/v1/footprint/64500", "")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expected 504, got %d %s", w.Code, w.Body.String())
	}

	if n := reg.Counter("eyeball_serve_timeouts_total", "endpoint", "footprint").Value(); n != 1 {
		t.Errorf("timeout counter = %d, want 1", n)
	}
	line := lastLogLine(t, &logBuf)
	if line["outcome"] != "timeout" || line["status"] != float64(504) {
		t.Errorf("access log outcome/status = %v/%v, want timeout/504", line["outcome"], line["status"])
	}
	roots := rec.Recent()
	if len(roots) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(roots))
	}
	n := roots[0].Tree()
	if attrVal(n, "outcome") != "timeout" || attrVal(n, "status") != "504" {
		t.Errorf("trace outcome/status = %q/%q, want timeout/504", attrVal(n, "outcome"), attrVal(n, "status"))
	}
	if got := roots[0].TraceID().String(); got != line["trace"] {
		t.Errorf("trace ID %s != access-log trace %v", got, line["trace"])
	}
}

func TestDebugEndpoints(t *testing.T) {
	s, _, _ := tracedServer(t, nil, Options{})
	h := s.Handler()
	getWithHeader(t, h, "/v1/as/64500", testTraceparent)
	getWithHeader(t, h, "/v1/lookup?ip=10.1.2.3", "")

	// Listing: newest first, root attrs included.
	w := getWithHeader(t, h, "/debug/requests", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/requests: %d", w.Code)
	}
	var listing struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
			Spans   int    `json:"spans"`
			Attrs   []struct {
				Key string `json:"key"`
				Val string `json:"val"`
			} `json:"attrs"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing not JSON: %v", err)
	}
	if len(listing.Traces) != 2 {
		t.Fatalf("listing holds %d traces, want 2", len(listing.Traces))
	}
	if listing.Traces[0].Name != "serve.lookup" || listing.Traces[1].Name != "serve.as" {
		t.Errorf("listing order = %s,%s; want newest-first lookup,as",
			listing.Traces[0].Name, listing.Traces[1].Name)
	}

	// Slow ring: empty (threshold is 1h in tracedServer).
	w = getWithHeader(t, h, "/debug/requests/slow", "")
	var slow struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &slow); err != nil || len(slow.Traces) != 0 {
		t.Errorf("slow listing = %s (err %v), want empty traces array", w.Body.String(), err)
	}

	// Full trace by ID — the inbound traceparent's ID.
	w = getWithHeader(t, h, "/debug/trace/0af7651916cd43dd8448eb211c80319c", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/trace/{id}: %d %s", w.Code, w.Body.String())
	}
	var detail struct {
		TraceID     string       `json:"trace_id"`
		Traceparent string       `json:"traceparent"`
		Spans       int          `json:"spans"`
		Root        obs.TreeNode `json:"root"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &detail); err != nil {
		t.Fatalf("detail not JSON: %v", err)
	}
	if detail.TraceID != "0af7651916cd43dd8448eb211c80319c" || detail.Root.Name != "serve.as" {
		t.Errorf("detail = %+v", detail)
	}
	if !strings.HasPrefix(detail.Traceparent, "00-0af7651916cd43dd8448eb211c80319c-") {
		t.Errorf("detail traceparent = %q", detail.Traceparent)
	}

	// Error shapes.
	if w := getWithHeader(t, h, "/debug/trace/nothex", ""); w.Code != http.StatusBadRequest {
		t.Errorf("bad id: %d", w.Code)
	}
	if w := getWithHeader(t, h, "/debug/trace/ffffffffffffffffffffffffffffffff", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown id: %d", w.Code)
	}
}

func TestDebugEndpointsAbsentWithoutTracer(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	for _, url := range []string{
		"/debug/requests", "/debug/requests/slow",
		"/debug/trace/0af7651916cd43dd8448eb211c80319c",
	} {
		if w := getWithHeader(t, s.Handler(), url, ""); w.Code != http.StatusNotFound {
			t.Errorf("%s on untraced server: %d, want 404", url, w.Code)
		}
	}
}

// TestTracedFootprintHitAllocs bounds what tracing adds to the two hot
// paths, a cache hit and a lookup: at most one allocation and 1 KiB per
// request (measured: none, and the 576 B slab share the request's span
// is carved from). A cache hit is held tighter, to no allocation at all:
// its span reaches the context only when the request leads a render.
func TestTracedFootprintHitAllocs(t *testing.T) {
	measure := func(opts Options, url string) (allocs, bytes float64) {
		s, _, _ := newTestServer(t, opts)
		h := s.Handler()
		req := httptest.NewRequest(http.MethodGet, url, nil)
		h.ServeHTTP(httptest.NewRecorder(), req) // prime the cache
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: HTTP %d", url, rec.Code)
			}
		}
		return testing.AllocsPerRun(200, serve), benchgate.BytesPerRun(200, serve)
	}
	for _, c := range []struct {
		path        string
		extraAllocs float64
	}{
		{"/v1/footprint/64500", 0},
		{"/v1/lookup?ip=10.1.2.3", 1},
	} {
		untracedAllocs, untracedBytes := measure(Options{}, c.path)
		tracedAllocs, tracedBytes := measure(Options{Tracer: trace.New(trace.Options{
			Seed:     42,
			Recorder: trace.NewRecorder(trace.RecorderOptions{Recent: 128, SlowThreshold: time.Hour}),
		})}, c.path)
		if tracedAllocs > untracedAllocs+c.extraAllocs {
			t.Errorf("GET %s: traced %.0f allocs/op, untraced %.0f, at most %.0f more allowed",
				c.path, tracedAllocs, untracedAllocs, c.extraAllocs)
		}
		if tracedBytes > untracedBytes+1024 {
			t.Errorf("GET %s: traced %.0f B/op, untraced %.0f, at most 1024 more allowed",
				c.path, tracedBytes, untracedBytes)
		}
	}
}

// TestResponsesBitIdenticalTracingOnOff serves the same artifact with
// tracing+logging on and fully off, and requires every data response —
// status, headers, body — to be byte-identical. Tracing is a read-only
// side channel.
func TestResponsesBitIdenticalTracingOnOff(t *testing.T) {
	path, _ := testArtifact(t, t.TempDir())
	load := func(opts Options) *Server {
		s := New(opts)
		if _, err := s.LoadFile(path); err != nil {
			t.Fatalf("LoadFile: %v", err)
		}
		return s
	}
	var logBuf bytes.Buffer
	traced := load(Options{
		Tracer: trace.New(trace.Options{
			Seed:     42,
			Recorder: trace.NewRecorder(trace.RecorderOptions{SlowThreshold: time.Nanosecond}),
		}),
		AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
		Obs:       obs.New(),
	})
	plain := load(Options{})

	urls := []string{
		"/healthz",
		"/v1/as/64500",
		"/v1/as/99999",
		"/v1/as/banana",
		"/v1/lookup?ip=10.1.2.3",
		"/v1/lookup?ip=8.8.8.8",
		"/v1/footprint/64500",
		"/v1/footprint/64500", // cache hit on both sides
		"/v1/footprint/64500?bw=80",
		"/v1/footprint/64501",
	}
	ht, hp := traced.Handler(), plain.Handler()
	for _, url := range urls {
		a := getWithHeader(t, ht, url, testTraceparent)
		b := getWithHeader(t, hp, url, testTraceparent)
		if a.Code != b.Code {
			t.Errorf("%s: status %d (traced) vs %d (plain)", url, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s: body differs with tracing on", url)
		}
		ah, bh := a.Header(), b.Header()
		if len(ah) != len(bh) {
			t.Errorf("%s: header count differs: %v vs %v", url, ah, bh)
		}
		for k := range ah {
			if ah.Get(k) != bh.Get(k) {
				t.Errorf("%s: header %s = %q (traced) vs %q (plain)", url, k, ah.Get(k), bh.Get(k))
			}
		}
	}
}

// TestLatencyExemplar proves a traced request's ID surfaces as an
// OpenMetrics exemplar on the serve latency histogram.
func TestLatencyExemplar(t *testing.T) {
	s, _, reg := tracedServer(t, nil, Options{})
	getWithHeader(t, s.Handler(), "/v1/as/64500", testTraceparent)

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# {trace_id="0af7651916cd43dd8448eb211c80319c"}`) {
		t.Fatalf("exposition carries no exemplar for the request trace:\n%s", out)
	}
	if !strings.Contains(out, `eyeball_serve_latency_seconds_bucket{endpoint="as",le=`) {
		t.Fatalf("latency histogram missing:\n%s", out)
	}
}

// TestMetricsEndpointMounted covers the /metrics route the debug surface
// shares the mux with.
func TestMetricsEndpointMounted(t *testing.T) {
	s, _, _ := tracedServer(t, nil, Options{})
	h := s.Handler()
	getWithHeader(t, h, "/v1/as/64500", "")
	w := getWithHeader(t, h, "/metrics", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "eyeball_serve_requests_total") {
		t.Fatalf("/metrics: %d %s", w.Code, w.Body.String())
	}
	w = getWithHeader(t, h, "/metrics.json", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics.json: %d", w.Code)
	}
}

// TestSlowCapture routes an over-threshold request into the slow ring.
func TestSlowCapture(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{Recent: 8, Slow: 4, SlowThreshold: time.Nanosecond})
	s, _, _ := newTestServer(t, Options{Tracer: trace.New(trace.Options{Seed: 7, Recorder: rec})})
	getWithHeader(t, s.Handler(), "/v1/as/64500", "")
	if len(rec.Slow()) != 1 {
		t.Fatalf("slow ring holds %d traces, want 1 (threshold 1ns)", len(rec.Slow()))
	}
}
