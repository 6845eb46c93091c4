package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"eyeballas/internal/benchgate"
)

// The cached-footprint and lookup paths are the steady-state hot paths
// of eyeballserve. TestFootprintCachedBytes holds a hit's bytes flat and
// TestChaosOffZeroExtraAllocs a lookup's allocations; the benchmarks
// report their times.

func benchServer(b *testing.B) http.Handler {
	s, _, _ := newTestServer(b, Options{})
	return s.Handler()
}

// serveGet returns one request through h as the benchmarks make it: a
// fresh httptest request and recorder, and a 200 or a fatal error.
func serveGet(tb testing.TB, h http.Handler, url string) func() {
	return func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			tb.Fatalf("GET %s: HTTP %d", url, rec.Code)
		}
	}
}

// benchWriter is the response writer benchGet reuses: it keeps the
// status and the headers, discards the body, and reset clears both.
type benchWriter struct {
	header http.Header
	code   int
}

func (w *benchWriter) Header() http.Header { return w.header }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

func (w *benchWriter) reset() {
	clear(w.header)
	w.code = 0
}

// benchGet times GET url through h with one request built up front and
// one response writer reset between calls, so allocs/op and ns/op are
// the server's, not httptest's: a fresh request costs a 4 KiB bufio
// reader and a recorder its header clone. Each call must answer 200.
func benchGet(b *testing.B, h http.Handler, url string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := &benchWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("GET %s: HTTP %d", url, w.code)
		}
	}
}

func BenchmarkFootprintCached(b *testing.B) {
	h := benchServer(b)
	primeFootprint(b, h)
	benchGet(b, h, "/v1/footprint/64500")
}

// TestFootprintCachedBytes holds a cache hit, the request
// BenchmarkFootprintCached makes, under a fixed byte budget. A hit is a
// map lookup and a body write; the body is a few KiB and the recorder
// buffers it again, so 64 KiB leaves room for that and still fails when
// a hit starts to render or to grow with something it should not.
func TestFootprintCachedBytes(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	hit := serveGet(t, s.Handler(), "/v1/footprint/64500")
	hit() // prime the cache
	if got := benchgate.BytesPerRun(200, hit); got > 65536 {
		t.Errorf("cached footprint allocates %.0f B/op, budget 65536", got)
	}
}

// BenchmarkFootprintCold measures the uncached render path (cache
// disabled, every request pays the full KDE). BenchmarkPairedCold times
// it against a cache hit.
func BenchmarkFootprintCold(b *testing.B) {
	s, _, _ := newTestServer(b, Options{CacheSize: -1})
	benchGet(b, s.Handler(), "/v1/footprint/64500")
}

// coldSchedule: a cold render of the test AS costs about 24 cache hits,
// far above the bound, so a short schedule suffices.
var coldSchedule = benchgate.Schedule{Rounds: 200, Ops: 5}

// BenchmarkPairedCold is the warmer's gate: a cold render against a
// cache hit of the same AS, in alternating rounds. A warmed cache must
// serve footprints at least 5× faster than the render it saves, or the
// cache is not doing the work.
func BenchmarkPairedCold(b *testing.B) {
	cold, _, _ := newTestServer(b, Options{CacheSize: -1})
	cached := benchServer(b)
	primeFootprint(b, cached)
	b.ResetTimer()
	r := benchgate.Ratio(b, coldSchedule, "cold/cached",
		serveGet(b, cold.Handler(), "/v1/footprint/64500"),
		serveGet(b, cached, "/v1/footprint/64500"))
	if r < 5 {
		b.Errorf("cold/cached %.2f, bound ≥ 5", r)
	}
}

// TestFootprintColdAllocs pins the allocations of one cold render through
// the full handler — the request BenchmarkFootprintCold makes, with the
// cache disabled so every run pays the KDE, peaks, partitions and city
// mapping. The budget is a tenth of the 1,066 the render made when each
// flood, blur pass and projection allocated afresh.
func TestFootprintColdAllocs(t *testing.T) {
	s, _, _ := newTestServer(t, Options{CacheSize: -1})
	allocs := testing.AllocsPerRun(50, serveGet(t, s.Handler(), "/v1/footprint/64500"))
	if allocs > 106 {
		t.Errorf("cold footprint render: %.0f allocs/op, budget 106", allocs)
	}
}

// finishedFlight returns a table holding one render in flight whose done
// channel is already closed, so a waiter's lookup and wait run without
// blocking: the waiter's path without the render it waits for. It also
// returns the entry's key.
func finishedFlight() (*renderTable, cacheKey) {
	tab := newRenderTable(1, nil)
	key := cacheKey{gen: 1, asn: 64500, bw: math.Float64bits(40)}
	e := &entry{key: key, done: make(chan struct{}), body: []byte(`{"asn":64500}` + "\n"), idx: -1}
	close(e.done)
	tab.items[key] = e
	return tab, key
}

// joinFinished is a waiter's part of a coalesced request: one lookup (a
// map lookup under the table's mutex) and one wait on the closed
// channel.
func joinFinished(tb testing.TB, tab *renderTable, key cacheKey) {
	e, result := tab.get(key)
	if result != cacheCoalesced {
		tb.Fatalf("lookup: %s, want %s", result, cacheCoalesced)
	}
	body, err := e.wait(context.Background())
	if err != nil || len(body) == 0 {
		tb.Fatalf("wait: %q, %v", body, err)
	}
}

// BenchmarkFlightWaiter measures the coalesced-path overhead a waiter
// pays on top of the render it skips.
func BenchmarkFlightWaiter(b *testing.B) {
	tab, key := finishedFlight()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		joinFinished(b, tab, key)
	}
}

// TestFlightWaiterAllocs holds a waiter's lookup and wait to at most one
// allocation (measured: none): coalescing exists to shed load, so its
// own overhead must stay far below the render it saves.
func TestFlightWaiterAllocs(t *testing.T) {
	tab, key := finishedFlight()
	if allocs := testing.AllocsPerRun(200, func() { joinFinished(t, tab, key) }); allocs > 1 {
		t.Errorf("flight waiter: %.0f allocs/op, budget 1", allocs)
	}
}

func BenchmarkLookup(b *testing.B) {
	benchGet(b, benchServer(b), "/v1/lookup?ip=10.1.2.3")
}

func BenchmarkASRecord(b *testing.B) {
	benchGet(b, benchServer(b), "/v1/as/64500")
}
