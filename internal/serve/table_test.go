package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/leakcheck"
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/rng"
	"eyeballas/internal/snapshot"
)

// waitFor polls cond once a millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// assertFootprintFunnel pins the counter-funnel invariant: every live
// footprint request that reached the cache layer took exactly one of
// the three cache results, so hit + miss + coalesced == requests. The
// CI smoke asserts the same identity against a real server's /metrics.
func assertFootprintFunnel(t *testing.T, reg *obs.Registry) {
	t.Helper()
	req := reg.Counter("eyeball_serve_footprint_requests_total").Value()
	hit := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheHit).Value()
	miss := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheMiss).Value()
	co := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheCoalesced).Value()
	if hit+miss+co != req {
		t.Errorf("funnel invariant broken: hit %d + miss %d + coalesced %d != requests %d", hit, miss, co, req)
	}
	if dup := reg.Counter("eyeball_serve_footprint_coalesced_total").Value(); dup != co {
		t.Errorf("coalesced_total = %d, cache_total{result=coalesced} = %d; must move together", dup, co)
	}
}

// TestFootprintCoalescesConcurrentMisses is the tentpole's core claim:
// 32 concurrent cold misses for the same (generation, ASN, bw) key
// produce exactly one render. The injected render hook blocks until
// the test has seen all 31 waiters park on the leader's call, so the
// coalesced count is deterministic, not a race the test usually wins.
func TestFootprintCoalescesConcurrentMisses(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg})

	started := make(chan struct{})
	release := make(chan struct{})
	var renders atomic.Int32
	want := []byte(`{"fake":"footprint"}` + "\n")
	s.render = func(ctx context.Context, _ *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, int, error) {
		if renders.Add(1) == 1 {
			close(started)
		}
		select {
		case <-release:
			return want, 1, nil
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	h := s.Handler()

	const total = 32
	codes := make([]int, total)
	bodies := make([][]byte, total)
	var wg sync.WaitGroup
	do := func(i int) {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		codes[i], bodies[i] = rec.Code, rec.Body.Bytes()
	}

	// The leader goes first and blocks inside the render; everyone after
	// it must join the render in flight.
	wg.Add(1)
	go do(0)
	<-started
	wg.Add(total - 1)
	for i := 1; i < total; i++ {
		go do(i)
	}

	awaitWaiters(t, s, total-1)
	close(release)
	wg.Wait()

	if n := renders.Load(); n != 1 {
		t.Fatalf("render ran %d times for %d concurrent requests, want exactly 1", n, total)
	}
	for i := 0; i < total; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: HTTP %d %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("request %d: body diverged: %q", i, bodies[i])
		}
	}

	counter := func(name string, labels ...string) int64 {
		return reg.Counter(name, labels...).Value()
	}
	if n := counter("eyeball_serve_footprint_cache_total", "result", cacheMiss); n != 1 {
		t.Errorf("miss = %d, want 1 (only the winning render)", n)
	}
	if n := counter("eyeball_serve_footprint_cache_total", "result", cacheCoalesced); n != total-1 {
		t.Errorf("coalesced = %d, want %d", n, total-1)
	}
	if n := counter("eyeball_serve_footprint_cache_total", "result", cacheHit); n != 0 {
		t.Errorf("hit = %d, want 0 (no request arrived after completion)", n)
	}
	if n := counter("eyeball_serve_footprint_requests_total"); n != total {
		t.Errorf("requests = %d, want %d", n, total)
	}
	if n := counter("eyeball_serve_footprint_coalesced_total"); n != total-1 {
		t.Errorf("coalesced_total = %d, want %d", n, total-1)
	}
	assertFootprintFunnel(t, reg)

	// The render finished: nothing may linger in flight.
	if n := inFlight(s); n != 0 {
		t.Errorf("%d renders left in flight after completion", n)
	}

	// And the next request is a plain cache hit off the leader's body.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("post-flight request: %d %q", rec.Code, rec.Body.String())
	}
	if n := counter("eyeball_serve_footprint_cache_total", "result", cacheHit); n != 1 {
		t.Errorf("post-flight hit = %d, want 1", n)
	}
	assertFootprintFunnel(t, reg)
}

// TestCoalescedWaiterSeesLeaderError: a failed render is delivered to
// its waiters as the same typed error (500 on the wire), is never
// cached, and the key leaves the render table so the next request
// leads a fresh render.
func TestCoalescedWaiterSeesLeaderError(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg})

	started := make(chan struct{})
	release := make(chan struct{})
	renderErr := errors.New("kde exploded")
	var calls atomic.Int32
	s.render = func(ctx context.Context, _ *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return nil, 0, renderErr
		}
		return []byte("{\"ok\":true}\n"), 1, nil
	}
	h := s.Handler()

	codes := make([]int, 2)
	bodies := make([]string, 2)
	var wg sync.WaitGroup
	do := func(i int) {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil))
		codes[i], bodies[i] = rec.Code, rec.Body.String()
	}
	wg.Add(1)
	go do(0)
	<-started
	wg.Add(1)
	go do(1)

	awaitWaiters(t, s, 1)
	close(release)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if codes[i] != http.StatusInternalServerError {
			t.Fatalf("request %d: HTTP %d %s, want 500", i, codes[i], bodies[i])
		}
		if !strings500(bodies[i]) {
			t.Fatalf("request %d: body %q does not carry the render failure", i, bodies[i])
		}
	}
	if n := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheCoalesced).Value(); n != 1 {
		t.Errorf("coalesced = %d, want 1 (the waiter)", n)
	}

	// The failure was not cached and the key is free: the next request
	// leads its own (now succeeding) render.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-failure request: %d %s", rec.Code, rec.Body.String())
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("render calls = %d, want 2 (failure not cached)", n)
	}
	if n := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheMiss).Value(); n != 2 {
		t.Errorf("miss = %d, want 2", n)
	}
	assertFootprintFunnel(t, reg)
}

// TestCoalescedWaiterOutlivesCancelledLeader: a render that its
// leader's own context ended fails the leader alone. A waiter whose
// deadline is still alive looks the key up again and renders it itself
// instead of answering 500 with the leader's context error — whether
// the leader was a request whose client went away or a warm render that
// Close cancelled.
func TestCoalescedWaiterOutlivesCancelledLeader(t *testing.T) {
	// stalledFirst returns a render seam whose first call signals
	// started, parks until stall returns, and then fails with its
	// context's error, as the KDE does at a block boundary; later calls
	// render for real.
	stalledFirst := func(started chan<- struct{}, stall func(ctx context.Context), calls *atomic.Int32) renderFunc {
		return func(ctx context.Context, rec *pipeline.ASRecord, pts *core.Points, bw float64, reg *obs.Registry) ([]byte, int, error) {
			if calls.Add(1) == 1 {
				close(started)
				stall(ctx)
				return nil, 0, ctx.Err()
			}
			return renderServed(ctx, rec, pts, bw, reg)
		}
	}
	wantBody := func(t *testing.T, s *Server, snap *snapshot.Snapshot) []byte {
		t.Helper()
		want, err := RenderFootprint(context.Background(), testGaz, snap.Dataset.AS(64500), s.opts.BandwidthKm, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	t.Run("request", func(t *testing.T) {
		defer leakcheck.Check(t)()
		reg := obs.New()
		s, _, snap := newTestServer(t, Options{Obs: reg})
		started := make(chan struct{})
		release := make(chan struct{})
		var calls atomic.Int32
		s.render = stalledFirst(started, func(context.Context) { <-release }, &calls)
		h := s.Handler()

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var leader, waiter *httptest.ResponseRecorder
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			leader = httptest.NewRecorder()
			h.ServeHTTP(leader, httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil).WithContext(ctx))
		}()
		<-started
		go func() {
			defer wg.Done()
			waiter = get(t, h, "/v1/footprint/64500")
		}()
		awaitWaiters(t, s, 1)
		cancel() // the leader's client goes away
		close(release)
		wg.Wait()

		if leader.Code != http.StatusGatewayTimeout {
			t.Errorf("leader: HTTP %d %s, want 504", leader.Code, leader.Body.String())
		}
		if want := wantBody(t, s, snap); waiter.Code != http.StatusOK || !bytes.Equal(waiter.Body.Bytes(), want) {
			t.Errorf("waiter: HTTP %d %s, want 200 with the AS's body", waiter.Code, waiter.Body.String())
		}
		if n := calls.Load(); n != 2 {
			t.Errorf("render calls = %d, want 2 (the cancelled one and the waiter's)", n)
		}
		if n := reg.Counter("eyeball_serve_footprint_requests_total").Value(); n != 2 {
			t.Errorf("requests = %d, want 2: the waiter counts one cache result", n)
		}
		assertFootprintFunnel(t, reg)
		if n := inFlight(s); n != 0 {
			t.Errorf("%d renders left in flight", n)
		}
	})

	t.Run("warm", func(t *testing.T) {
		defer leakcheck.Check(t)()
		reg := obs.New()
		path, snap := testArtifact(t, t.TempDir())
		s := New(Options{Warm: true, Obs: reg})
		defer s.Close()
		started := make(chan struct{})
		var calls atomic.Int32
		// The pass renders AS64500 (the most users) first, until Close.
		s.render = stalledFirst(started, func(ctx context.Context) { <-ctx.Done() }, &calls)
		if _, err := s.LoadFile(path); err != nil {
			t.Fatalf("LoadFile: %v", err)
		}
		<-started

		var waiter *httptest.ResponseRecorder
		done := make(chan struct{})
		go func() {
			defer close(done)
			waiter = get(t, s.Handler(), "/v1/footprint/64500")
		}()
		awaitWaiters(t, s, 1)
		s.Close()
		<-done

		if want := wantBody(t, s, snap); waiter.Code != http.StatusOK || !bytes.Equal(waiter.Body.Bytes(), want) {
			t.Errorf("waiter on a cancelled warm render: HTTP %d %s, want 200 with the AS's body", waiter.Code, waiter.Body.String())
		}
		if n := reg.Counter("eyeball_serve_footprint_requests_total").Value(); n != 1 {
			t.Errorf("requests = %d, want 1", n)
		}
		assertFootprintFunnel(t, reg)
	})
}

func strings500(body string) bool {
	return bytes.Contains([]byte(body), []byte("footprint render failed"))
}

// TestRenderTableSemantics is the white-box contract of the render
// table: a waiter's deadline is the waiter's own problem, finish
// releases the waiters with the body and caches it, a failed render
// leaves no entry behind, and a table that keeps nothing still
// coalesces the lookups made while a render is in flight.
func TestRenderTableSemantics(t *testing.T) {
	tab := newRenderTable(2, nil)
	tab.install(1)
	key := cacheKey{gen: 1, asn: 64500, bw: math.Float64bits(40)}

	e, result := tab.get(key)
	if result != cacheMiss {
		t.Fatalf("first lookup: %s, want %s", result, cacheMiss)
	}

	// A waiter whose own context is dead gets the context error without
	// disturbing the render.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, result := tab.get(key)
	if result != cacheCoalesced || w != e {
		t.Fatalf("second lookup: %s on %p, want %s on the render in flight %p", result, w, cacheCoalesced, e)
	}
	if _, err := w.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired waiter got %v, want context.Canceled", err)
	}
	select {
	case <-e.done:
		t.Fatal("an expired waiter finished the render")
	default:
	}

	// finish releases patient waiters with the leader's body.
	done := make(chan error, 1)
	go func() {
		body, err := w.wait(context.Background())
		if err == nil && string(body) != "rendered" {
			err = fmt.Errorf("waiter body %q", body)
		}
		done <- err
	}()
	tab.finish(e, []byte("rendered"), 1, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter after finish: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never released")
	}

	// The body is cached: the next lookup is a hit on it.
	if h, result := tab.get(key); result != cacheHit || string(h.body) != "rendered" {
		t.Fatalf("lookup after finish: %s %q, want a hit on the body", result, h.body)
	}

	// A failed render reaches its waiters and leaves no entry, so the
	// next lookup leads a fresh render.
	failed := cacheKey{gen: 1, asn: 64501, bw: math.Float64bits(40)}
	f, _ := tab.get(failed)
	wantErr := errors.New("render failed")
	tab.finish(f, nil, 0, wantErr)
	if _, err := f.wait(context.Background()); !errors.Is(err, wantErr) {
		t.Fatalf("failed render published %v, want %v", err, wantErr)
	}
	if _, result := tab.get(failed); result != cacheMiss {
		t.Fatalf("lookup after a failed render: %s, want %s", result, cacheMiss)
	}

	// With caching off, lookups before finish still coalesce, and
	// nothing is kept after it.
	off := newRenderTable(-1, nil)
	off.install(1)
	e, _ = off.get(key)
	if _, result := off.get(key); result != cacheCoalesced {
		t.Fatalf("uncached table, lookup in flight: %s, want %s", result, cacheCoalesced)
	}
	off.finish(e, []byte("rendered"), 1, nil)
	if len(off.items) != 0 || len(off.cached) != 0 || off.bytes != 0 {
		t.Fatalf("uncached table kept %d entries (%d cached, %d B)", len(off.items), len(off.cached), off.bytes)
	}
	if _, result := off.get(key); result != cacheMiss {
		t.Fatalf("uncached table, lookup after finish: %s, want %s", result, cacheMiss)
	}
}

// inFlight returns how many renders the server's table holds in flight.
func inFlight(s *Server) int {
	s.renders.mu.Lock()
	defer s.renders.mu.Unlock()
	n := 0
	for _, e := range s.renders.items {
		if e.idx < 0 {
			n++
		}
	}
	return n
}

// awaitWaiters blocks until n lookups have joined the render in flight
// for AS64500 at the server's default bandwidth under the serving
// generation.
func awaitWaiters(t *testing.T, s *Server, n int) {
	t.Helper()
	key := cacheKey{gen: s.Artifact().Gen, asn: 64500, bw: math.Float64bits(s.opts.BandwidthKm)}
	waitFor(t, 2*time.Second, fmt.Sprintf("%d waiters to join the render", n), func() bool {
		s.renders.mu.Lock()
		defer s.renders.mu.Unlock()
		e := s.renders.items[key]
		return e != nil && e.idx < 0 && e.waiters == n
	})
}

// TestFootprintTinyBandwidthFailsAtOnce: ?bw=1e-300 passes parseBW's
// (0, 5000] envelope but needs more grid cells than the KDE's cap. Both
// requests for the key get the estimator's ErrGridTooLarge as a 400 that
// names the bandwidth and the cap (the client's error, which a client
// does not retry), with no panic and no 504 for a second request parked
// on an abandoned render, and nothing stays in flight. The bulk endpoint
// inlines the same bytes.
func TestFootprintTinyBandwidthFailsAtOnce(t *testing.T) {
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg, Timeout: 300 * time.Millisecond})
	h := s.Handler()
	first := get(t, h, "/v1/footprint/64500?bw=1e-300")
	second := get(t, h, "/v1/footprint/64500?bw=1e-300")
	const want = `{"error":"bad bandwidth for AS64500: core: kde: grid too large: bandwidth 1e-300 km needs +Inf cells (cap 16777216)"}` + "\n"
	for i, rec := range []*httptest.ResponseRecorder{first, second} {
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("request %d: HTTP %d %s, want 400 %s", i, rec.Code, rec.Body.String(), want)
		}
	}
	if bulk := get(t, h, "/v1/footprints?asns=64500&bw=1e-300"); bulk.Code != http.StatusOK || bulk.Body.String() != want {
		t.Errorf("bulk: HTTP %d %s, want 200 with the single body as its line", bulk.Code, bulk.Body.String())
	}
	if n := inFlight(s); n != 0 {
		t.Errorf("%d renders left in flight after the requests", n)
	}
	if n := reg.Counter("eyeball_serve_panics_total", "endpoint", "footprint").Value(); n != 0 {
		t.Errorf("panics_total = %d, want 0", n)
	}
}

// TestFootprintRenderPanicReleasesWaiters: a leader whose render panics
// finishes its entry before the panic continues. The waiter parked on
// the render gets an error at once instead of sitting out its deadline,
// nothing is left in flight, and recoverPanic still turns the leader's
// panic into a counted 500.
func TestFootprintRenderPanicReleasesWaiters(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg, Timeout: 2 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	s.render = func(context.Context, *pipeline.ASRecord, *core.Points, float64, *obs.Registry) ([]byte, int, error) {
		close(started)
		<-release
		panic("render exploded")
	}
	h := s.Handler()

	var leader, waiter *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader = get(t, h, "/v1/footprint/64500")
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiter = get(t, h, "/v1/footprint/64500")
	}()
	awaitWaiters(t, s, 1)
	close(release)
	wg.Wait()

	if leader.Code != http.StatusInternalServerError || !bytes.Contains(leader.Body.Bytes(), []byte("handler panicked")) {
		t.Errorf("leader: HTTP %d %s, want the recovered-panic 500", leader.Code, leader.Body.String())
	}
	if waiter.Code != http.StatusInternalServerError || !bytes.Contains(waiter.Body.Bytes(), []byte("render panicked: render exploded")) {
		t.Errorf("waiter: HTTP %d %s, want a 500 naming the render panic", waiter.Code, waiter.Body.String())
	}
	if n := inFlight(s); n != 0 {
		t.Errorf("%d renders left in flight after a panicking render", n)
	}
	if n := reg.Counter("eyeball_serve_panics_total", "endpoint", "footprint").Value(); n != 1 {
		t.Errorf("panics_total = %d, want 1", n)
	}
}

// tableProbe drives a render table through get and finish in the
// white-box tests: put leads and caches a render of AS asn at the given
// cost, hit looks a cached body up, and cached and check read the table
// back under its mutex.
type tableProbe struct {
	t   *testing.T
	tab *renderTable
	reg *obs.Registry
}

func newTableProbe(t *testing.T, max int) *tableProbe {
	reg := obs.New()
	tab := newRenderTable(max, reg)
	tab.install(1)
	return &tableProbe{t: t, tab: tab, reg: reg}
}

func probeKey(asn int) cacheKey {
	return cacheKey{gen: 1, asn: astopo.ASN(asn), bw: math.Float64bits(40)}
}

func (p *tableProbe) put(asn, cost int, body string) {
	p.t.Helper()
	e, result := p.tab.get(probeKey(asn))
	if result != cacheMiss {
		p.t.Fatalf("lookup of absent AS%d: %s, want %s", asn, result, cacheMiss)
	}
	p.tab.finish(e, []byte(body), cost, nil)
	p.check()
}

func (p *tableProbe) hit(asn int) {
	p.t.Helper()
	if _, result := p.tab.get(probeKey(asn)); result != cacheHit {
		p.t.Fatalf("lookup of AS%d: %s, want %s", asn, result, cacheHit)
	}
	p.check()
}

// cached reports whether AS asn's body is cached.
func (p *tableProbe) cached(asn int) bool {
	p.tab.mu.Lock()
	defer p.tab.mu.Unlock()
	e, ok := p.tab.items[probeKey(asn)]
	return ok && e.idx >= 0
}

// check holds the table's books to its cached bodies: the byte total,
// each entry's heap index, and both gauges.
func (p *tableProbe) check() {
	p.t.Helper()
	p.tab.mu.Lock()
	defer p.tab.mu.Unlock()
	var held int64
	for i, e := range p.tab.cached {
		if e.idx != i || p.tab.items[e.key] != e {
			p.t.Fatalf("cached AS%d: heap index %d at %d, or not in the map", e.key.asn, e.idx, i)
		}
		held += int64(len(e.body))
	}
	if held != p.tab.bytes {
		p.t.Fatalf("table counts %d B, its cached bodies hold %d B", p.tab.bytes, held)
	}
	entries := p.reg.Gauge("eyeball_serve_footprint_cache_entries").Value()
	size := p.reg.Gauge("eyeball_serve_footprint_cache_bytes").Value()
	if entries != float64(len(p.tab.cached)) || size != float64(held) {
		p.t.Fatalf("gauges: %v entries, %v B; want %d entries, %d B", entries, size, len(p.tab.cached), held)
	}
}

// TestRenderTableBounds drives the render table's eviction through get
// and finish: past its bound it evicts the body cheapest to render
// again, hits multiply a body's cost, the floor L lets new bodies
// displace one that was hot, equal priorities evict the earliest
// touched, and the byte counts and gauges stay exact throughout.
func TestRenderTableBounds(t *testing.T) {
	t.Run("cheapest-first", func(t *testing.T) {
		p := newTableProbe(t, 2)
		p.put(1, 300, "a")
		p.put(2, 100, "bb")
		p.put(3, 200, "ccc")
		if p.cached(2) || !p.cached(1) || !p.cached(3) {
			t.Errorf("cached AS1 %v, AS2 %v, AS3 %v: want the cheapest, AS2, evicted", p.cached(1), p.cached(2), p.cached(3))
		}
		if p.tab.floor != 100 {
			t.Errorf("L = %d, want 100, the evicted priority", p.tab.floor)
		}
		if p.tab.bytes != 4 {
			t.Errorf("cached %d B, want 4", p.tab.bytes)
		}
	})
	t.Run("hits-lift", func(t *testing.T) {
		p := newTableProbe(t, 2)
		p.put(1, 30, "a")
		p.put(2, 50, "b")
		p.hit(1) // 2·30 = 60 > 50
		p.put(3, 1000, "c")
		if !p.cached(1) || p.cached(2) {
			t.Errorf("cached AS1 %v, AS2 %v: a hit must lift AS1 above the costlier AS2, which had none", p.cached(1), p.cached(2))
		}
	})
	t.Run("floor-ages", func(t *testing.T) {
		p := newTableProbe(t, 2)
		p.put(1, 10, "hot")
		for range 10 {
			p.hit(1) // priority 11·10 = 110
		}
		// Each new body enters at L + 30 and evicts the one before it,
		// raising L by 30, until L + 30 passes AS1's 110.
		for asn := 2; asn <= 5; asn++ {
			p.put(asn, 30, "new")
			if !p.cached(1) {
				t.Fatalf("AS1 evicted after AS%d, at L = %d; want it kept while L+30 <= 110", asn, p.tab.floor)
			}
		}
		p.put(6, 30, "new")
		if p.cached(1) {
			t.Errorf("AS1 still cached at L = %d: L must let new bodies displace a formerly hot one", p.tab.floor)
		}
		if p.tab.floor != 110 {
			t.Errorf("L = %d, want 110, AS1's priority", p.tab.floor)
		}
	})
	t.Run("ties-earliest-touched", func(t *testing.T) {
		p := newTableProbe(t, 2)
		p.put(1, 20, "a")
		p.put(2, 10, "b")
		p.hit(2) // 2·10 = 20, touched after AS1
		p.put(3, 50, "c")
		if p.cached(1) || !p.cached(2) {
			t.Errorf("cached AS1 %v, AS2 %v: of equal priorities the earliest touched, AS1, goes", p.cached(1), p.cached(2))
		}
		q := newTableProbe(t, 2)
		q.put(1, 10, "a")
		q.put(2, 10, "b")
		q.put(3, 10, "c")
		if q.cached(1) || !q.cached(2) || !q.cached(3) {
			t.Errorf("cached AS1 %v, AS2 %v, AS3 %v: want AS1, cached first, evicted", q.cached(1), q.cached(2), q.cached(3))
		}
	})
}

// TestInstallDropsOtherGenerations: an install drops every cached body
// of another generation at once, and a render of an old generation
// still in flight reaches its waiters but is not cached.
func TestInstallDropsOtherGenerations(t *testing.T) {
	p := newTableProbe(t, 4)
	p.put(1, 10, "a")
	p.put(2, 10, "bb")
	inFlight, _ := p.tab.get(probeKey(3))
	waiter, result := p.tab.get(probeKey(3))
	if result != cacheCoalesced {
		t.Fatalf("lookup in flight: %s, want %s", result, cacheCoalesced)
	}

	p.tab.install(2)
	p.check()
	if p.cached(1) || p.cached(2) || len(p.tab.cached) != 0 {
		t.Fatalf("install kept %d bodies of the old generation", len(p.tab.cached))
	}
	fresh := cacheKey{gen: 2, asn: 1, bw: math.Float64bits(40)}
	e, _ := p.tab.get(fresh)
	p.tab.finish(e, []byte("new"), 10, nil)
	p.check()

	p.tab.finish(inFlight, []byte("stale"), 10, nil)
	if body, err := waiter.wait(context.Background()); err != nil || string(body) != "stale" {
		t.Fatalf("waiter on the old generation's render got %q, %v", body, err)
	}
	p.check()
	if p.cached(3) {
		t.Error("a render of a generation no longer installed was cached")
	}
	if _, result := p.tab.get(probeKey(3)); result != cacheMiss {
		t.Errorf("lookup of the stale key after its render: %s, want %s", result, cacheMiss)
	}
	if n := len(p.tab.cached); n != 1 {
		t.Errorf("%d bodies cached, want 1 (the new generation's)", n)
	}
	if n := p.reg.Counter("eyeball_serve_footprint_render_cells_total").Value(); n != 40 {
		t.Errorf("render cells = %d, want 40: every render counts, cached or not", n)
	}
}

// TestRenderTableConcurrent drives one small table from several
// goroutines at once — lookups that hit, lead and join renders over four
// times as many keys as it holds, while installs move the generation —
// and then holds its books to its cached bodies: no render left in
// flight, only the installed generation cached, bytes, heap indices and
// gauges exact.
func TestRenderTableConcurrent(t *testing.T) {
	p := newTableProbe(t, 8)
	var gen atomic.Uint64
	gen.Store(1)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(w))
			for range 3000 {
				key := cacheKey{gen: gen.Load(), asn: astopo.ASN(r.Intn(32)), bw: math.Float64bits(40)}
				switch e, result := p.tab.get(key); result {
				case cacheMiss:
					p.tab.finish(e, []byte("body"), 1+r.Intn(1000), nil)
				case cacheCoalesced:
					e.wait(context.Background())
				}
			}
		}()
	}
	for g := uint64(2); g <= 50; g++ {
		gen.Store(g)
		p.tab.install(g)
		runtime.Gosched()
	}
	wg.Wait()

	p.check()
	p.tab.mu.Lock()
	defer p.tab.mu.Unlock()
	for _, e := range p.tab.items {
		if e.idx < 0 {
			t.Errorf("AS%d of generation %d left in flight", e.key.asn, e.key.gen)
		}
		if e.key.gen != p.tab.gen {
			t.Errorf("AS%d of generation %d cached under generation %d", e.key.asn, e.key.gen, p.tab.gen)
		}
	}
}

// TestRenderTableReplay replays a seeded request stream shaped like the
// footprint workload through the table and through an LRU of the same
// size. Footprints cost from 1,400 to 300,000 cells, spread on a log
// scale; requests ask for ASes in proportion to their users (Zipf over
// 665 ASes, which gives the LRU the 0.4 hit fraction the served
// workload sees), at 40 km four times in five and at 60, 80 or 100 km
// otherwise, and every 50th is a bulk call of 64 such ASes at a wide,
// cold kernel. The table must redo at most 0.7× the cells the LRU
// redoes.
func TestRenderTableReplay(t *testing.T) {
	const (
		ases     = 665
		cacheSz  = 128
		requests = 20000
		bulk     = 64
	)
	r := rng.New(1).Split("render-table-replay")
	users := rng.NewZipf(ases, 1)
	bws := []float64{40, 60, 80, 100}
	cost := map[cacheKey]int{}
	for asn := range ases {
		for _, bw := range bws {
			u := r.Float64()
			cost[replayKey(asn, bw)] = int(1400 * math.Pow(300000.0/1400, u))
		}
	}
	drawBW := func() float64 {
		if r.Float64() < 0.8 {
			return 40
		}
		return bws[1+r.Intn(3)]
	}
	var stream []cacheKey
	for i := range requests {
		if i%50 == 49 {
			bw := bws[1+i/50%3]
			for range bulk {
				stream = append(stream, replayKey(users.Draw(r), bw))
			}
			continue
		}
		stream = append(stream, replayKey(users.Draw(r), drawBW()))
	}

	tab := newRenderTable(cacheSz, nil)
	tab.install(1)
	lru := newLRUModel(cacheSz)
	var tabMiss, lruMiss, tabHits, lruHits int
	for _, k := range stream {
		if e, result := tab.get(k); result == cacheMiss {
			tabMiss += cost[k]
			tab.finish(e, []byte("body"), cost[k], nil)
		} else {
			tabHits++
		}
		if lru.get(k) {
			lruHits++
		} else {
			lruMiss += cost[k]
		}
	}
	ratio := float64(tabMiss) / float64(lruMiss)
	t.Logf("%d lookups: table redoes %d cells (hit fraction %.3f), LRU %d (%.3f): %.3f×",
		len(stream), tabMiss, float64(tabHits)/float64(len(stream)), lruMiss, float64(lruHits)/float64(len(stream)), ratio)
	if ratio > 0.7 {
		t.Errorf("table redoes %.3f× the cells an LRU redoes, want at most 0.7×", ratio)
	}
}

func replayKey(asn int, bw float64) cacheKey {
	return cacheKey{gen: 1, asn: astopo.ASN(asn), bw: math.Float64bits(bw)}
}

// lruModel is the least-recently-used reference the replay measures the
// table against: each key stamped with its last use, the oldest evicted.
type lruModel struct {
	max   int
	clock int
	used  map[cacheKey]int
}

func newLRUModel(max int) *lruModel { return &lruModel{max: max, used: map[cacheKey]int{}} }

// get reports whether key was cached, and leaves it cached as the most
// recent.
func (m *lruModel) get(key cacheKey) bool {
	m.clock++
	_, ok := m.used[key]
	m.used[key] = m.clock
	if len(m.used) > m.max {
		oldest, at := key, m.clock
		for k, c := range m.used {
			if c < at {
				oldest, at = k, c
			}
		}
		delete(m.used, oldest)
	}
	return ok
}
