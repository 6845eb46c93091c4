package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eyeballas/internal/core"
	"eyeballas/internal/leakcheck"
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
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
	s.render = func(ctx context.Context, _ *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, error) {
		if renders.Add(1) == 1 {
			close(started)
		}
		select {
		case <-release:
			return want, nil
		case <-ctx.Done():
			return nil, ctx.Err()
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
	s.render = func(ctx context.Context, _ *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return nil, renderErr
		}
		return []byte("{\"ok\":true}\n"), nil
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
		return func(ctx context.Context, rec *pipeline.ASRecord, pts *core.Points, bw float64, reg *obs.Registry) ([]byte, error) {
			if calls.Add(1) == 1 {
				close(started)
				stall(ctx)
				return nil, ctx.Err()
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
	tab.finish(e, []byte("rendered"), nil)
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
	tab.finish(f, nil, wantErr)
	if _, err := f.wait(context.Background()); !errors.Is(err, wantErr) {
		t.Fatalf("failed render published %v, want %v", err, wantErr)
	}
	if _, result := tab.get(failed); result != cacheMiss {
		t.Fatalf("lookup after a failed render: %s, want %s", result, cacheMiss)
	}

	// With caching off, lookups before finish still coalesce, and
	// nothing is kept after it.
	off := newRenderTable(-1, nil)
	e, _ = off.get(key)
	if _, result := off.get(key); result != cacheCoalesced {
		t.Fatalf("uncached table, lookup in flight: %s, want %s", result, cacheCoalesced)
	}
	off.finish(e, []byte("rendered"), nil)
	if len(off.items) != 0 || off.lru.Len() != 0 || off.bytes != 0 {
		t.Fatalf("uncached table kept %d entries (%d cached, %d B)", len(off.items), off.lru.Len(), off.bytes)
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
		if e.el == nil {
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
		return e != nil && e.el == nil && e.waiters == n
	})
}

// TestFootprintTinyBandwidthFailsAtOnce: ?bw=1e-300 passes parseBW's
// (0, 5000] envelope but needs more grid cells than an int holds. Both
// requests for the key get the estimator's "domain needs" error as a
// plain 500 — no panic, no 504 for a second request parked on an
// abandoned render — and nothing stays in flight.
func TestFootprintTinyBandwidthFailsAtOnce(t *testing.T) {
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg, Timeout: 300 * time.Millisecond})
	h := s.Handler()
	first := get(t, h, "/v1/footprint/64500?bw=1e-300")
	second := get(t, h, "/v1/footprint/64500?bw=1e-300")
	for i, rec := range []*httptest.ResponseRecorder{first, second} {
		if rec.Code != http.StatusInternalServerError || !strings500(rec.Body.String()) ||
			!bytes.Contains(rec.Body.Bytes(), []byte("domain needs")) {
			t.Errorf("request %d: HTTP %d %s, want 500 with the domain-size error", i, rec.Code, rec.Body.String())
		}
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("bodies differ:\n%s\n%s", first.Body.String(), second.Body.String())
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
	s.render = func(context.Context, *pipeline.ASRecord, *core.Points, float64, *obs.Registry) ([]byte, error) {
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
