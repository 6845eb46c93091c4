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
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/leakcheck"
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
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
	s.render = func(ctx context.Context, _ *gazetteer.Gazetteer, _ *pipeline.ASRecord, _ *core.Points, _ float64, _ int, _ *obs.Registry) ([]byte, error) {
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
	// it must join the in-flight call.
	wg.Add(1)
	go do(0)
	<-started
	wg.Add(total - 1)
	for i := 1; i < total; i++ {
		go do(i)
	}

	key := cacheKey{gen: s.Artifact().Gen, asn: 64500, bw: math.Float64bits(s.opts.BandwidthKm)}
	waitFor(t, 2*time.Second, "31 waiters to join the flight", func() bool {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		c := s.flight.calls[key]
		return c != nil && c.waiters.Load() == total-1
	})
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

	// The flight table holds only in-flight calls: nothing may linger.
	s.flight.mu.Lock()
	inflight := len(s.flight.calls)
	s.flight.mu.Unlock()
	if inflight != 0 {
		t.Errorf("%d calls left in the flight table after completion", inflight)
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
// cached, and the key leaves the flight table so the next request
// leads a fresh render.
func TestCoalescedWaiterSeesLeaderError(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg})

	started := make(chan struct{})
	release := make(chan struct{})
	renderErr := errors.New("kde exploded")
	var calls atomic.Int32
	s.render = func(ctx context.Context, _ *gazetteer.Gazetteer, _ *pipeline.ASRecord, _ *core.Points, _ float64, _ int, _ *obs.Registry) ([]byte, error) {
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

	key := cacheKey{gen: s.Artifact().Gen, asn: 64500, bw: math.Float64bits(s.opts.BandwidthKm)}
	waitFor(t, 2*time.Second, "the waiter to join the flight", func() bool {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		c := s.flight.calls[key]
		return c != nil && c.waiters.Load() == 1
	})
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

func strings500(body string) bool {
	return bytes.Contains([]byte(body), []byte("footprint render failed"))
}

// TestFlightGroupSemantics is the white-box contract of flightGroup:
// waiter deadlines are the waiter's own problem, completion publishes
// body and error exactly once, and a completed key immediately accepts
// a fresh leader.
func TestFlightGroupSemantics(t *testing.T) {
	g := newFlightGroup()
	key := cacheKey{gen: 1, asn: 64500, bw: math.Float64bits(40)}

	c, leader := g.join(key)
	if !leader {
		t.Fatal("first join must lead")
	}

	// A waiter whose own context is dead gets the context error without
	// disturbing the call.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, leader2 := g.join(key)
	if leader2 {
		t.Fatal("second join led a fresh call while one was in flight")
	}
	if _, err := w.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired waiter got %v, want context.Canceled", err)
	}

	// Completion releases patient waiters with the leader's result.
	done := make(chan error, 1)
	go func() {
		body, err := w.wait(context.Background())
		if err == nil && string(body) != "rendered" {
			err = fmt.Errorf("waiter body %q", body)
		}
		done <- err
	}()
	g.complete(key, c, []byte("rendered"), nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter after complete: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never released")
	}

	// complete removed the key before closing done: a late arrival
	// leads a brand-new call instead of observing the finished one.
	c2, leader3 := g.join(key)
	if !leader3 {
		t.Fatal("join after complete must lead a fresh call")
	}
	wantErr := errors.New("second render failed")
	g.complete(key, c2, nil, wantErr)
	if _, err := c2.wait(context.Background()); !errors.Is(err, wantErr) {
		t.Fatalf("error call published %v, want %v", err, wantErr)
	}
}

// inFlight returns how many flight calls the server still holds.
func inFlight(s *Server) int {
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	return len(s.flight.calls)
}

// TestFootprintTinyBandwidthFailsAtOnce: ?bw=1e-300 passes parseBW's
// (0, 5000] envelope but needs more grid cells than an int holds. Both
// requests for the key get the estimator's "domain needs" error as a
// plain 500 — no panic, no 504 for a second request parked on an
// abandoned flight — and nothing stays in flight.
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
		t.Errorf("%d flight calls left after the requests", n)
	}
	if n := reg.Counter("eyeball_serve_panics_total", "endpoint", "footprint").Value(); n != 0 {
		t.Errorf("panics_total = %d, want 0", n)
	}
}

// TestFootprintRenderPanicReleasesWaiters: a leader whose render panics
// completes its flight call before the panic continues. The waiter
// parked on the call gets an error at once instead of sitting out its
// deadline, no call is left in flight, and recoverPanic still turns the
// leader's panic into a counted 500.
func TestFootprintRenderPanicReleasesWaiters(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg, Timeout: 2 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	s.render = func(context.Context, *gazetteer.Gazetteer, *pipeline.ASRecord, *core.Points, float64, int, *obs.Registry) ([]byte, error) {
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
	key := cacheKey{gen: s.Artifact().Gen, asn: 64500, bw: math.Float64bits(s.opts.BandwidthKm)}
	waitFor(t, 2*time.Second, "the waiter to join the flight", func() bool {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		c := s.flight.calls[key]
		return c != nil && c.waiters.Load() == 1
	})
	close(release)
	wg.Wait()

	if leader.Code != http.StatusInternalServerError || !bytes.Contains(leader.Body.Bytes(), []byte("handler panicked")) {
		t.Errorf("leader: HTTP %d %s, want the recovered-panic 500", leader.Code, leader.Body.String())
	}
	if waiter.Code != http.StatusInternalServerError || !bytes.Contains(waiter.Body.Bytes(), []byte("render panicked: render exploded")) {
		t.Errorf("waiter: HTTP %d %s, want a 500 naming the render panic", waiter.Code, waiter.Body.String())
	}
	if n := inFlight(s); n != 0 {
		t.Errorf("%d flight calls left after a panicking render", n)
	}
	if n := reg.Counter("eyeball_serve_panics_total", "endpoint", "footprint").Value(); n != 1 {
		t.Errorf("panics_total = %d, want 1", n)
	}
}
