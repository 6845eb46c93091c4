package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/leakcheck"
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
)

// warmPass returns the done channel of the server's current warm pass,
// nil when none was started since the last stop.
func warmPass(s *Server) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warmDone
}

// awaitWarm blocks until the pass finishes (done closed) or the test
// deadline trips.
func awaitWarm(t *testing.T, done chan struct{}) {
	t.Helper()
	if done == nil {
		t.Fatal("no warm pass running")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("warm pass never finished")
	}
}

func TestWarmOrder(t *testing.T) {
	ds := &pipeline.Dataset{
		ASes: map[astopo.ASN]*pipeline.ASRecord{
			1: {ASN: 1, Users: 10},
			2: {ASN: 2, Users: 30},
			3: {ASN: 3, Users: 30},
			4: {ASN: 4, Users: 500},
		},
		Order: []astopo.ASN{1, 2, 3, 4},
	}
	got := warmOrder(ds)
	want := []astopo.ASN{4, 2, 3, 1} // users desc, ASN asc on the tie
	if len(got) != len(want) {
		t.Fatalf("warmOrder returned %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.ASN != want[i] {
			t.Fatalf("warmOrder[%d] = AS%d, want AS%d (full order %v)", i, rec.ASN, want[i], asnsOf(got))
		}
	}
}

func asnsOf(recs []*pipeline.ASRecord) []astopo.ASN {
	out := make([]astopo.ASN, len(recs))
	for i, r := range recs {
		out[i] = r.ASN
	}
	return out
}

// TestWarmRendersInPriorityOrderThenHits: a warm pass renders every
// dataset AS, most users first, increments no request-funnel counters,
// and leaves the cache hot — the first live request is a hit.
func TestWarmRendersInPriorityOrderThenHits(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	path, _ := testArtifact(t, t.TempDir())
	s := New(Options{Warm: true, WarmWorkers: 1, Obs: reg})
	defer s.Close()

	var mu sync.Mutex
	var order []astopo.ASN
	s.render = func(_ context.Context, rec *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, int, error) {
		mu.Lock()
		order = append(order, rec.ASN)
		mu.Unlock()
		return []byte(fmt.Sprintf("{\"asn\":%d}\n", rec.ASN)), 1, nil
	}
	if _, err := s.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	awaitWarm(t, warmPass(s))

	mu.Lock()
	got := append([]astopo.ASN(nil), order...)
	mu.Unlock()
	// AS64500 has 300 users, AS64501 has 150: strict priority order.
	if len(got) != 2 || got[0] != 64500 || got[1] != 64501 {
		t.Fatalf("warm render order = %v, want [64500 64501]", got)
	}
	if v := reg.Gauge("eyeball_serve_warm_total").Value(); v != 2 {
		t.Errorf("warm_total = %v, want 2", v)
	}
	if v := reg.Gauge("eyeball_serve_warm_done").Value(); v != 2 {
		t.Errorf("warm_done = %v, want 2", v)
	}
	// Warm renders are not requests: the funnel must be untouched.
	if n := reg.Counter("eyeball_serve_footprint_requests_total").Value(); n != 0 {
		t.Errorf("warm pass counted %d footprint requests, want 0", n)
	}

	// The first live request for the top AS is a cache hit off the warm
	// render's bytes.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), []byte("{\"asn\":64500}\n")) {
		t.Fatalf("warmed request: %d %q", rec.Code, rec.Body.String())
	}
	if n := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheHit).Value(); n != 1 {
		t.Errorf("hit = %d, want 1 (served from the warmed cache)", n)
	}
	if n := reg.Counter("eyeball_serve_footprint_requests_total").Value(); n != 1 {
		t.Errorf("requests = %d, want 1", n)
	}
	assertFootprintFunnel(t, reg)
}

// TestWarmOnlyWhatTheCacheHolds: the pass warms the top
// min(CacheSize, ASes) by users. With room for one footprint it renders
// AS64500 (300 users) alone, so the first request for it is a hit;
// rendering AS64501 too would have evicted it. Without a cache the pass
// renders nothing.
func TestWarmOnlyWhatTheCacheHolds(t *testing.T) {
	for _, tc := range []struct {
		cacheSize int
		want      []astopo.ASN
	}{
		{1, []astopo.ASN{64500}},
		{-1, nil},
	} {
		t.Run(fmt.Sprintf("cache%d", tc.cacheSize), func(t *testing.T) {
			defer leakcheck.Check(t)()
			reg := obs.New()
			path, _ := testArtifact(t, t.TempDir())
			s := New(Options{Warm: true, CacheSize: tc.cacheSize, Obs: reg})
			defer s.Close()
			var mu sync.Mutex
			var order []astopo.ASN
			s.render = func(_ context.Context, rec *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, int, error) {
				mu.Lock()
				order = append(order, rec.ASN)
				mu.Unlock()
				return []byte(fmt.Sprintf("{\"asn\":%d}\n", rec.ASN)), 1, nil
			}
			if _, err := s.LoadFile(path); err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			awaitWarm(t, warmPass(s))
			mu.Lock()
			got := append([]astopo.ASN(nil), order...)
			mu.Unlock()
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("warm rendered %v, want %v", got, tc.want)
			}
			n := float64(len(tc.want))
			if v := reg.Gauge("eyeball_serve_warm_total").Value(); v != n {
				t.Errorf("warm_total = %v, want %v", v, n)
			}
			if v := reg.Gauge("eyeball_serve_warm_done").Value(); v != n {
				t.Errorf("warm_done = %v, want %v", v, n)
			}
			if tc.cacheSize < 1 {
				return
			}
			if rec := get(t, s.Handler(), "/v1/footprint/64500"); rec.Code != http.StatusOK {
				t.Fatalf("GET AS64500: %d %s", rec.Code, rec.Body.String())
			}
			if n := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheHit).Value(); n != 1 {
				t.Errorf("hit = %d, want 1: the most-used AS must be the one left cached", n)
			}
		})
	}
}

// TestWarmCancelOnSwapAndClose: installing a new artifact cancels the
// running pass before starting its own (at most one pass ever runs),
// Close cancels and waits out the current pass, and a closed server
// starts no further passes.
func TestWarmCancelOnSwapAndClose(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	path, _ := testArtifact(t, t.TempDir())
	s := New(Options{Warm: true, Obs: reg})

	var renders atomic.Int32
	s.render = func(ctx context.Context, _ *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, int, error) {
		renders.Add(1)
		<-ctx.Done() // park until the pass is cancelled
		return nil, 0, ctx.Err()
	}
	if _, err := s.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	w1 := warmPass(s)
	if w1 == nil {
		t.Fatal("no warm pass after load")
	}
	waitFor(t, 2*time.Second, "first warm render to start", func() bool {
		return renders.Load() >= 1
	})

	// Swap: Reload must cancel pass 1 and wait it out before pass 2
	// exists — by the time Reload returns, w1 is closed.
	if _, err := s.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	select {
	case <-w1:
	default:
		t.Fatal("previous warm pass still running after the swap")
	}
	w2 := warmPass(s)
	if w2 == nil || w2 == w1 {
		t.Fatalf("swap did not start a fresh warm pass (w2=%p w1=%p)", w2, w1)
	}
	waitFor(t, 2*time.Second, "second pass's render to start", func() bool {
		return renders.Load() >= 2
	})

	// Close cancels the pass and returns only after its workers exited.
	s.Close()
	select {
	case <-w2:
	default:
		t.Fatal("Close returned with the warm pass still running")
	}
	// Every render was cancelled: the pass never completed an AS.
	if v := reg.Gauge("eyeball_serve_warm_done").Value(); v != 0 {
		t.Errorf("warm_done = %v after cancelled passes, want 0", v)
	}
	if v := reg.Gauge("eyeball_serve_warm_total").Value(); v != 2 {
		t.Errorf("warm_total = %v, want 2", v)
	}
	if n := reg.Counter("eyeball_serve_footprint_requests_total").Value(); n != 0 {
		t.Errorf("cancelled warm passes counted %d requests, want 0", n)
	}

	// After Close, installs no longer warm.
	if _, err := s.Reload(); err != nil {
		t.Fatalf("Reload after Close: %v", err)
	}
	if w := warmPass(s); w != nil {
		t.Error("a closed server started a warm pass")
	}
	s.Close() // idempotent
}

// TestWarmRenderPanicKeepsServing: the warm pass runs on the shared
// pool, which recovers a panicking render. The pass ends, nothing is
// left in flight, the panic is counted, and the server keeps answering.
// With one worker as with two, the other AS still renders and is
// cached.
func TestWarmRenderPanicKeepsServing(t *testing.T) {
	for _, tc := range []struct {
		workers int
		done    float64 // renders the pass counts
	}{
		{1, 1},
		{2, 1},
	} {
		t.Run(fmt.Sprintf("workers-%d", tc.workers), func(t *testing.T) {
			defer leakcheck.Check(t)()
			reg := obs.New()
			path, _ := testArtifact(t, t.TempDir())
			s := New(Options{Warm: true, WarmWorkers: tc.workers, Obs: reg})
			defer s.Close()
			s.render = func(_ context.Context, rec *pipeline.ASRecord, _ *core.Points, _ float64, _ *obs.Registry) ([]byte, int, error) {
				if rec.ASN == 64500 {
					panic("render exploded")
				}
				return []byte(fmt.Sprintf("{\"asn\":%d}\n", rec.ASN)), 1, nil
			}
			if _, err := s.LoadFile(path); err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			awaitWarm(t, warmPass(s))

			if n := inFlight(s); n != 0 {
				t.Errorf("%d renders left in flight after the panic", n)
			}
			if v := reg.Gauge("eyeball_serve_warm_done").Value(); v != tc.done {
				t.Errorf("warm_done = %v, want %v", v, tc.done)
			}
			if n := reg.Counter("eyeball_serve_panics_total", "endpoint", "warm").Value(); n != 1 {
				t.Errorf("warm panics_total = %d, want 1", n)
			}
			if rec := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK {
				t.Fatalf("healthz after a panicking warm render: HTTP %d %s", rec.Code, rec.Body.String())
			}
			if rec := get(t, s.Handler(), "/v1/footprint/64501"); rec.Code != http.StatusOK {
				t.Fatalf("GET AS64501: HTTP %d %s", rec.Code, rec.Body.String())
			}
			if n := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheHit).Value(); n != 1 {
				t.Errorf("hit = %d, want 1: the other AS's warm render must have gone on", n)
			}
		})
	}
}

// TestWarmDisabledByDefault: without Options.Warm, installs start no
// pass at all.
func TestWarmDisabledByDefault(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	defer s.Close()
	if w := warmPass(s); w != nil {
		t.Fatal("warm pass started without Options.Warm")
	}
}
