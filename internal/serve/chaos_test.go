package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"eyeballas/internal/core"
	"eyeballas/internal/faults"
	"eyeballas/internal/leakcheck"
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/snapshot"
)

func chaosPlan(t *testing.T, spec string, seed uint64) *faults.Plan {
	t.Helper()
	plan, err := faults.ParseSpec(spec, seed)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return plan
}

func TestNewChaosNilWhenNoServePoints(t *testing.T) {
	if c := NewChaos(nil, 0); c != nil {
		t.Error("nil plan produced a non-nil Chaos")
	}
	// A plan with only ingestion points armed is chaos-off for serving.
	if c := NewChaos(chaosPlan(t, "geo-miss=0.5", 1), 0); c != nil {
		t.Error("ingestion-only plan produced a non-nil Chaos")
	}
	if c := NewChaos(chaosPlan(t, "serve-500=0.1", 1), 0); c == nil {
		t.Error("serve-500 plan produced a nil Chaos")
	}
}

// TestChaosInjects500 pins the wire shape of an injected 500: status,
// X-Chaos header, JSON error body, outcome metric — and that the
// ledger counted it.
func TestChaosInjects500(t *testing.T) {
	reg := obs.New()
	c := NewChaos(chaosPlan(t, "serve-500=1", 42), 0)
	s, _, _ := newTestServer(t, Options{Obs: reg, Chaos: c})
	h := s.Handler()

	rec := get(t, h, "/v1/as/64500")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("injected 500: got %d", rec.Code)
	}
	if got := rec.Header().Get(chaosHeader); got != string(faults.Serve500) {
		t.Errorf("X-Chaos = %q, want %q", got, faults.Serve500)
	}
	if m := decodeBody(t, rec); m["error"] == nil {
		t.Errorf("injected 500 body not a JSON error: %v", m)
	}
	if n := c.Ledger()[faults.Serve500]; n != 1 {
		t.Errorf("ledger serve-500 = %d, want 1", n)
	}
	if n := reg.Counter("eyeball_serve_chaos_injections_total", "point", "serve-500").Value(); n != 1 {
		t.Errorf("injection counter = %d, want 1", n)
	}
}

// TestChaosPanicRecovered: an injected handler panic must become a 500
// on the wire — header already carrying the chaos marker — while the
// process (and the test) survives, with the panic metric bumped.
func TestChaosPanicRecovered(t *testing.T) {
	reg := obs.New()
	c := NewChaos(chaosPlan(t, "serve-panic=1", 42), 0)
	s, _, _ := newTestServer(t, Options{Obs: reg, Chaos: c})
	h := s.Handler()

	rec := get(t, h, "/v1/as/64500")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic: got %d", rec.Code)
	}
	if got := rec.Header().Get(chaosHeader); got != string(faults.ServePanic) {
		t.Errorf("X-Chaos = %q, want %q", got, faults.ServePanic)
	}
	if n := reg.Counter("eyeball_serve_panics_total", "endpoint", "as").Value(); n != 1 {
		t.Errorf("panic counter = %d, want 1", n)
	}
	if n := reg.Counter("eyeball_serve_requests_total", "endpoint", "as", "code", "500").Value(); n != 1 {
		t.Errorf("500 request counter = %d, want 1", n)
	}
	if n := c.Ledger()[faults.ServePanic]; n != 1 {
		t.Errorf("ledger serve-panic = %d, want 1", n)
	}
	// The server still serves: chaos decides per sequence, and with
	// rate 1 the next request panics too — swap chaos off and verify
	// the process is healthy.
	s.SetChaos(nil)
	if rec := get(t, h, "/v1/as/64500"); rec.Code != http.StatusOK {
		t.Fatalf("server unhealthy after recovered panic: %d", rec.Code)
	}
}

// TestGenuinePanicRecovered: the recovery middleware is not
// chaos-specific — a handler that panics on its own merits gets the
// same 500 + metric + flight-recorder containment.
func TestGenuinePanicRecovered(t *testing.T) {
	reg := obs.New()
	s := New(Options{Obs: reg})
	boom := s.instrument("boom", true, func(w http.ResponseWriter, r *http.Request) {
		panic("genuine bug")
	})
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered genuine panic: got %d", rec.Code)
	}
	if n := reg.Counter("eyeball_serve_panics_total", "endpoint", "boom").Value(); n != 1 {
		t.Errorf("panic counter = %d, want 1", n)
	}
}

// TestChaosDropSeversConnection: serve-drop panics http.ErrAbortHandler,
// which the recovery middleware must re-raise (the stdlib contract for
// silent connection teardown) rather than convert to a 500.
func TestChaosDropSeversConnection(t *testing.T) {
	c := NewChaos(chaosPlan(t, "serve-drop=1", 42), 0)
	s, _, _ := newTestServer(t, Options{Chaos: c})
	h := s.Handler()

	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Errorf("recovered %v, want http.ErrAbortHandler to propagate", r)
		}
		if n := c.Ledger()[faults.ServeDrop]; n != 1 {
			t.Errorf("ledger serve-drop = %d, want 1", n)
		}
	}()
	// ServeHTTP on the raw handler: net/http would catch the abort and
	// sever the TCP stream; here the panic reaches the test directly.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/as/64500", nil))
	t.Fatal("serve-drop did not abort the handler")
}

// TestChaosDropOverWire: through a real HTTP server, a dropped request
// surfaces client-side as a transport error, never as a response.
func TestChaosDropOverWire(t *testing.T) {
	c := NewChaos(chaosPlan(t, "serve-drop=1", 42), 0)
	s, _, _ := newTestServer(t, Options{Chaos: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/as/64500")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("dropped request produced a response: %d", resp.StatusCode)
	}
}

// TestChaosSlowDelays: serve-slow must stretch the request by its
// site-derived delay and mark the (otherwise successful) response.
func TestChaosSlowDelays(t *testing.T) {
	slowMax := 30 * time.Millisecond
	c := NewChaos(chaosPlan(t, "serve-slow=1", 42), slowMax)
	s, _, _ := newTestServer(t, Options{Chaos: c})
	h := s.Handler()

	start := time.Now()
	rec := get(t, h, "/v1/as/64500")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("slow request failed: %d", rec.Code)
	}
	if got := rec.Header().Get(chaosHeader); got != string(faults.ServeSlow) {
		t.Errorf("X-Chaos = %q, want %q", got, faults.ServeSlow)
	}
	if elapsed < slowMax/8 {
		t.Errorf("request took %v, expected at least %v of injected delay", elapsed, slowMax/8)
	}
}

// TestChaosLedgerDeterministicAcrossWorkers is the replay guarantee:
// the same seed and request count produce the identical ledger whether
// the requests arrive sequentially or from 16 goroutines at once —
// decisions are functions of (seed, point, sequence), never schedule.
func TestChaosLedgerDeterministicAcrossWorkers(t *testing.T) {
	defer leakcheck.Check(t)()
	const n = 400
	spec := "serve-slow=0.05,serve-500=0.1,serve-panic=0.05,serve-drop=0.05"

	run := func(workers int) map[faults.Point]uint64 {
		c := NewChaos(chaosPlan(t, spec, 77), time.Microsecond)
		s, _, _ := newTestServer(t, Options{Chaos: c, MaxInflight: -1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		client := ts.Client()
		client.Timeout = 10 * time.Second

		var wg sync.WaitGroup
		per := n / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					resp, err := client.Get(ts.URL + "/v1/as/64500")
					if err == nil {
						resp.Body.Close()
					}
				}
			}()
		}
		wg.Wait()
		if got := c.Requests(); got != n {
			t.Errorf("workers=%d: %d requests drew sites, want %d", workers, got, n)
		}
		return c.Ledger()
	}

	seq := run(1)
	par := run(16)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("ledger differs across worker counts:\nseq: %v\npar: %v", seq, par)
	}
	total := uint64(0)
	for _, v := range seq {
		total += v
	}
	if total == 0 {
		t.Fatal("a 10 percent-class plan injected nothing across 400 requests")
	}
}

// TestChaosOffIsInert: a nil chaos (the default) must leave every
// response untouched — no header, no ledger, byte-identical behavior —
// and impose zero extra allocations on the hot path.
func TestChaosOffIsInert(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()
	rec := get(t, h, "/v1/as/64500")
	if rec.Code != http.StatusOK {
		t.Fatalf("chaos-off request: %d", rec.Code)
	}
	if got := rec.Header().Get(chaosHeader); got != "" {
		t.Errorf("chaos-off response carries X-Chaos %q", got)
	}
	if s.ChaosState() != nil {
		t.Error("ChaosState non-nil with chaos off")
	}
	var nilChaos *Chaos
	for pt, v := range nilChaos.Ledger() {
		if v != 0 {
			t.Errorf("nil ledger %s = %d", pt, v)
		}
	}
	if nilChaos.Requests() != 0 {
		t.Error("nil chaos counted requests")
	}
}

// TestChaosOffZeroExtraAllocs pins the rule for the chaos layer: with
// chaos disarmed, the lookup path must allocate exactly what it
// allocated before the layer existed — the chaos branch is free. The
// request is BenchmarkLookup's, a fresh httptest request and recorder
// per call, which made 44 allocations before the layer and 44 with it;
// since only the footprint routes take a deadline it makes 39. Anything
// above that means the middleware grew. The race detector adds an
// allocation, so the exact count is checked without it.
func TestChaosOffZeroExtraAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts move under the race detector")
	}
	s, _, _ := newTestServer(t, Options{})
	allocs := testing.AllocsPerRun(200, serveGet(t, s.Handler(), "/v1/lookup?ip=10.1.2.3"))
	if allocs > 39 {
		t.Errorf("chaos-off lookup dispatch allocates %.0f/op, want ≤ 39", allocs)
	}
}

// TestChaosSlowAppliedAfterAdmission: a request shed by the limiter
// never reaches its serve-slow sleep, so the ledger (applied faults)
// stays in lockstep with what clients can observe.
func TestChaosSlowAppliedAfterAdmission(t *testing.T) {
	c := NewChaos(chaosPlan(t, "serve-slow=1", 42), time.Millisecond)
	s, _, _ := newTestServer(t, Options{Chaos: c, MaxInflight: 1})
	h := s.Handler()

	if ok, _ := s.lim.acquire(); !ok {
		t.Fatal("could not occupy the only slot")
	}
	rec := get(t, h, "/v1/as/64500")
	s.lim.release(time.Millisecond, time.Now().UnixNano())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected shed 503, got %d", rec.Code)
	}
	if n := c.Ledger()[faults.ServeSlow]; n != 0 {
		t.Errorf("shed request counted as slowed: ledger = %d", n)
	}
	if got := c.Requests(); got != 1 {
		t.Errorf("shed request did not draw a site: %d", got)
	}
	// Admitted now: the slow fault applies and the ledger catches up.
	rec = get(t, h, "/v1/as/64500")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-shed request: %d", rec.Code)
	}
	if n := c.Ledger()[faults.ServeSlow]; n != 1 {
		t.Errorf("admitted slow request not in ledger: %d", n)
	}
}

// TestReloadFailRollsBack: with the reload-fail point armed at rate 1,
// a reload decodes fine but is refused before the swap: the serving
// generation stays, the rollback counter is bumped, and the refusal
// uses up no generation number, so the next good reload gets gen+1.
func TestReloadFailRollsBack(t *testing.T) {
	reg := obs.New()
	c := NewChaos(chaosPlan(t, "reload-fail=1", 42), 0)
	s, _, _ := newTestServer(t, Options{Obs: reg, Chaos: c})
	h := s.Handler()
	gen := s.Artifact().Gen

	req := httptest.NewRequest(http.MethodPost, "/-/reload", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("rolled-back reload: got %d %s", rec.Code, rec.Body.String())
	}
	m := decodeBody(t, rec)
	if m["rolled_back"] != true {
		t.Errorf("reload response missing rolled_back: %v", m)
	}
	if m["generation"] != float64(gen) {
		t.Errorf("reload response generation %v, want serving %d", m["generation"], gen)
	}
	if s.Artifact().Gen != gen {
		t.Errorf("serving generation %d after rollback, want %d", s.Artifact().Gen, gen)
	}
	if n := reg.Counter("eyeball_serve_reload_rollbacks_total").Value(); n != 1 {
		t.Errorf("rollback counter = %d, want 1", n)
	}
	if n := c.Ledger()[faults.ReloadFail]; n != 1 {
		t.Errorf("ledger reload-fail = %d, want 1", n)
	}
	if g := reg.Gauge("eyeball_serve_snapshot_generation").Value(); g != float64(gen) {
		t.Errorf("generation gauge %v after rollback, want %d", g, gen)
	}
	// The serving artifact still answers.
	if rec := get(t, h, "/v1/as/64500"); rec.Code != http.StatusOK {
		t.Errorf("artifact not serving after rollback: %d", rec.Code)
	}

	// Disarm chaos: the next reload succeeds and takes the next
	// generation number.
	s.SetChaos(nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/-/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-rollback reload: %d %s", rec.Code, rec.Body.String())
	}
	if got := s.Artifact().Gen; got != gen+1 {
		t.Errorf("generation after recovery = %d, want %d", got, gen+1)
	}
}

// TestRefusedReloadKeepsServingCache: a refused reload changes nothing
// the server holds. Two cached bodies stay cached, a repeat request for
// one is a hit that adds no render cells, and with warming on, the pass
// still running at the reload goes on untouched, its gauges unchanged.
func TestRefusedReloadKeepsServingCache(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			defer leakcheck.Check(t)()
			reg := obs.New()
			path, _ := testArtifact(t, t.TempDir())
			s := New(Options{Obs: reg, Warm: warm, Chaos: NewChaos(chaosPlan(t, "reload-fail=1", 42), 0)})
			defer s.Close()
			// The warm pass renders AS64500, then parks on AS64501 until
			// release closes, so it is still running when the reload comes.
			release := make(chan struct{})
			s.render = func(ctx context.Context, rec *pipeline.ASRecord, pts *core.Points, bw float64, reg *obs.Registry) ([]byte, int, error) {
				if rec.ASN == 64501 {
					select {
					case <-release:
					case <-ctx.Done():
						return nil, 0, ctx.Err()
					}
				}
				return renderServed(ctx, rec, pts, bw, reg)
			}
			if _, err := s.LoadFile(path); err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			if warm {
				waitFor(t, 5*time.Second, "AS64500's warm render", func() bool {
					return reg.Gauge("eyeball_serve_warm_done").Value() == 1
				})
			}
			h := s.Handler()
			for _, url := range []string{"/v1/footprint/64500", "/v1/footprint/64500?bw=60"} {
				if rec := get(t, h, url); rec.Code != http.StatusOK {
					t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body.String())
				}
			}
			entries := reg.Gauge("eyeball_serve_footprint_cache_entries")
			cells := reg.Counter("eyeball_serve_footprint_render_cells_total")
			hits := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheHit)
			if n := entries.Value(); n != 2 {
				t.Fatalf("cache entries = %v before the reload, want 2", n)
			}
			gen, pass, cellsBefore, hitsBefore := s.Artifact().Gen, warmPass(s), cells.Value(), hits.Value()

			if _, err := s.Reload(); !errors.Is(err, ErrReloadRolledBack) {
				t.Fatalf("Reload under reload-fail=1: %v, want ErrReloadRolledBack", err)
			}
			if got := s.Artifact().Gen; got != gen {
				t.Errorf("serving generation %d after the refused reload, want %d", got, gen)
			}
			if n := entries.Value(); n != 2 {
				t.Errorf("cache entries = %v after the refused reload, want 2", n)
			}
			if rec := get(t, h, "/v1/footprint/64500?bw=60"); rec.Code != http.StatusOK {
				t.Fatalf("repeat GET: %d %s", rec.Code, rec.Body.String())
			}
			if n := hits.Value(); n != hitsBefore+1 {
				t.Errorf("repeat request was not a hit: hits %d -> %d", hitsBefore, n)
			}
			if n := cells.Value(); n != cellsBefore {
				t.Errorf("render cells %d -> %d across the refused reload and a cached request", cellsBefore, n)
			}
			if !warm {
				return
			}
			if got := warmPass(s); got != pass {
				t.Fatal("the refused reload replaced the warm pass")
			}
			select {
			case <-pass:
				t.Fatal("the refused reload stopped the running warm pass")
			default:
			}
			if v := reg.Gauge("eyeball_serve_warm_total").Value(); v != 2 {
				t.Errorf("warm_total = %v, want 2", v)
			}
			if v := reg.Gauge("eyeball_serve_warm_done").Value(); v != 1 {
				t.Errorf("warm_done = %v, want 1 (AS64501 still parked)", v)
			}
			close(release)
			awaitWarm(t, pass)
			if v := reg.Gauge("eyeball_serve_warm_done").Value(); v != 2 {
				t.Errorf("warm_done = %v after the pass ended, want 2", v)
			}
		})
	}
}

// TestReloadRefusesStructuralDamage: a reload's checks are real, not
// just a chaos hook. A reload of a CRC-valid file whose funnel ledger
// leaks is refused before the swap, leaving the generation and the
// cached body as they were.
func TestReloadRefusesStructuralDamage(t *testing.T) {
	reg := obs.New()
	s, path, snap := newTestServer(t, Options{Obs: reg})
	if err := validate(snap); err != nil {
		t.Fatalf("healthy artifact failed validate: %v", err)
	}

	h := s.Handler()
	before := get(t, h, "/v1/footprint/64500").Body.Bytes()
	gen := s.Artifact().Gen
	if err := snapshot.WriteFile(path, leakySnapshot(snap)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); !errors.Is(err, ErrReloadRolledBack) {
		t.Fatalf("Reload of a leaky artifact: %v, want ErrReloadRolledBack", err)
	}
	if got := s.Artifact().Gen; got != gen {
		t.Errorf("serving generation %d after the refused reload, want %d", got, gen)
	}
	if n := reg.Gauge("eyeball_serve_footprint_cache_entries").Value(); n != 1 {
		t.Errorf("cache entries = %v after the refused reload, want 1", n)
	}
	after := get(t, h, "/v1/footprint/64500")
	if !bytes.Equal(after.Body.Bytes(), before) {
		t.Error("footprint body changed across a refused reload")
	}
	if n := reg.Counter("eyeball_serve_footprint_cache_total", "result", cacheHit).Value(); n != 1 {
		t.Errorf("hits = %d, want 1: the cached body must survive the refused reload", n)
	}
}
