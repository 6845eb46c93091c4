package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"eyeballas/internal/rng"
)

// instantOpts disables real sleeping so retry tests run in
// microseconds: the injected Sleep records every pause and returns
// immediately.
func instantOpts(waits *[]time.Duration) Options {
	return Options{
		Sleep: func(ctx context.Context, d time.Duration) error {
			if waits != nil {
				*waits = append(*waits, d)
			}
			return nil
		},
	}
}

func TestHappyPathTypedMethods(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok","generation":3,"ases":2,"peers":450,"degraded":false}`))
	})
	mux.HandleFunc("GET /v1/as/{asn}", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"asn":64500,"users":300,"samples":300,"class":{"level":"country","place":"IT","share":1},"region":"EU","p90_geoerr_km":18.5,"peers_by_app":{"kad":200}}`))
	})
	mux.HandleFunc("GET /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ip":"10.1.2.3","matched":true,"asn":64500,"in_dataset":true}`))
	})
	mux.HandleFunc("GET /v1/footprint/{asn}", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"asn":64500,"pops":[]}`))
	})
	mux.HandleFunc("POST /-/reload", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"reloaded","generation":4}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL, Options{})
	ctx := context.Background()

	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" || h.Generation != 3 || h.Peers != 450 {
		t.Fatalf("Healthz = %+v, %v", h, err)
	}
	as, err := c.AS(ctx, 64500)
	if err != nil || as.ASN != 64500 || as.Class.Place != "IT" || as.PeersByApp["kad"] != 200 {
		t.Fatalf("AS = %+v, %v", as, err)
	}
	lr, err := c.Lookup(ctx, "10.1.2.3")
	if err != nil || !lr.Matched || lr.ASN != 64500 {
		t.Fatalf("Lookup = %+v, %v", lr, err)
	}
	fp, err := c.Footprint(ctx, 64500, 40)
	if err != nil || string(fp) != `{"asn":64500,"pops":[]}` {
		t.Fatalf("Footprint = %q, %v", fp, err)
	}
	rl, err := c.Reload(ctx)
	if err != nil || rl.Generation != 4 {
		t.Fatalf("Reload = %+v, %v", rl, err)
	}
}

func TestNotFoundIsTypedAndNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"AS99 not in dataset"}`))
	}))
	defer ts.Close()
	c := New(ts.URL, instantOpts(nil))

	_, err := c.AS(context.Background(), 99)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 error = %v, want ErrNotFound", err)
	}
	var api *APIError
	if !errors.As(err, &api) || api.Status != 404 || api.Endpoint != "as" {
		t.Fatalf("404 error not a typed APIError: %v", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("404 hit the server %d times; a final answer must not be retried", n)
	}
}

func TestRetriesThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"transient"}`))
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	var waits []time.Duration
	c := New(ts.URL, instantOpts(&waits))

	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
	if len(waits) != 2 {
		t.Errorf("client paused %d times, want 2", len(waits))
	}
}

func TestAttemptsExhaustedReturnsLastError(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"still broken"}`))
	}))
	defer ts.Close()
	opts := instantOpts(nil)
	opts.MaxAttempts = 3
	opts.Breaker = BreakerConfig{Threshold: 100} // keep the circuit out of this test
	c := New(ts.URL, opts)

	_, err := c.Healthz(context.Background())
	var api *APIError
	if !errors.As(err, &api) || api.Status != 500 {
		t.Fatalf("exhausted error = %v, want APIError 500", err)
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want MaxAttempts=3", n)
	}
}

func TestOverloadedHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	var waits []time.Duration
	opts := instantOpts(&waits)
	opts.MaxBackoff = time.Second // jitter alone can never reach 7s
	c := New(ts.URL, opts)

	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("call failed: %v", err)
	}
	if len(waits) != 1 || waits[0] < 7*time.Second {
		t.Fatalf("pause %v did not honor Retry-After: 7", waits)
	}
}

func TestOverloadedSurfacesTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer ts.Close()
	opts := instantOpts(nil)
	opts.MaxAttempts = 2
	c := New(ts.URL, opts)

	_, err := c.Healthz(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("sustained 503 error = %v, want ErrOverloaded", err)
	}
}

func TestTransportErrorIsUnavailable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // nothing listens here any more
	opts := instantOpts(nil)
	opts.MaxAttempts = 2
	c := New(url, opts)

	_, err := c.Healthz(context.Background())
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead-server error = %v, want ErrUnavailable", err)
	}
}

func TestDeadlineAwareRetryNeverSleepsIntoAWall(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer ts.Close()
	slept := false
	c := New(ts.URL, Options{
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = true
			return nil
		},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Healthz(ctx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("error = %v, want the last real failure, not a deadline error", err)
	}
	if slept {
		t.Error("client slept toward a Retry-After its deadline could never survive")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("deadline-aware retry still burned wall-clock time")
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"broken"}`))
	}))
	defer ts.Close()
	opts := instantOpts(nil)
	opts.MaxAttempts = 4
	opts.Breaker = BreakerConfig{Threshold: 1 << 30}
	c := New(ts.URL, opts)
	c.budget.tokens = 1 // one retry left in the bucket

	_, err := c.Healthz(context.Background())
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("error = %v, want ErrRetryBudgetExhausted", err)
	}
	// First try + the single budgeted retry (the call also deposited
	// 0.2, still short of the next whole token).
	if n := hits.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2", n)
	}
}

func TestCircuitOpensAndRecovers(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"down"}`))
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	now := time.Unix(1000, 0)
	opts := instantOpts(nil)
	opts.MaxAttempts = 3
	opts.Breaker = BreakerConfig{Threshold: 4, Cooldown: time.Second}
	opts.Now = func() time.Time { return now }
	c := New(ts.URL, opts)
	ctx := context.Background()

	// Two calls × 3 attempts = 6 failures; threshold 4 trips mid-way
	// through the second call.
	c.Healthz(ctx)
	c.Healthz(ctx)
	if st := c.BreakerState("healthz"); st != "open" {
		t.Fatalf("breaker %s after sustained failure, want open", st)
	}
	wire := hits.Load()

	// Open circuit: refused locally, typed, zero network traffic.
	_, err := c.Healthz(ctx)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit error = %v, want ErrCircuitOpen", err)
	}
	if hits.Load() != wire {
		t.Error("open circuit still reached the server")
	}

	// Other endpoints are unaffected: the partition is per-endpoint.
	if st := c.BreakerState("as"); st != "closed" {
		t.Errorf("as breaker %s, want closed (isolation)", st)
	}

	// Server heals; after the cooldown one probe goes through, closes
	// the circuit, and normal traffic resumes.
	fail.Store(false)
	now = now.Add(2 * time.Second)
	if _, err := c.Healthz(ctx); err != nil {
		t.Fatalf("probe call failed: %v", err)
	}
	if st := c.BreakerState("healthz"); st != "closed" {
		t.Fatalf("breaker %s after healthy probe, want closed", st)
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second}, func() time.Time { return now })
	b.report(true)
	b.report(true)
	if b.snapshot() != breakerOpen {
		t.Fatal("threshold did not trip the breaker")
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed but the probe was refused")
	}
	// Exactly one probe at a time.
	if b.allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.report(true) // probe failed
	if b.snapshot() != breakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// And the cooldown restarts from the failed probe.
	if b.allow() {
		t.Fatal("re-opened breaker admitted a call immediately")
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		r := rng.NewSplitMix(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = backoff(&r, 50*time.Millisecond, 2*time.Second, i+1)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules diverge at retry %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter — rng not actually seeded")
	}
}

func TestBackoffFullJitterBounds(t *testing.T) {
	r := rng.NewSplitMix(3)
	base, max := 50*time.Millisecond, 2*time.Second
	for retry := 1; retry <= 10; retry++ {
		ceil := base << (retry - 1)
		if ceil > max || ceil <= 0 {
			ceil = max
		}
		for i := 0; i < 200; i++ {
			d := backoff(&r, base, max, retry)
			if d < 0 || d > ceil {
				t.Fatalf("retry %d: backoff %v outside [0, %v]", retry, d, ceil)
			}
		}
	}
}

func TestHedgedGetFirstSuccessWins(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// First request hangs until the test ends: only the hedge
			// can answer.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	defer close(release)

	opts := Options{HedgeAfter: 10 * time.Millisecond}
	c := New(ts.URL, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("hedged call = %+v, %v", h, err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("hedge did not rescue the stalled request in time")
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("server saw %d requests, want primary + hedge = 2", n)
	}
}

func TestObserverSeesEveryAttempt(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("X-Chaos", "serve-500")
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"injected"}`))
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	var seen []Attempt
	opts := instantOpts(nil)
	opts.Observer = func(a Attempt) { seen = append(seen, a) }
	c := New(ts.URL, opts)

	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("call failed: %v", err)
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d attempts, want 2", len(seen))
	}
	if seen[0].Status != 500 || seen[0].Chaos != "serve-500" {
		t.Errorf("first attempt = %+v, want injected 500 with chaos marker", seen[0])
	}
	if seen[1].Status != 200 {
		t.Errorf("second attempt = %+v, want the 200", seen[1])
	}
}
