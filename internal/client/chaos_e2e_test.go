package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/faults"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/leakcheck"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/serve"
	"eyeballas/internal/snapshot"
)

// e2eArtifact builds a small snapshot for the chaos harness: two ASes
// with enough samples for a footprint render, plus an LPM table for
// lookups. Kept deliberately smaller than serve's own fixture so a
// thousand requests with retries stay fast.
func e2eArtifact(t testing.TB, dir string) string {
	t.Helper()
	gaz := gazetteer.Default()
	loc := func(country, name string) geo.Point {
		for _, c := range gaz.InCountry(country) {
			if c.Name == name {
				return c.Loc
			}
		}
		t.Fatalf("gazetteer has no %s/%s", name, country)
		return geo.Point{}
	}
	sampleAt := func(center geo.Point, i int, city, country string) core.Sample {
		return core.Sample{
			Loc: geo.Point{
				Lat: center.Lat + 0.02*float64(i%7) - 0.06,
				Lon: center.Lon + 0.02*float64(i%5) - 0.04,
			},
			Place: &core.Place{City: city, Country: country}, GeoErrKm: float64(i % 20),
		}
	}
	milan := loc("IT", "Milan")
	sydney := loc("AU", "Sydney")
	samplesA := make([]core.Sample, 0, 60)
	for i := 0; i < 60; i++ {
		samplesA = append(samplesA, sampleAt(milan, i, "Milan", "IT"))
	}
	samplesB := make([]core.Sample, 0, 40)
	for i := 0; i < 40; i++ {
		samplesB = append(samplesB, sampleAt(sydney, i, "Sydney", "AU"))
	}
	ds := &pipeline.Dataset{
		ASes: map[astopo.ASN]*pipeline.ASRecord{
			64500: {
				ASN: 64500, Users: 60, Samples: samplesA,
				PeersByApp:  map[p2p.App]int{p2p.Kad: 60},
				Class:       core.Classification{Level: astopo.LevelCountry, Place: "IT", Share: 1},
				Region:      gazetteer.EU,
				P90GeoErrKm: 15,
			},
			64501: {
				ASN: 64501, Users: 40, Samples: samplesB,
				PeersByApp:  map[p2p.App]int{p2p.BitTorrent: 40},
				Class:       core.Classification{Level: astopo.LevelCity, Place: "Sydney/AU", Share: 1},
				Region:      gazetteer.OC,
				P90GeoErrKm: 8,
			},
		},
		Order:        []astopo.ASN{64500, 64501},
		TotalPeers:   100,
		CrawledPeers: 120,
		Funnel:       obs.NewFunnel("e2e"),
	}
	tbl := ipnet.NewTable[astopo.ASN]()
	for _, pv := range []struct {
		cidr string
		asn  astopo.ASN
	}{{"10.0.0.0/8", 64500}, {"172.16.0.0/12", 64501}} {
		p, err := ipnet.ParsePrefix(pv.cidr)
		if err != nil {
			t.Fatalf("ParsePrefix(%s): %v", pv.cidr, err)
		}
		tbl.Insert(p, pv.asn)
	}
	snap := &snapshot.Snapshot{
		Meta:    snapshot.Meta{Seed: 1, Label: "chaos-e2e"},
		Dataset: ds,
		Origins: bgp.NewOriginTableFromCompiled(tbl.Compile()),
	}
	path := dir + "/e2e.snap"
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func e2eServer(t testing.TB, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opts)
	if _, err := s.LoadFile(e2eArtifact(t, t.TempDir())); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

// freshConnClient returns an http.Client that opens a new connection
// per request. Keep-alive reuse would let net/http silently re-issue a
// GET whose reused connection died — the serve-drop signature — which
// would make the server draw a second chaos decision the Observer
// never saw and break exact ledger reconciliation.
func freshConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

// e2ePaths is the request mix: every chaos-covered endpoint class,
// footprints pinned to one bandwidth so the server cache keeps KDE
// renders off the hot path.
var e2ePaths = []string{
	"/v1/as/64500",
	"/v1/as/64501",
	"/v1/lookup?ip=10.1.2.3",
	"/v1/lookup?ip=172.16.5.5",
	"/v1/lookup?ip=192.0.2.1",
	"/v1/footprint/64500?bw=40",
	"/v1/footprint/64501?bw=40",
}

// TestChaosE2E is the acceptance harness: a seeded multi-point fault
// plan at roughly 10% total rate, 1000 requests from concurrent
// workers, and every single one must end in either a byte-correct
// response (identical to a fault-free reference server) or a typed
// error — the server never crashes, and afterward the client's
// attempt observations and the server's injection ledger must agree
// count-for-count per fault point.
func TestChaosE2E(t *testing.T) {
	defer leakcheck.Check(t)()

	// Reference: same artifact, no chaos. Its responses define
	// byte-correctness.
	_, refTS := e2eServer(t, serve.Options{MaxInflight: -1})
	defer refTS.Close()
	reference := make(map[string][]byte, len(e2ePaths))
	for _, p := range e2ePaths {
		resp, err := refTS.Client().Get(refTS.URL + p)
		if err != nil {
			t.Fatalf("reference GET %s: %v", p, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("reference GET %s: status %d, %v", p, resp.StatusCode, err)
		}
		reference[p] = body
	}

	// System under test: ~10% total injection across all four serve
	// points. Shedding is off so the ledger is a pure function of
	// (seed, request count) — scheduling cannot move it.
	plan, err := faults.ParseSpec("serve-slow=0.03,serve-500=0.04,serve-panic=0.01,serve-drop=0.02", 12345)
	if err != nil {
		t.Fatal(err)
	}
	chaos := serve.NewChaos(plan, 2*time.Millisecond)
	_, ts := e2eServer(t, serve.Options{MaxInflight: -1, CacheSize: 64, Chaos: chaos})
	defer ts.Close()

	hc := freshConnClient()
	defer hc.Transport.(*http.Transport).CloseIdleConnections()

	// Client-side ledger, fed by the Observer: one event per wire
	// attempt. Transport errors are the client-visible face of
	// serve-drop; everything else carries the X-Chaos marker.
	var obsDrop, obs500, obsPanic, obsSlow, obsAttempts atomic.Uint64
	c := New(ts.URL, Options{
		HTTPClient:  hc,
		MaxAttempts: 8,
		Seed:        99,
		Breaker:     BreakerConfig{Threshold: 1 << 30},
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
		Observer: func(a Attempt) {
			obsAttempts.Add(1)
			switch {
			case a.Err != nil:
				obsDrop.Add(1)
			case a.Chaos == string(faults.Serve500):
				obs500.Add(1)
			case a.Chaos == string(faults.ServePanic):
				obsPanic.Add(1)
			case a.Chaos == string(faults.ServeSlow):
				obsSlow.Add(1)
			}
		},
	})

	const total = 1000
	const workers = 16
	var (
		wg           sync.WaitGroup
		byteWrong    atomic.Uint64
		typedErrs    atomic.Uint64
		unclassified atomic.Uint64
	)
	idx := atomic.Uint64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				if i >= total {
					return
				}
				path := e2ePaths[i%uint64(len(e2ePaths))]
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				body, err := c.Get(ctx, path)
				cancel()
				if err == nil {
					if !bytes.Equal(body, reference[path]) {
						byteWrong.Add(1)
						t.Errorf("request %d (%s): response differs from fault-free reference", i, path)
					}
					continue
				}
				var api *APIError
				switch {
				case errors.Is(err, ErrUnavailable),
					errors.Is(err, ErrOverloaded),
					errors.Is(err, ErrCircuitOpen),
					errors.Is(err, ErrRetryBudgetExhausted),
					errors.Is(err, ErrNotFound),
					errors.As(err, &api):
					typedErrs.Add(1)
				default:
					unclassified.Add(1)
					t.Errorf("request %d (%s): unclassified error: %v", i, path, err)
				}
			}
		}()
	}
	wg.Wait()

	if n := unclassified.Load(); n != 0 {
		t.Fatalf("%d unclassified errors — every failure must be typed", n)
	}
	if n := byteWrong.Load(); n != 0 {
		t.Fatalf("%d responses differed from the fault-free reference", n)
	}

	// Ledger reconciliation: the server's applied-injection counts must
	// equal what the client observed, point by point, and every chaos
	// decision the server drew must correspond to an observed attempt.
	ledger := chaos.Ledger()
	if got, want := obsDrop.Load(), ledger[faults.ServeDrop]; got != want {
		t.Errorf("serve-drop: client observed %d transport errors, server injected %d", got, want)
	}
	if got, want := obs500.Load(), ledger[faults.Serve500]; got != want {
		t.Errorf("serve-500: client observed %d, server injected %d", got, want)
	}
	if got, want := obsPanic.Load(), ledger[faults.ServePanic]; got != want {
		t.Errorf("serve-panic: client observed %d, server injected %d", got, want)
	}
	if got, want := obsSlow.Load(), ledger[faults.ServeSlow]; got != want {
		t.Errorf("serve-slow: client observed %d, server injected %d", got, want)
	}
	if got, want := obsAttempts.Load(), chaos.Requests(); got != want {
		t.Errorf("client observed %d attempts, server drew %d chaos decisions", got, want)
	}
	if ledger[faults.ServeDrop] == 0 || ledger[faults.Serve500] == 0 || ledger[faults.ServeSlow] == 0 {
		t.Errorf("fault plan injected too little to prove anything: %v", ledger)
	}

	// The server survived all of it.
	resp, err := refTS.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server unreachable after chaos run: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after chaos run: %d", resp.StatusCode)
	}
}

// TestE2ECircuitBreakerOpensAndRecovers: under a total outage
// (serve-500 at rate 1) the endpoint's circuit must open — refusing
// locally, typed — and after the fault clears and the cooldown
// elapses, a probe must close it and traffic must flow again.
func TestE2ECircuitBreakerOpensAndRecovers(t *testing.T) {
	defer leakcheck.Check(t)()

	plan, err := faults.ParseSpec("serve-500=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := e2eServer(t, serve.Options{MaxInflight: -1, Chaos: serve.NewChaos(plan, 0)})
	defer ts.Close()

	hc := freshConnClient()
	defer hc.Transport.(*http.Transport).CloseIdleConnections()
	c := New(ts.URL, Options{
		HTTPClient:  hc,
		MaxAttempts: 3,
		Breaker:     BreakerConfig{Threshold: 4, Cooldown: 50 * time.Millisecond},
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	})
	ctx := context.Background()

	// Sustained failure: within a few calls the breaker must trip and
	// the typed refusal must appear without touching the network.
	sawOpen := false
	for i := 0; i < 10 && !sawOpen; i++ {
		_, err := c.AS(ctx, 64500)
		if errors.Is(err, ErrCircuitOpen) {
			sawOpen = true
		} else if err == nil {
			t.Fatal("rate-1 serve-500 produced a success")
		}
	}
	if !sawOpen {
		t.Fatal("circuit never opened under sustained failure")
	}
	if st := c.BreakerState("as"); st != "open" && st != "half-open" {
		t.Fatalf("as breaker %s, want open", st)
	}

	// Fault clears; cooldown elapses; the next call is the half-open
	// probe, succeeds, and closes the circuit.
	srv.SetChaos(nil)
	time.Sleep(60 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.AS(ctx, 64500); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after the fault cleared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := c.BreakerState("as"); st != "closed" {
		t.Fatalf("as breaker %s after recovery, want closed", st)
	}
}

// TestE2EShedAndTimeoutPathsLeakFree drives the two degraded serve
// paths — 503 shed under a tiny admission limit and 504 render
// timeout — through the real client and verifies no goroutine outlives
// the test on either side.
func TestE2EShedAndTimeoutPathsLeakFree(t *testing.T) {
	defer leakcheck.Check(t)()

	// Shed path: limit 1, held by a stuck footprint render? Simpler: a
	// serve-slow plan plus concurrency floods a MaxInflight-1 server so
	// some requests shed with 503 + Retry-After.
	plan, err := faults.ParseSpec("serve-slow=1", 3)
	if err != nil {
		t.Fatal(err)
	}
	_, shedTS := e2eServer(t, serve.Options{
		MaxInflight: 1,
		Chaos:       serve.NewChaos(plan, 20*time.Millisecond),
	})
	defer shedTS.Close()
	hc := freshConnClient()
	defer hc.Transport.(*http.Transport).CloseIdleConnections()
	shedC := New(shedTS.URL, Options{
		HTTPClient:  hc,
		MaxAttempts: 2,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	})
	var wg sync.WaitGroup
	var sheds atomic.Uint64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				_, err := shedC.AS(context.Background(), 64500)
				if errors.Is(err, ErrOverloaded) {
					sheds.Add(1)
				} else if err != nil && !errors.Is(err, ErrCircuitOpen) {
					var api *APIError
					if !errors.As(err, &api) {
						t.Errorf("shed-path error not typed: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if sheds.Load() == 0 {
		t.Log("no request shed this run (slow fixture drained fast); shed path unexercised")
	}

	// Timeout path: a nanosecond deadline turns footprint renders into
	// 504s — an *APIError, final, never retried into a hang.
	_, toTS := e2eServer(t, serve.Options{MaxInflight: -1, Timeout: time.Nanosecond})
	defer toTS.Close()
	hc2 := freshConnClient()
	defer hc2.Transport.(*http.Transport).CloseIdleConnections()
	toC := New(toTS.URL, Options{
		HTTPClient:  hc2,
		MaxAttempts: 2,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	})
	_, err = toC.Footprint(context.Background(), 64500, 35)
	var api *APIError
	if err == nil || !errors.As(err, &api) {
		t.Fatalf("timeout-path error = %v, want a typed APIError", err)
	}
	if api.Status != http.StatusGatewayTimeout {
		t.Errorf("timeout status %d, want 504", api.Status)
	}
}
