package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/leakcheck"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/snapshot"
)

// testGaz is the gazetteer every server maps peaks with.
var testGaz = gazetteer.Default()

// testArtifact builds a small snapshot file on disk: two ASes whose
// samples sit on real gazetteer cities (so footprints resolve to PoPs)
// plus a two-prefix origin table.
func testArtifact(t testing.TB, dir string) (string, *snapshot.Snapshot) {
	t.Helper()
	milan := cityLoc(t, "IT", "Milan")
	rome := cityLoc(t, "IT", "Rome")
	sydney := cityLoc(t, "AU", "Sydney")

	samplesA := make([]core.Sample, 0, 300)
	for i := 0; i < 200; i++ {
		samplesA = append(samplesA, sampleAt(milan, i, "Milan", "IT"))
	}
	for i := 0; i < 100; i++ {
		samplesA = append(samplesA, sampleAt(rome, i, "Rome", "IT"))
	}
	recA := &pipeline.ASRecord{
		ASN: 64500, Users: 300, Samples: samplesA,
		PeersByApp:  map[p2p.App]int{p2p.Kad: 200, p2p.Gnutella: 100},
		Class:       core.Classification{Level: astopo.LevelCountry, Place: "IT", Share: 1},
		Region:      gazetteer.EU,
		P90GeoErrKm: 18.5,
	}
	samplesB := make([]core.Sample, 0, 150)
	for i := 0; i < 150; i++ {
		samplesB = append(samplesB, sampleAt(sydney, i, "Sydney", "AU"))
	}
	recB := &pipeline.ASRecord{
		ASN: 64501, Users: 150, Samples: samplesB,
		PeersByApp:  map[p2p.App]int{p2p.BitTorrent: 150},
		Class:       core.Classification{Level: astopo.LevelCity, Place: "Sydney/AU", Share: 1},
		Region:      gazetteer.OC,
		P90GeoErrKm: 9.25,
	}
	ds := &pipeline.Dataset{
		ASes:         map[astopo.ASN]*pipeline.ASRecord{64500: recA, 64501: recB},
		Order:        []astopo.ASN{64500, 64501},
		TotalPeers:   450,
		CrawledPeers: 500,
		Funnel:       obs.NewFunnel("test"),
	}
	tbl := ipnet.NewTable[astopo.ASN]()
	insertPrefix(t, tbl, "10.0.0.0/8", 64500)
	insertPrefix(t, tbl, "172.16.0.0/12", 64501)
	snap := &snapshot.Snapshot{
		Meta:    snapshot.Meta{Seed: 1, Label: "serve-test"},
		Dataset: ds,
		Origins: bgp.NewOriginTableFromCompiled(tbl.Compile()),
	}
	path := dir + "/test.snap"
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path, snap
}

func cityLoc(t testing.TB, country, name string) geo.Point {
	t.Helper()
	for _, c := range testGaz.InCountry(country) {
		if c.Name == name {
			return c.Loc
		}
	}
	t.Fatalf("gazetteer has no %s/%s", name, country)
	return geo.Point{}
}

// sampleAt jitters users deterministically around a city center.
func sampleAt(center geo.Point, i int, city, country string) core.Sample {
	return core.Sample{
		Loc: geo.Point{
			Lat: center.Lat + 0.02*float64(i%7) - 0.06,
			Lon: center.Lon + 0.02*float64(i%5) - 0.04,
		},
		Place: &core.Place{City: city, Country: country}, GeoErrKm: float64(i % 30),
	}
}

func insertPrefix(t testing.TB, tbl *ipnet.Table[astopo.ASN], cidr string, asn astopo.ASN) {
	t.Helper()
	p, err := ipnet.ParsePrefix(cidr)
	if err != nil {
		t.Fatalf("ParsePrefix(%s): %v", cidr, err)
	}
	tbl.Insert(p, asn)
}

func newTestServer(t testing.TB, opts Options) (*Server, string, *snapshot.Snapshot) {
	t.Helper()
	path, snap := testArtifact(t, t.TempDir())
	s := New(opts)
	if _, err := s.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	return s, path, snap
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("response %q is not JSON: %v", rec.Body.String(), err)
	}
	return m
}

func TestHealthz(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	m := decodeBody(t, rec)
	if m["status"] != "ok" || m["ases"] != float64(2) || m["generation"] != float64(1) {
		t.Errorf("healthz body: %v", m)
	}

	// No artifact yet → 503.
	empty := New(Options{})
	rec = get(t, empty.Handler(), "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("empty server healthz: %d", rec.Code)
	}
}

func TestASEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()

	rec := get(t, h, "/v1/as/64500")
	if rec.Code != http.StatusOK {
		t.Fatalf("as: %d %s", rec.Code, rec.Body.String())
	}
	m := decodeBody(t, rec)
	if m["asn"] != float64(64500) || m["users"] != float64(300) || m["region"] != "EU" {
		t.Errorf("as body: %v", m)
	}
	class := m["class"].(map[string]any)
	if class["level"] != "country" || class["place"] != "IT" {
		t.Errorf("class: %v", class)
	}
	apps := m["peers_by_app"].(map[string]any)
	if apps["kad"] != float64(200) || apps["gnutella"] != float64(100) {
		t.Errorf("peers_by_app: %v", apps)
	}

	if rec := get(t, h, "/v1/as/99999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown AS: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/as/banana"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ASN: %d", rec.Code)
	}
}

func TestLookupEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()

	rec := get(t, h, "/v1/lookup?ip=10.1.2.3")
	m := decodeBody(t, rec)
	if rec.Code != http.StatusOK || m["asn"] != float64(64500) || m["matched"] != true || m["in_dataset"] != true {
		t.Errorf("lookup 10.1.2.3: %d %v", rec.Code, m)
	}
	rec = get(t, h, "/v1/lookup?ip=8.8.8.8")
	m = decodeBody(t, rec)
	if rec.Code != http.StatusOK || m["matched"] != false {
		t.Errorf("lookup miss: %d %v", rec.Code, m)
	}
	if rec := get(t, h, "/v1/lookup?ip=999.1.1.1"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ip: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/lookup"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing ip: %d", rec.Code)
	}
}

func TestFootprintEndpointAndCache(t *testing.T) {
	reg := obs.New()
	s, _, snap := newTestServer(t, Options{Obs: reg})
	h := s.Handler()

	rec := get(t, h, "/v1/footprint/64500")
	if rec.Code != http.StatusOK {
		t.Fatalf("footprint: %d %s", rec.Code, rec.Body.String())
	}
	first := rec.Body.Bytes()

	// Served bytes must equal RenderFootprint on the same record — the
	// offline/online bit-identity the CI step checks end to end.
	want, err := RenderFootprint(context.Background(), testGaz, snap.Dataset.AS(64500), 40, 1, nil)
	if err != nil {
		t.Fatalf("RenderFootprint: %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("served footprint differs from offline render:\n%s\nvs\n%s", first, want)
	}

	// Second hit: served from cache, byte-identical.
	rec = get(t, h, "/v1/footprint/64500")
	if !bytes.Equal(rec.Body.Bytes(), first) {
		t.Fatal("cached footprint differs from first render")
	}
	if hits := reg.Counter("eyeball_serve_footprint_cache_total", "result", "hit").Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// A different bandwidth is a different cache key and different output.
	rec = get(t, h, "/v1/footprint/64500?bw=80")
	if rec.Code != http.StatusOK {
		t.Fatalf("footprint bw=80: %d", rec.Code)
	}
	if bytes.Equal(rec.Body.Bytes(), first) {
		t.Error("bw=80 served the bw=40 bytes")
	}
	if rec := get(t, h, "/v1/footprint/64500?bw=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad bw: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/footprint/99999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown AS: %d", rec.Code)
	}
}

// TestFootprintConcurrentIdentical hammers one footprint from many
// goroutines through cache misses and hits, at two bandwidths whose
// renders share the AS's prepared points; every response must be
// byte-identical (run under -race in CI).
func TestFootprintConcurrentIdentical(t *testing.T) {
	s, _, _ := newTestServer(t, Options{CacheSize: 2})
	h := s.Handler()
	want := map[int][]byte{}
	for _, bw := range []int{40, 80} {
		want[bw] = get(t, h, fmt.Sprintf("/v1/footprint/64500?bw=%d", bw)).Body.Bytes()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bw := []int{40, 80}[g%2]
			for k := 0; k < 4; k++ {
				asn := 64500
				if (g/2+k)%2 == 1 {
					asn = 64501 // churn the 2-entry cache
				}
				req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/footprint/%d?bw=%d", asn, bw), nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: HTTP %d", g, rec.Code)
					return
				}
				if asn == 64500 && !bytes.Equal(rec.Body.Bytes(), want[bw]) {
					errs <- fmt.Errorf("goroutine %d: bytes diverged at bw %d", g, bw)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLoadShedding(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{MaxInflight: 1, Obs: reg})
	h := s.Handler()

	// Occupy the single slot directly (white box), then request.
	if ok, _ := s.lim.acquire(); !ok {
		t.Fatal("could not occupy the only slot")
	}
	rec := get(t, h, "/v1/as/64500")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected shed 503, got %d", rec.Code)
	}
	// Cold server: no drain-rate estimate yet, so Retry-After is the
	// optimistic floor. (limiter_test.go pins the derived values.)
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	if n := reg.Counter("eyeball_serve_shed_total", "endpoint", "as").Value(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}

	// healthz is exempt from the limiter (slot still occupied).
	rec = get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("healthz shed: %d", rec.Code)
	}
	s.lim.release(time.Millisecond, time.Now().UnixNano())

	// Slot free again → served.
	if rec := get(t, h, "/v1/as/64500"); rec.Code != http.StatusOK {
		t.Errorf("post-shed request: %d", rec.Code)
	}
}

func TestRequestTimeout(t *testing.T) {
	defer leakcheck.Check(t)()
	// A 1ns deadline cancels the KDE render at its first block check.
	s, _, _ := newTestServer(t, Options{Timeout: time.Nanosecond})
	rec := get(t, s.Handler(), "/v1/footprint/64500")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expected 504, got %d %s", rec.Code, rec.Body.String())
	}
}

func TestHotReload(t *testing.T) {
	reg := obs.New()
	s, path, _ := newTestServer(t, Options{Obs: reg})
	h := s.Handler()
	if g := s.Artifact().Gen; g != 1 {
		t.Fatalf("initial generation %d", g)
	}

	// Reload the same file: new generation, still serving.
	req := httptest.NewRequest(http.MethodPost, "/-/reload", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	if m := decodeBody(t, rec); m["generation"] != float64(2) {
		t.Errorf("reload body: %v", m)
	}
	if g := reg.Gauge("eyeball_serve_snapshot_generation").Value(); g != 2 {
		t.Errorf("generation gauge = %v, want 2", g)
	}

	// Corrupt the file on disk: reload must fail with the snapshot's
	// typed error and the old artifact must keep serving.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, "/-/reload", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: %d %s", rec.Code, rec.Body.String())
	}
	m := decodeBody(t, rec)
	if !strings.Contains(m["error"].(string), "snapshot:") {
		t.Errorf("corrupt reload error not typed: %v", m["error"])
	}
	if m["generation"] != float64(2) {
		t.Errorf("corrupt reload should report the still-serving generation, got %v", m["generation"])
	}
	if rec := get(t, h, "/v1/as/64500"); rec.Code != http.StatusOK {
		t.Errorf("old artifact stopped serving after failed reload: %d", rec.Code)
	}
	if s.Artifact().Gen != 2 {
		t.Errorf("generation advanced on failed reload: %d", s.Artifact().Gen)
	}
}

// leakySnapshot returns good with a funnel ledger that leaks: bytes a
// decoder accepts, structure validate refuses.
func leakySnapshot(good *snapshot.Snapshot) *snapshot.Snapshot {
	leaky := *good
	ds := *good.Dataset
	ds.Funnel = obs.NewFunnel("pipeline")
	geoStage := ds.Funnel.Stage("geolocate").DeclareReasons("no_city_record")
	geoStage.In(500)
	geoStage.Drop("no_city_record", 40)
	geoStage.Out(450) // 10 peers unaccounted for
	leaky.Dataset = &ds
	return &leaky
}

// TestLoadFileRejectsLeakyLedger: an artifact whose bytes are valid but
// whose funnel ledger leaks is refused at start-up with the same
// structural error a reload of it is refused on, and nothing is
// installed.
func TestLoadFileRejectsLeakyLedger(t *testing.T) {
	dir := t.TempDir()
	path, good := testArtifact(t, dir)
	leakyPath := filepath.Join(dir, "leaky.snap")
	if err := snapshot.WriteFile(leakyPath, leakySnapshot(good)); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	s := New(Options{Obs: reg})
	defer s.Close()
	a, loadErr := s.LoadFile(leakyPath)
	if loadErr == nil || !strings.Contains(loadErr.Error(), "leaks") {
		t.Fatalf("LoadFile of a leaky artifact: got (%v, %v), want a leak error", a, loadErr)
	}
	if s.Artifact() != nil {
		t.Errorf("leaky artifact installed as generation %d", s.Artifact().Gen)
	}
	if g := reg.Gauge("eyeball_serve_snapshot_generation").Value(); g != 0 {
		t.Errorf("generation gauge = %v after a refused load, want 0", g)
	}

	// Reload applies the same check: serve the good file, then swap the
	// leaky one in under its path.
	if _, err := s.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	data, err := os.ReadFile(leakyPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, reloadErr := s.Reload()
	if !errors.Is(reloadErr, ErrReloadRolledBack) || !strings.Contains(reloadErr.Error(), loadErr.Error()) {
		t.Errorf("Reload of the leaky file: %v, want a refusal on %q", reloadErr, loadErr)
	}
}

func TestReloadInvalidatesFootprintCache(t *testing.T) {
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg})
	h := s.Handler()
	before := get(t, h, "/v1/footprint/64500").Body.Bytes()
	if _, err := s.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	// Same dataset, new generation: the cache key changed, so this is a
	// fresh render — and being deterministic, it must still byte-match.
	after := get(t, h, "/v1/footprint/64500").Body.Bytes()
	if !bytes.Equal(before, after) {
		t.Fatal("footprint changed across a reload of the same artifact")
	}
	// The reload dropped the first generation's body.
	if n := reg.Gauge("eyeball_serve_footprint_cache_entries").Value(); n != 1 {
		t.Errorf("cache entries = %v, want 1 (the new generation's)", n)
	}
	if n := reg.Gauge("eyeball_serve_footprint_cache_bytes").Value(); n != float64(len(after)) {
		t.Errorf("cache bytes = %v, want %d (the new generation's body)", n, len(after))
	}
}

// TestBandwidthValidation is the regression table for the ?bw= guard:
// the old `!(v > 0)` check rejected only NaN and non-positives, so
// +Inf (and absurd-but-finite values like 1e300) reached the KDE. The
// envelope is now finite and (0, MaxBandwidthKm]; both footprint
// endpoints share it.
func TestBandwidthValidation(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()
	cases := []struct {
		name string
		raw  string // already URL-escaped where needed
		want int
	}{
		{"plus-inf", "%2BInf", http.StatusBadRequest},
		{"inf", "Inf", http.StatusBadRequest},
		{"neg-inf", "-Inf", http.StatusBadRequest},
		{"nan", "NaN", http.StatusBadRequest},
		{"zero", "0", http.StatusBadRequest},
		{"negative", "-1", http.StatusBadRequest},
		{"too-large", "5001", http.StatusBadRequest},
		{"huge-finite", "1e300", http.StatusBadRequest},
		{"garbage", "banana", http.StatusBadRequest},
		{"paper-kernel", "40", http.StatusOK},
		{"max", "5000", http.StatusOK},
		{"small", "0.5", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run("single/"+tc.name, func(t *testing.T) {
			rec := get(t, h, "/v1/footprint/64500?bw="+tc.raw)
			if rec.Code != tc.want {
				t.Fatalf("bw=%s: HTTP %d, want %d (%s)", tc.raw, rec.Code, tc.want, rec.Body.String())
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "bad bandwidth") {
				t.Errorf("bw=%s: 400 body %q lacks the bandwidth message", tc.raw, rec.Body.String())
			}
		})
		t.Run("bulk/"+tc.name, func(t *testing.T) {
			rec := get(t, h, "/v1/footprints?asns=64500&bw="+tc.raw)
			if rec.Code != tc.want {
				t.Fatalf("bulk bw=%s: HTTP %d, want %d (%s)", tc.raw, rec.Code, tc.want, rec.Body.String())
			}
		})
	}
	// An empty bw value means "server default", exactly like an absent
	// parameter.
	if rec := get(t, h, "/v1/footprint/64500?bw="); rec.Code != http.StatusOK {
		t.Errorf("empty bw: HTTP %d, want 200", rec.Code)
	}
}

// TestBulkFootprints pins the bulk endpoint's contract: the response
// body is the concatenation, in request order, of exactly the bytes
// the single endpoint serves for each AS — including the 404 error
// payload for an unknown AS, which arrives inline instead of failing
// the stream.
func TestBulkFootprints(t *testing.T) {
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg})
	h := s.Handler()

	single64500 := get(t, h, "/v1/footprint/64500").Body.Bytes()
	single64501 := get(t, h, "/v1/footprint/64501").Body.Bytes()
	missing := get(t, h, "/v1/footprint/99999")
	if missing.Code != http.StatusNotFound {
		t.Fatalf("single 99999: %d", missing.Code)
	}

	rec := get(t, h, "/v1/footprints?asns=64500,99999,64501")
	if rec.Code != http.StatusOK {
		t.Fatalf("bulk: HTTP %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("bulk Content-Type = %q", ct)
	}
	var want bytes.Buffer
	want.Write(single64500)
	want.Write(missing.Body.Bytes())
	want.Write(single64501)
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("bulk body is not the concatenation of single responses:\n%q\nvs\n%q", rec.Body.String(), want.String())
	}
	if !rec.Flushed {
		t.Error("bulk response was never flushed: lines are not streamed")
	}
	assertFootprintFunnel(t, reg)

	// ?bw= rides through to every line.
	single80 := get(t, h, "/v1/footprint/64500?bw=80").Body.Bytes()
	rec = get(t, h, "/v1/footprints?asns=64500&bw=80")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), single80) {
		t.Fatalf("bulk bw=80 diverged from single bw=80 (HTTP %d)", rec.Code)
	}

	// Whole-request failures stay up-front 400s.
	if rec := get(t, h, "/v1/footprints"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing asns: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/footprints?asns=64500,banana"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad asn: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/footprints?asns=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("negative asn: %d", rec.Code)
	}
	long := "64500" + strings.Repeat(",64500", maxBulkASNs)
	if rec := get(t, h, "/v1/footprints?asns="+long); rec.Code != http.StatusBadRequest {
		t.Errorf("%d asns: %d, want 400", maxBulkASNs+1, rec.Code)
	}
}

// TestFootprintOfASWithoutSamples: an AS with no samples gets no prepared
// points at install, and its render fails as the estimator fails on an
// empty sample set, single and bulk.
func TestFootprintOfASWithoutSamples(t *testing.T) {
	_, snap := testArtifact(t, t.TempDir())
	snap.Dataset.ASes[64502] = &pipeline.ASRecord{ASN: 64502}
	snap.Dataset.Order = append(snap.Dataset.Order, 64502)
	s := New(Options{})
	s.Load(snap, "")
	h := s.Handler()
	const want = `{"error":"footprint render failed: core: no samples"}` + "\n"
	if rec := get(t, h, "/v1/footprint/64502"); rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Errorf("single: HTTP %d %q, want 500 %q", rec.Code, rec.Body.String(), want)
	}
	if rec := get(t, h, "/v1/footprints?asns=64502"); rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Errorf("bulk: HTTP %d %q, want 200 %q", rec.Code, rec.Body.String(), want)
	}
}

// TestBulkFootprintsTooManyASNsAllocs: a list past maxBulkASNs is refused
// with the usual body without being split first. Splitting this
// 400,001-entry (0.76 MiB) list allocated 6.1 MiB of string headers
// before the count was checked; the handler now allocates a few KiB
// whatever the list's length. The least of five runs is taken, so a
// stray goroutine from another test cannot fail it.
func TestBulkFootprintsTooManyASNsAllocs(t *testing.T) {
	s, _, _ := newTestServer(t, Options{CacheSize: -1})
	h := s.Handler()
	list := "1" + strings.Repeat(",1", 400000)
	const want = `{"error":"too many ASNs: 400001 (max 1024)"}` + "\n"
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/footprints?asns="+list, nil)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Fatalf("HTTP %d %q, want 400 %q", rec.Code, rec.Body.String(), want)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > uint64(len(list)/16) {
		t.Errorf("refusing a %d-byte list allocated %d B, want at most %d", len(list), least, len(list)/16)
	}
	t.Logf("refusing a %d-byte list allocated %d B", len(list), least)
}

// TestBulkFootprintsStreamsOverTheWire stalls the second AS's render and
// reads the first line from a real connection before releasing it: the
// handler must push each line out as it is written, not when it returns.
func TestBulkFootprintsStreamsOverTheWire(t *testing.T) {
	// No request deadline: only the test ends the stall.
	s, _, _ := newTestServer(t, Options{Timeout: -1})
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	render := s.render
	s.render = func(ctx context.Context, rec *pipeline.ASRecord, pts *core.Points, bw float64, reg *obs.Registry) ([]byte, int, error) {
		if rec.ASN == 64501 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
		}
		return render(ctx, rec, pts, bw, reg)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(unblock) // runs first: lets the handler finish before Close waits on it

	type result struct {
		resp *http.Response
		rest *bufio.Reader
		line []byte
		err  error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/footprints?asns=64500,64501")
		if err != nil {
			first <- result{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		first <- result{resp, br, line, err}
	}()
	var r result
	select {
	case r = <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("first line not delivered while the second render was stalled")
	}
	if r.resp != nil {
		defer r.resp.Body.Close()
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	unblock()
	rest, err := io.ReadAll(r.rest)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if want := get(t, h, "/v1/footprint/64500").Body.Bytes(); !bytes.Equal(r.line, want) {
		t.Errorf("line 1 = %q, want %q", r.line, want)
	}
	if want := get(t, h, "/v1/footprint/64501").Body.Bytes(); !bytes.Equal(rest, want) {
		t.Errorf("line 2 = %q, want %q", rest, want)
	}
}

func TestRequestMetrics(t *testing.T) {
	reg := obs.New()
	s, _, _ := newTestServer(t, Options{Obs: reg})
	h := s.Handler()
	get(t, h, "/v1/as/64500")
	get(t, h, "/v1/as/99999")
	if n := reg.Counter("eyeball_serve_requests_total", "endpoint", "as", "code", "200").Value(); n != 1 {
		t.Errorf("200 counter = %d", n)
	}
	if n := reg.Counter("eyeball_serve_requests_total", "endpoint", "as", "code", "404").Value(); n != 1 {
		t.Errorf("404 counter = %d", n)
	}
}
