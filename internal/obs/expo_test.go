package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden exposition files")

// goldenRegistry builds a registry with one of everything. Nothing in
// it is timed, so the whole snapshot is byte-stable.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("eyeball_crawl_peers_total", "app", "kad").Add(12)
	r.Counter("eyeball_crawl_peers_total", "app", "gnutella").Add(7)
	r.Counter("eyeball_bgp_origin_lookups_total").Add(800)
	r.Gauge("eyeball_kde_grid_cells").Set(1024)
	h := r.Histogram("eyeball_pipeline_as_p90_geoerr_km", KmErrorBuckets())
	for _, v := range []float64{0.5, 40, 40.5, 80, 101, 2000} {
		h.Observe(v)
	}
	r.RegisterFunnel(pipelineShapedFunnel())
	return r
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenPrometheus pins the Prometheus text exposition byte-for-byte:
// family headers, sorted series, cumulative inclusive le buckets, and the
// synthetic funnel families.
func TestGoldenPrometheus(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.prom", b.Bytes())
}

// TestGoldenJSON pins the JSON snapshot byte-for-byte (sorted map keys,
// numeric-ordered buckets, no timestamp).
func TestGoldenJSON(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.json", b.Bytes())
}

// TestSnapshotsAreStable renders the same registry twice and requires
// byte equality — the determinism the golden files rest on.
func TestSnapshotsAreStable(t *testing.T) {
	r := goldenRegistry()
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same registry differ")
	}
	a.Reset()
	b.Reset()
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two JSON renders of the same registry differ")
	}
}

// TestJSONRoundTrips proves the JSON output is machine-consumable (the CI
// jq invariant check depends on this shape).
func TestJSONRoundTrips(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Funnels  map[string]struct {
			Stages []struct {
				Name  string           `json:"name"`
				In    int64            `json:"in"`
				Out   int64            `json:"out"`
				Drops map[string]int64 `json:"drops"`
			} `json:"stages"`
		} `json:"funnels"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters[`eyeball_crawl_peers_total{app="kad"}`] != 12 {
		t.Fatalf("kad counter missing: %+v", doc.Counters)
	}
	pipe, ok := doc.Funnels["pipeline"]
	if !ok {
		t.Fatal("pipeline funnel missing from JSON")
	}
	// The jq-checkable conservation invariant.
	for _, st := range pipe.Stages {
		var drops int64
		for _, d := range st.Drops {
			drops += d
		}
		if st.In != st.Out+drops {
			t.Fatalf("stage %s leaks in JSON: in=%d out=%d drops=%d", st.Name, st.In, st.Out, drops)
		}
	}
}

// TestPrometheusCumulativeBuckets checks bucket cumulation and the +Inf
// terminal bucket equal to _count.
func TestPrometheusCumulativeBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("b_test", []float64{1, 2})
	h.Observe(0.5) // bucket le=1
	h.Observe(1.5) // bucket le=2
	h.Observe(9)   // +Inf
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`b_test_bucket{le="1"} 1`,
		`b_test_bucket{le="2"} 2`,
		`b_test_bucket{le="+Inf"} 3`,
		`b_test_count 3`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:      "1",
		0.0001: "0.0001",
		1024:   "1024",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
