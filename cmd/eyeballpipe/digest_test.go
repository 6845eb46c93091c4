package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"eyeballas"
	"eyeballas/internal/serve"
	"eyeballas/internal/snapshot"
)

// snapDigests pins the SHA-256 of the `.snap` artifact that
// `eyeballpipe -small -seed 42 -quiet -snapshot out.snap` writes for
// a clean build, one under a mixed fault plan, one that falls back to a
// single geolocation database (the second locate pass), one whose crawl
// repeats half its peers, the capped path (-as-sample-cap: a per-AS
// reservoir plus a quantile sketch) clean and dup-heavy, and the same
// builds at other worker counts and batch sizes. The artifact holds the
// crawl's per-AS samples and the geolocated records, so these digests
// cover the crawl, both geolocation databases and the grouping stage.
// The worker count never moves a digest; a batch size moves it only
// through the batch ledger the artifact records (Dataset.Stream). Any
// change here changes the dataset and must be deliberate: rerun the
// build, inspect the difference, and update the table in the same
// commit.
var snapDigests = []struct {
	name   string
	args   []string
	digest string
}{
	{"clean", nil, "092e85de65138f71729532a3454e47fd962761b2af4cb1c0ad2a68581c8761a7"},
	{"faults", []string{
		"-faults", "crawl-dup=0.05,geo-miss=0.05,geo-garbage=0.01,geo-nan=0.01,origin-miss=0.05",
		"-fault-seed", "7",
	}, "38d160e217224b21020f1df7945f5a97a156d9fad9422285bf49e3804286a970"},
	{"single-db-fallback", []string{
		"-faults", "geo-miss-b=0.5", "-max-geo-miss", "0.2", "-single-db-fallback",
	}, "ffc7e1bff9e7435f2451897f2c7fbdde88fb2c23e0dec083fa5907fd5870dad0"},
	{"workers-1", []string{"-workers", "1"}, "092e85de65138f71729532a3454e47fd962761b2af4cb1c0ad2a68581c8761a7"},
	{"batch-7", []string{"-batch", "7"}, "b60f1630382d8e4696d18db8b216df02d9b4750bc7a42a435a7b01ae513a6c7c"},
	{"batch-larger-than-crawl", []string{"-batch", "100000"}, "f9d6f3758df97f3c81e7bff567b484d97d6bef21397f79d7f2a2b122ac491c5a"},
	{"faults-batch-7-workers-1", []string{
		"-faults", "crawl-dup=0.05,geo-miss=0.05,geo-garbage=0.01,geo-nan=0.01,origin-miss=0.05",
		"-fault-seed", "7", "-batch", "7", "-workers", "1",
	}, "6dee7cb9ad813cb58a98f7087c775ffc0572f0711e59e7b8bd120ec7adc281f8"},
	{"workers-8", []string{"-workers", "8"}, "092e85de65138f71729532a3454e47fd962761b2af4cb1c0ad2a68581c8761a7"},
	{"batch-1024", []string{"-batch", "1024"}, "313d0c2aee4b3a001414e7ea664d8c691c91308642cd51883b1108c9f0869982"},
	{"dup-heavy", []string{"-faults", "crawl-dup=0.5", "-fault-seed", "7"}, "f4b17b0d36fc1d8b1d11166502c0446a92943fdb9d041f46de6884ff6da7fe69"},
	{"sample-cap-25", []string{"-as-sample-cap", "25"}, "8dccb917beaf3bfd05c16eb89c635007c9d873c5f3910cb5d55a022731de207c"},
	{"sample-cap-25-dup-heavy", []string{
		"-as-sample-cap", "25", "-faults", "crawl-dup=0.5", "-fault-seed", "7",
	}, "195aa4770e58734e6e60630bb20aee78d395d0c7c4ce3da448746573d0c3c24d"},
}

// TestSnapshotDigests is the gate on the build's output: each pinned
// build must write exactly the pinned artifact bytes.
func TestSnapshotDigests(t *testing.T) {
	for _, tc := range snapDigests {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.snap")
			args := append([]string{"-small", "-seed", "42", "-quiet", "-snapshot", path}, tc.args...)
			if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("sha256 %s, pinned %s", got, tc.digest)
			}
		})
	}
}

// footprintDigest pins one SHA-256 over the served footprint bodies
// (serve.RenderFootprint, the bytes /v1/footprint and -footprint emit) of
// every AS in the clean `-small -seed 42` artifact, at the paper's 40 km
// kernel and the 60, 80 and 100 km kernels its experiments sweep, in
// dataset order with the bandwidths innermost. It covers the whole §3–4
// footprint path: KDE binning and blur, peak search, partitions and the
// peak→city mapping. Like snapDigests, any change here must be
// deliberate.
const footprintDigest = "b61fc1ad48b60a2fc0916a9d8a766b00f9b5d70ce4d6de2f364e55c4a988f9b0"

// TestFootprintDigests is the gate on the served footprint bytes: the
// estimator kernels may change how they compute, never what. It renders
// every body with one KDE worker, as the server does, and again with
// four, and both streams must hash to the pin: 17 of the 260 surfaces
// span more than one blur block, so four workers split their passes.
func TestFootprintDigests(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.snap")
	if err := run(context.Background(), []string{"-small", "-seed", "42", "-quiet", "-snapshot", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ds := snap.Dataset
	for _, workers := range []int{1, 4} {
		h := sha256.New()
		for _, asn := range ds.Order {
			for _, bw := range []float64{40, 60, 80, 100} {
				body, err := serve.RenderFootprint(context.Background(), eyeball.Gazetteer(), ds.AS(asn), bw, workers, nil)
				if err != nil {
					t.Fatalf("AS%d at %v km, %d workers: %v", asn, bw, workers, err)
				}
				h.Write(body)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != footprintDigest {
			t.Errorf("%d workers: sha256 %s over %d ASes, pinned %s", workers, got, len(ds.Order), footprintDigest)
		}
	}
}
