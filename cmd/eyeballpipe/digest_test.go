package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// snapDigests pins the SHA-256 of the `.snap` artifact that
// `eyeballpipe -small -seed 42 -quiet -snapshot out.snap` writes for
// a clean build, one under a mixed fault plan, one that falls back to a
// single geolocation database (the second locate pass), one whose crawl
// repeats half its peers, and the same builds at other worker counts
// and batch sizes. The artifact holds the crawl's per-AS samples and
// the geolocated records, so these digests cover the crawl, both
// geolocation databases and the grouping stage.
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
