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
// three builds: a clean one, one under a mixed fault plan, and one that
// falls back to a single geolocation database (the second locate pass).
// The artifact holds the crawl's per-AS samples and the geolocated
// records, so these digests cover the crawl, both geolocation databases
// and the grouping stage. Any change here changes the dataset and must be
// deliberate: rerun the build, inspect the difference, and update the
// table in the same commit.
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
