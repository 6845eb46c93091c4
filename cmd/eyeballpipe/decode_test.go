package main

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"eyeballas/internal/core"
	"eyeballas/internal/snapshot"
)

// smallArtifact is the clean `-small -seed 42` artifact, built once for
// the tests that read it.
var smallArtifact = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "eyeballpipe-small")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "out.snap")
	if err := run(context.Background(), []string{"-small", "-seed", "42", "-quiet", "-snapshot", path}, io.Discard, io.Discard); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
})

// TestDecodeSharesPlaces: decoding the clean `-small -seed 42` artifact
// interns every sample's labels, so the dataset holds exactly one *Place
// per distinct label tuple, and at 32 bytes a sample the decode
// allocates at most 48 B per sample all told (records, maps and the LPM
// included). Samples that carried their own labels took 96.8 B.
func TestDecodeSharesPlaces(t *testing.T) {
	data, err := smallArtifact()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	ptrs := map[*core.Place]bool{}
	tuples := map[core.Place]bool{}
	for _, rec := range snap.Dataset.Records() {
		samples += len(rec.Samples)
		for _, s := range rec.Samples {
			if s.Place == nil {
				t.Fatalf("AS%d: decoded sample without a Place", rec.ASN)
			}
			ptrs[s.Place] = true
			tuples[*s.Place] = true
		}
	}
	if len(ptrs) != len(tuples) {
		t.Errorf("%d distinct Place pointers for %d distinct label tuples", len(ptrs), len(tuples))
	}

	var decodeErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.Decode(data); err != nil {
				decodeErr = err
				return
			}
		}
	})
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	perSample := float64(res.AllocedBytesPerOp()) / float64(samples)
	if perSample > 48 {
		t.Errorf("Decode allocated %d B for %d samples: %.1f B per sample, want <= 48", res.AllocedBytesPerOp(), samples, perSample)
	}
	t.Logf("%d samples share %d Places; Decode allocates %.1f B per sample", samples, len(ptrs), perSample)
}

// TestPreparedPointsExactSize: preparing every AS of the clean `-small
// -seed 42` artifact, as a server does when it installs one, keeps one
// point per distinct (AS, location) pair, counted here from the
// locations' bits, in slices of exactly that length, with counts that
// sum to the AS's samples. A per-sample view, or one padded by append
// growth, fails it.
func TestPreparedPointsExactSize(t *testing.T) {
	data, err := smallArtifact()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	pairs, points, samples := 0, 0, 0
	for _, rec := range snap.Dataset.Records() {
		pts, err := core.Prepare(rec.Samples)
		if err != nil {
			t.Fatalf("AS%d: %v", rec.ASN, err)
		}
		locs := map[[2]uint64]bool{}
		for _, s := range rec.Samples {
			locs[[2]uint64{math.Float64bits(s.Loc.Lat), math.Float64bits(s.Loc.Lon)}] = true
		}
		pairs += len(locs)
		points += len(pts.XY)
		samples += len(rec.Samples)
		if len(pts.Count) != len(pts.XY) || cap(pts.XY) != len(pts.XY) || cap(pts.Count) != len(pts.Count) {
			t.Errorf("AS%d: XY len %d cap %d, Count len %d cap %d", rec.ASN, len(pts.XY), cap(pts.XY), len(pts.Count), cap(pts.Count))
		}
		sum := 0
		for _, c := range pts.Count {
			sum += int(c)
		}
		if sum != len(rec.Samples) || pts.N != len(rec.Samples) {
			t.Errorf("AS%d: counts sum to %d, N %d, for %d samples", rec.ASN, sum, pts.N, len(rec.Samples))
		}
	}
	if points != pairs {
		t.Errorf("%d points prepared for %d distinct (AS, location) pairs", points, pairs)
	}
	t.Logf("%d samples on %d distinct (AS, location) pairs", samples, pairs)
}
