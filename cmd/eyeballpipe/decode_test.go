package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"eyeballas/internal/core"
	"eyeballas/internal/snapshot"
)

// TestDecodeSharesPlaces: decoding the clean `-small -seed 42` artifact
// interns every sample's labels, so the dataset holds exactly one *Place
// per distinct label tuple, and at 32 bytes a sample the decode
// allocates at most 48 B per sample all told (records, maps and the LPM
// included). Samples that carried their own labels took 96.8 B.
func TestDecodeSharesPlaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.snap")
	if err := run(context.Background(), []string{"-small", "-seed", "42", "-quiet", "-snapshot", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
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
