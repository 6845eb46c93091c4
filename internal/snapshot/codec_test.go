package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
)

// datasetFrame returns the offset of the dataset section's tag and the
// section's payload.
func datasetFrame(data []byte) (int, []byte) {
	off := len(magic) + 1
	metaLen := int(binary.LittleEndian.Uint64(data[off+1:]))
	dsOff := off + 1 + 8 + metaLen + 4
	dsLen := int(binary.LittleEndian.Uint64(data[dsOff+1:]))
	return dsOff, data[dsOff+1+8 : dsOff+1+8+dsLen]
}

// cutDataset returns a copy of the artifact whose dataset section
// payload ends after cut bytes, with the section length, the section
// CRC and the whole-file CRC re-stamped, so the damage reaches the
// payload decoder instead of a checksum.
func cutDataset(t *testing.T, data []byte, cut int) []byte {
	t.Helper()
	dsOff, payload := datasetFrame(data)
	if cut > len(payload) {
		t.Fatalf("cut %d past the %d-byte dataset payload", cut, len(payload))
	}
	out := append([]byte(nil), data[:dsOff+1]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(cut))
	out = append(out, payload[:cut]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload[:cut], castagnoli))
	out = append(out, data[dsOff+1+8+len(payload)+4:]...)
	restampFileCRC(out)
	return out
}

// TestRejectStringCutShort pins the exact rejection of a sample string
// whose length prefix, or whose body, runs past the end of the dataset
// section. The cuts land in the third sample of AS7 in testSnapshot
// (empty city, state and country, region "??"), late enough that the
// sample-count guard still passes and the string read is what fails.
// Offsets are relative to the dataset payload, as the payload decoder
// reports them.
func TestRejectStringCutShort(t *testing.T) {
	data := Encode(testSnapshot(t))
	_, payload := datasetFrame(data)
	// Sample 2 of AS7 is the only one labelled "Null Island W"; after its
	// city come state "", country "XX", region "??" and the error.
	i := bytes.Index(payload, []byte("Null Island W"))
	if i < 0 {
		t.Fatal("fixture sample not found in the dataset payload")
	}
	sample3 := i + len("Null Island W") + 4 + (4 + 2) + (4 + 2) + 8
	cityLen := sample3 + 16         // after lat and lon
	regionBody := cityLen + 4*3 + 4 // after the city, state and country (all empty) and the region length

	for _, tc := range []struct {
		name string
		cut  int
		want FormatError
	}{
		{"length-prefix", cityLen + 2, FormatError{Reason: ErrTruncated, Offset: cityLen,
			Detail: "need 4 bytes for sample city length, 2 remain"}},
		{"body", regionBody + 1, FormatError{Reason: ErrTruncated, Offset: regionBody,
			Detail: "need 2 bytes for sample region, 1 remain"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(cutDataset(t, data, tc.cut))
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want a *FormatError", err)
			}
			if *fe != tc.want {
				t.Errorf("got %+v\nwant %+v", *fe, tc.want)
			}
		})
	}
}

// smallWorld is the artifact of a pipeline build over the small world,
// built once for the package's tests and benchmarks.
var smallWorld struct {
	once sync.Once
	snap *Snapshot
	err  error
}

func smallWorldSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	smallWorld.once.Do(func() {
		w, err := astopo.Generate(astopo.SmallConfig(7))
		if err != nil {
			smallWorld.err = err
			return
		}
		ds, _, origins, err := pipeline.RunExport(nil, w, p2p.DefaultConfig(), pipeline.DefaultConfig(), 7)
		if err != nil {
			smallWorld.err = err
			return
		}
		smallWorld.snap = &Snapshot{Meta: Meta{Seed: 7, Label: "pipeline"}, Dataset: ds, Origins: origins}
	})
	if smallWorld.err != nil {
		tb.Fatal(smallWorld.err)
	}
	return smallWorld.snap
}

// TestEncodeSizedExactly: Encode sizes the artifact before writing it,
// so the output is allocated once at its final size, with and without
// the optional parts, and nothing else Encode allocates comes near it.
func TestEncodeSizedExactly(t *testing.T) {
	bare := testSnapshot(t)
	bare.Origins = nil
	bare.Dataset.Stream = nil
	bare.Dataset.Funnel = nil
	for name, snap := range map[string]*Snapshot{
		"fixture": testSnapshot(t), "bare": bare, "small-world": smallWorldSnapshot(t),
	} {
		if out := Encode(snap); cap(out) != len(out) {
			t.Errorf("%s: cap %d, len %d", name, cap(out), len(out))
		}
	}

	snap := smallWorldSnapshot(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := Encode(snap)
	runtime.ReadMemStats(&after)
	// Besides the output: the LPM dump and the funnel rows.
	if extra := int(after.TotalAlloc-before.TotalAlloc) - cap(out); extra > len(out)/16 {
		t.Errorf("Encode allocated %d bytes beyond its %d-byte output", extra, len(out))
	}
}

// TestDecodeAllocsPerSample: decoding allocates per record and per
// distinct label, never per sample.
func TestDecodeAllocsPerSample(t *testing.T) {
	snap := smallWorldSnapshot(t)
	data := Encode(snap)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	samples := 0
	for _, rec := range snap.Dataset.ASes {
		samples += len(rec.Samples)
	}
	if perSample := allocs / float64(samples); perSample > 0.05 {
		t.Errorf("Decode made %.0f allocations for %d samples (%.3f per sample)", allocs, samples, perSample)
	}
}

// TestDecodeKeepsTuplesApart: the decoder keys a sample's four labels by
// their wire bytes, length prefixes included, so tuples whose labels
// run together into the same text stay distinct Places, and a repeated
// tuple shares the first one's.
func TestDecodeKeepsTuplesApart(t *testing.T) {
	snap := testSnapshot(t)
	tuples := []core.Place{
		{City: "AB", State: "C"},
		{City: "A", State: "BC"},
		{City: "A", State: "B", Country: "C"},
		{City: "A", State: "B", Region: "C"},
		{City: "AB", State: "C"},
	}
	rec := snap.Dataset.ASes[9]
	rec.Samples = nil
	for i := range tuples {
		rec.Samples = append(rec.Samples, core.Sample{Place: &tuples[i]})
	}
	got, err := Decode(Encode(snap))
	if err != nil {
		t.Fatal(err)
	}
	samples := got.Dataset.ASes[9].Samples
	if len(samples) != len(tuples) {
		t.Fatalf("%d samples, want %d", len(samples), len(tuples))
	}
	for i, s := range samples {
		if *s.Place != tuples[i] {
			t.Errorf("sample %d: labels %+v, want %+v", i, *s.Place, tuples[i])
		}
		for j := 0; j < i; j++ {
			if same := s.Place == samples[j].Place; same != (tuples[i] == tuples[j]) {
				t.Errorf("samples %d and %d: shared Place %v, equal labels %v", j, i, same, tuples[i] == tuples[j])
			}
		}
	}
}

// Benchmark results land in package-level sinks so the calls are kept.
var (
	encodeSink []byte
	decodeSink *Snapshot
)

func BenchmarkEncode(b *testing.B) {
	snap := smallWorldSnapshot(b)
	b.SetBytes(int64(len(Encode(snap))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSink = Encode(snap)
	}
}

func BenchmarkDecode(b *testing.B) {
	data := Encode(smallWorldSnapshot(b))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = snap
	}
}
