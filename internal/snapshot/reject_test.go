package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"eyeballas/internal/faults"
)

// TestRejectTruncation cuts the artifact at every byte boundary and
// requires a typed error — never a panic, never a successful read of a
// partial artifact.
func TestRejectTruncation(t *testing.T) {
	data := Encode(testSnapshot(t))
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", n, len(data))
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: error %v is not a *FormatError", n, err)
		}
	}
}

// TestRejectBitFlips flips every byte of the artifact (one at a time)
// and requires rejection with a typed error. Every byte of the file is
// covered by either a section CRC or the whole-file CRC, so no single
// corruption can go unnoticed.
func TestRejectBitFlips(t *testing.T) {
	data := Encode(testSnapshot(t))
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		copy(mut, data)
		mut[i] ^= 0x5A
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("flip at byte %d: error %v is not a *FormatError", i, err)
		}
	}
}

func TestRejectBadMagic(t *testing.T) {
	data := Encode(testSnapshot(t))
	data[0] = 'X'
	_, err := Decode(data)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("not a snapshot at all")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign bytes: got %v, want ErrBadMagic", err)
	}
	// A prefix of the magic is truncation, not a foreign file.
	if _, err := Decode([]byte("eyeballas-")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("magic prefix: got %v, want ErrTruncated", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty input: got %v, want ErrTruncated", err)
	}
}

func TestRejectVersionSkew(t *testing.T) {
	data := Encode(testSnapshot(t))
	data[len(magic)] = Version + 1
	_, err := Decode(data)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Offset != len(magic) {
		t.Fatalf("version error should carry the version byte offset, got %+v", fe)
	}
	data[len(magic)] = 0
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 0: got %v, want ErrVersion", err)
	}
}

func TestRejectChecksumDamage(t *testing.T) {
	// Flip the first payload byte of the dataset section (skipping the
	// meta section by its declared length) and re-stamp the whole-file
	// CRC, so the damage can only be caught by the section checksum.
	data := Encode(testSnapshot(t))
	off := len(magic) + 1
	metaLen := binary.LittleEndian.Uint64(data[off+1:])
	dsPayload := off + 1 + 8 + int(metaLen) + 4 + 1 + 8
	data[dsPayload] ^= 0xFF
	restampFileCRC(data)
	_, err := Decode(data)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload damage: got %v, want ErrChecksum", err)
	}
}

func TestRejectTrailingGarbage(t *testing.T) {
	data := Encode(testSnapshot(t))
	data = append(data, "extra"...)
	_, err := Decode(data)
	if err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// The garbage lands where the file CRC is expected, so it surfaces
	// as a checksum mismatch — the important part is typed rejection.
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("trailing garbage: error %v is not a *FormatError", err)
	}
}

// TestRejectRecordsOutOfOrder: a CRC-valid artifact whose AS records
// descend decodes to ErrCorrupt. The encoder writes the records in
// Dataset.Order, so a descending order yields exactly that file, and a
// server can rely on the decoder for the ascending AS order.
func TestRejectRecordsOutOfOrder(t *testing.T) {
	snap := *testSnapshot(t)
	ds := *snap.Dataset
	ds.Order = slices.Clone(ds.Order)
	slices.Reverse(ds.Order)
	snap.Dataset = &ds
	_, err := Decode(Encode(&snap))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("descending records: got %v, want ErrCorrupt", err)
	}
}

// restampFileCRC recomputes the trailing whole-file checksum (test
// helper for constructing artifacts whose damage hides from it).
func restampFileCRC(data []byte) {
	c := crc32.Checksum(data[:len(data)-4], castagnoli)
	data[len(data)-4] = byte(c)
	data[len(data)-3] = byte(c >> 8)
	data[len(data)-2] = byte(c >> 16)
	data[len(data)-1] = byte(c >> 24)
}

// TestMangleDeterministicAndRejected drives the faults.SnapCorrupt
// point the way eyeballpipe does: the same plan mangles the same bytes
// the same way, a mangled artifact is always rejected with a typed
// error, and a nil injector leaves the artifact untouched.
func TestMangleDeterministicAndRejected(t *testing.T) {
	clean := Encode(testSnapshot(t))
	plan := faults.NewPlan(99)
	if err := plan.Set(faults.SnapCorrupt, 0.01); err != nil {
		t.Fatalf("Set: %v", err)
	}

	a := append([]byte(nil), clean...)
	b := append([]byte(nil), clean...)
	fa := Mangle(a, plan.Injector(faults.SnapCorrupt))
	fb := Mangle(b, plan.Injector(faults.SnapCorrupt))
	if fa == 0 {
		t.Fatalf("rate 0.01 over %d bytes flipped nothing", len(clean))
	}
	if fa != fb || !bytes.Equal(a, b) {
		t.Fatalf("mangle not deterministic: %d vs %d flips", fa, fb)
	}
	if bytes.Equal(a, clean) {
		t.Fatal("mangle reported flips but bytes unchanged")
	}
	_, err := Decode(a)
	if err == nil {
		t.Fatal("mangled artifact accepted")
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("mangled artifact: error %v is not a *FormatError", err)
	}

	c := append([]byte(nil), clean...)
	if n := Mangle(c, nil); n != 0 || !bytes.Equal(c, clean) {
		t.Fatalf("nil injector changed the artifact (%d flips)", n)
	}
}

func TestFormatErrorRendering(t *testing.T) {
	fe := &FormatError{Reason: ErrChecksum, Offset: 123, Detail: "dataset section checksum 0000abcd, computed 0000ef01"}
	if !errors.Is(fe, ErrChecksum) {
		t.Fatal("errors.Is through FormatError failed")
	}
	msg := fe.Error()
	for _, want := range []string{"checksum", "123", "dataset"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}
