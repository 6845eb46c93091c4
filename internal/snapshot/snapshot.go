// Package snapshot implements the versioned binary dataset artifact
// format "eyeballas-snap/1": a conditioned pipeline.Dataset (per-AS
// records with their samples, the funnel ledger, the streaming ledger)
// serialized together with the compiled flat LPM origin table, so a
// serving process can answer classification, origin-lookup, and
// footprint queries without re-running the crawl→geolocate→LPM→
// condition funnel.
//
// Design constraints:
//
//   - Deterministic bytes. The same dataset always serializes to the
//     same bytes: every map is emitted through a fixed ordering
//     (Dataset.Order for ASes, ascending app ID for per-app counters,
//     funnel declaration order for stages and drop reasons), floats are
//     written as their IEEE-754 bit patterns, and the format carries no
//     timestamps. A golden-file test pins the exact encoding.
//
//   - Strict reading. The reader rejects — with typed errors, never a
//     panic — bad magic (ErrBadMagic), versions newer than it
//     understands (ErrVersion), truncated input (ErrTruncated), any
//     section or whole-file checksum mismatch (ErrChecksum), and
//     structurally invalid payloads such as out-of-order AS records or
//     malformed LPM segments (ErrCorrupt). errors.Is matches all of
//     them through the *FormatError wrapper, which adds the byte offset
//     of the failure.
//
//   - Bit-identical round trip. Write→Read reproduces the dataset
//     exactly: sample coordinates and error estimates compare equal
//     under math.Float64bits, sample labels compare equal by value,
//     funnel and drop ledgers match count for count, and the
//     reconstructed origin table answers every lookup identically to
//     the one serialized (property-tested in roundtrip_test.go,
//     never-panic fuzzed in fuzz_test.go). The reader interns each
//     sample's four labels, so every decoded sample has a core.Place
//     and equal labels share one. A sample with a nil Place is written
//     as four empty labels and reads back with an empty Place, so
//     Encode(Decode(artifact)) reproduces the artifact byte for byte.
//
// # Wire layout
//
//	magic   15 bytes  "eyeballas-snap/"
//	version 1 byte    binary version number (currently 1)
//	section ×3        tag u8, length u64, payload, CRC32-C u32 (payload)
//	end     tag 0xFF, length u64 = 0
//	crc     u32       CRC32-C of every preceding byte
//
// Sections appear in fixed order — meta (seed + label), dataset, LPM —
// each length-prefixed and individually checksummed so a flipped bit is
// attributed to the section it hit; the trailing whole-file checksum
// additionally covers the headers the per-section checksums do not.
// All integers are little-endian; strings are u32-length-prefixed UTF-8.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/faults"
	"eyeballas/internal/pipeline"
)

// Version is the highest format version this package writes and reads.
const Version = 1

// magic is the format tag preceding the version byte; the full 16-byte
// header of a v1 file spells "eyeballas-snap/" + 0x01.
const magic = "eyeballas-snap/"

// Section tags, in required file order.
const (
	secMeta    = 0x01
	secDataset = 0x02
	secLPM     = 0x03
	secEnd     = 0xFF
)

// castagnoli is the CRC32-C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed rejection reasons. Read wraps each in a *FormatError carrying
// the byte offset; match with errors.Is.
var (
	// ErrBadMagic: the input does not begin with the format magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion: the artifact declares a version this reader does not
	// understand (newer than Version).
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrTruncated: the input ends before the declared structure does.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrChecksum: a section or whole-file CRC32-C mismatch.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt: the bytes checksum correctly but decode to a
	// structurally invalid artifact (impossible counts, out-of-order
	// records, malformed LPM segments, trailing garbage).
	ErrCorrupt = errors.New("snapshot: corrupt")
)

// FormatError is the typed rejection every Read failure returns: the
// reason (one of the Err* sentinels, reachable via errors.Is), the byte
// offset at which reading failed, and a human-readable detail.
type FormatError struct {
	Reason error
	Offset int
	Detail string
}

// Error renders the rejection on one line.
func (e *FormatError) Error() string {
	return fmt.Sprintf("%v at offset %d: %s", e.Reason, e.Offset, e.Detail)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *FormatError) Unwrap() error { return e.Reason }

// Meta is the artifact's provenance record. It deliberately carries no
// wall-clock timestamp: two builds of the same dataset must be
// byte-identical.
type Meta struct {
	// Seed is the world/crawl seed the dataset was built from.
	Seed uint64
	// Label is a free-form provenance label (the writing tool's name,
	// a pipeline configuration tag, ...). May be empty.
	Label string
}

// Snapshot is one serialized artifact: the conditioned dataset plus the
// compiled origin table it was built with. Origins may be nil (a
// dataset-only artifact); the serve layer then refuses /v1/lookup.
type Snapshot struct {
	Meta    Meta
	Dataset *pipeline.Dataset
	Origins *bgp.OriginTable
}

// Mangle applies the faults.SnapCorrupt fault point to rendered
// snapshot bytes: each byte position is an injection site, and hit
// bytes are XORed with a nonzero site-derived mask. Decisions are pure
// functions of (plan seed, byte offset), so the same plan always
// corrupts the same artifact the same way. It returns the number of
// bytes flipped; a nil injector flips nothing.
func Mangle(data []byte, in *faults.Injector) int {
	if in == nil {
		return 0
	}
	flipped := 0
	for i := range data {
		if !in.Hit(uint64(i)) {
			continue
		}
		m := byte(in.Rand(uint64(i)))
		if m == 0 {
			m = 0xFF
		}
		data[i] ^= m
		flipped++
	}
	return flipped
}

// enc is the append-only deterministic encoder: little-endian
// fixed-width integers, Float64bits floats, length-prefixed strings.
type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// frameSize is a section's framing around its payload: tag, length
// and payload CRC32-C.
const frameSize = 1 + 8 + 4

// open starts a section: its tag, then a length that close patches.
// It returns where the payload begins.
func (e *enc) open(tag byte) int {
	e.u8(tag)
	e.u64(0)
	return len(e.b)
}

// close ends the section whose payload began at start: it writes the
// payload length into the header open left and appends the payload's
// CRC32-C.
func (e *enc) close(start int) {
	payload := e.b[start:]
	binary.LittleEndian.PutUint64(e.b[start-8:], uint64(len(payload)))
	e.u32(crc32.Checksum(payload, castagnoli))
}

// dec is the sticky-error decoder over an in-memory artifact. The
// first failure wins; every subsequent accessor is a no-op returning
// zero values, so decode code reads straight-line and checks err once
// per section. Field labels are joined and formatted only when a read
// fails, so a successful read allocates nothing but its value.
type dec struct {
	b   []byte
	off int
	err *FormatError
	// intern maps each label string the decoder has produced to itself
	// (see label), and places maps each sample label tuple's wire bytes
	// to its shared Place (see place); both are nil outside the dataset
	// section.
	intern map[string]string
	places map[string]*core.Place
}

func (d *dec) fail(reason error, format string, args ...any) {
	if d.err == nil {
		d.err = &FormatError{Reason: reason, Offset: d.off, Detail: fmt.Sprintf(format, args...)}
	}
}

// need reports whether n more bytes remain. If not, it fails with
// ErrTruncated, naming the field what+suffix.
func (d *dec) need(n int, what, suffix string) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) || d.off+n < d.off {
		d.fail(ErrTruncated, "need %d bytes for %s%s, %d remain", n, what, suffix, len(d.b)-d.off)
		return false
	}
	return true
}

func (d *dec) u8(what string) byte {
	if !d.need(1, what, "") {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32(what string) uint32 { return d.u32Of(what, "") }

// u32Of reads a u32 whose field is named what+suffix.
func (d *dec) u32Of(what, suffix string) uint32 {
	if !d.need(4, what, suffix) {
		return 0
	}
	b := d.b[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64(what string) uint64 {
	if !d.need(8, what, "") {
		return 0
	}
	b := d.b[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (d *dec) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

// bytes reads a length-prefixed string's body, in place.
func (d *dec) bytes(what string) []byte {
	n := d.u32Of(what, " length")
	if !d.need(int(n), what, "") {
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *dec) str(what string) string { return string(d.bytes(what)) }

// label reads a string drawn from a small vocabulary (place names,
// country codes, regions) that repeats across every sample: each
// distinct value is allocated once per decoder and shared after that.
func (d *dec) label(what string) string {
	b := d.bytes(what)
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	d.intern[s] = s
	return s
}

func (d *dec) bool(what string) bool { return d.u8(what) != 0 }

// count reads a u32 element count and rejects counts that could not
// possibly fit in the remaining bytes at minElemSize bytes per element —
// the guard that keeps fuzzed inputs from driving huge allocations.
func (d *dec) count(minElemSize int, what string) int {
	n := d.u32Of(what, " count")
	if d.err != nil {
		return 0
	}
	if minElemSize > 0 && int(n) > (len(d.b)-d.off)/minElemSize {
		d.fail(ErrTruncated, "%s count %d exceeds remaining input", what, n)
		return 0
	}
	return int(n)
}
