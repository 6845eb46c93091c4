package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
)

// Encode renders the snapshot to its canonical byte form. The output is
// a pure function of the snapshot's contents: encoding the same dataset
// twice — or a dataset and its Read-back copy — yields identical bytes.
//
// The artifact is sized exactly before any byte is written, so the
// returned slice is the one allocation of its size (cap == len), and
// every section is framed in place: its length is back-patched once the
// payload is written and its CRC runs over that part of the buffer.
func Encode(s *Snapshot) []byte {
	var lpm *ipnet.Compiled[astopo.ASN]
	if s.Origins != nil {
		lpm = s.Origins.Compiled()
	}
	var drops []obs.DropCount
	if f := s.Dataset.Funnel; f != nil {
		drops = f.Drops()
	}
	size := len(magic) + 1 +
		frameSize + metaSize(s.Meta) +
		frameSize + datasetSize(s.Dataset, drops) +
		frameSize + lpmSize(lpm) +
		1 + 8 + 4
	e := enc{b: make([]byte, 0, size)}
	e.b = append(e.b, magic...)
	e.u8(Version)

	at := e.open(secMeta)
	encodeMeta(&e, s.Meta)
	e.close(at)
	at = e.open(secDataset)
	encodeDataset(&e, s.Dataset, drops)
	e.close(at)
	at = e.open(secLPM)
	encodeLPM(&e, lpm)
	e.close(at)

	e.u8(secEnd)
	e.u64(0)
	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

// Write renders the snapshot and writes it to w in one call.
func Write(w io.Writer, s *Snapshot) error {
	_, err := w.Write(Encode(s))
	return err
}

// strSize is the encoded size of a length-prefixed string.
func strSize(s string) int { return 4 + len(s) }

func metaSize(m Meta) int { return 8 + strSize(m.Label) }

func encodeMeta(e *enc, m Meta) {
	e.u64(m.Seed)
	e.str(m.Label)
}

// datasetSize is the encoded size of the dataset section's payload;
// drops is the funnel's Drops (nil without a funnel).
func datasetSize(ds *pipeline.Dataset, drops []obs.DropCount) int {
	// Peer counts, degraded flag and reason, drop counters, the stream
	// and funnel flags, and the AS count.
	n := 8 + 8 + 1 + strSize(ds.DegradedReason) + 7*8 + 1 + 1 + 4
	if ds.Stream != nil {
		n += 5 * 8
	}
	if f := ds.Funnel; f != nil {
		n += strSize(f.Name()) + 4
		for _, s := range f.Stages() {
			n += strSize(s.Name()) + 8 + 8 + 4
		}
		for _, row := range drops {
			n += strSize(row.Reason) + 8
		}
	}
	for _, asn := range ds.Order {
		n += recordSize(ds.ASes[asn])
	}
	return n
}

func encodeDataset(e *enc, ds *pipeline.Dataset, drops []obs.DropCount) {
	e.u64(uint64(ds.CrawledPeers))
	e.u64(uint64(ds.TotalPeers))
	e.bool(ds.Degraded)
	e.str(ds.DegradedReason)

	d := ds.Drops
	for _, v := range [7]int{d.NoCityRecord, d.GarbageCoord, d.HighGeoErr, d.UnmappedIP, d.DupIP, d.SmallAS, d.HighErrAS} {
		e.u64(uint64(v))
	}

	e.bool(ds.Stream != nil)
	if ds.Stream != nil {
		st := ds.Stream
		for _, v := range [5]int{st.BatchSize, st.Batches, st.MaxBatch, st.DedupEntries, st.PeakLiveSamples} {
			e.u64(uint64(v))
		}
	}

	e.bool(ds.Funnel != nil)
	if ds.Funnel != nil {
		encodeFunnel(e, ds.Funnel, drops)
	}

	e.u32(uint32(len(ds.Order)))
	for _, asn := range ds.Order {
		encodeRecord(e, ds.ASes[asn])
	}
}

// encodeFunnel emits the ledger in declaration order: stages as the
// funnel declared them, drop reasons as each stage declared them — the
// same order Funnel.Drops exposes — so the encoding is deterministic
// and the Read-side rebuild re-declares everything identically.
func encodeFunnel(e *enc, f *obs.Funnel, drops []obs.DropCount) {
	e.str(f.Name())
	byStage := make(map[string][]obs.DropCount)
	for _, row := range drops {
		byStage[row.Stage] = append(byStage[row.Stage], row)
	}
	stages := f.Stages()
	e.u32(uint32(len(stages)))
	for _, s := range stages {
		e.str(s.Name())
		e.u64(uint64(s.InCount()))
		e.u64(uint64(s.OutCount()))
		rows := byStage[s.Name()]
		e.u32(uint32(len(rows)))
		for _, row := range rows {
			e.str(row.Reason)
			e.u64(uint64(row.Count))
		}
	}
}

// recordSize is the encoded size of one AS record (see encodeRecord).
func recordSize(rec *pipeline.ASRecord) int {
	// ASN, users, p90 error, class level, place and share, region, and
	// the app and sample counts.
	n := 4 + 8 + 8 + 1 + strSize(rec.Class.Place) + 8 + strSize(string(rec.Region)) + 4 + 4
	for _, app := range p2p.Apps {
		if rec.PeersByApp[app] != 0 {
			n += 1 + 8
		}
	}
	for i := range rec.Samples {
		p := rec.Samples[i].Labels()
		n += 8 + 8 + strSize(p.City) + strSize(p.State) + strSize(p.Country) + strSize(string(p.Region)) + 8
	}
	return n
}

func encodeRecord(e *enc, rec *pipeline.ASRecord) {
	e.u32(uint32(rec.ASN))
	e.u64(uint64(rec.Users))
	e.f64(rec.P90GeoErrKm)
	e.u8(byte(rec.Class.Level))
	e.str(rec.Class.Place)
	e.f64(rec.Class.Share)
	e.str(string(rec.Region))

	// Per-app counters in fixed p2p.Apps order, zero counts elided, so
	// map iteration order never reaches the wire.
	present := 0
	for _, app := range p2p.Apps {
		if rec.PeersByApp[app] != 0 {
			present++
		}
	}
	e.u32(uint32(present))
	for _, app := range p2p.Apps {
		if n := rec.PeersByApp[app]; n != 0 {
			e.u8(byte(app))
			e.u64(uint64(n))
		}
	}

	e.u32(uint32(len(rec.Samples)))
	for i := range rec.Samples {
		s := &rec.Samples[i]
		p := s.Labels()
		e.f64(s.Loc.Lat)
		e.f64(s.Loc.Lon)
		e.str(p.City)
		e.str(p.State)
		e.str(p.Country)
		e.str(string(p.Region))
		e.f64(s.GeoErrKm)
	}
}

// lpmSize is the encoded size of the LPM section's payload.
func lpmSize(c *ipnet.Compiled[astopo.ASN]) int {
	if c == nil {
		return 1
	}
	return 1 + 4 + c.Len()*(4+1+4) + 4 + c.Segments()*(4+4)
}

// encodeLPM emits the compiled flat LPM arrays (nil: no table): the
// (prefix, origin-ASN) pairs in Walk order, then the flattened segment
// list. The derived top-16-bit direct index is rebuilt on read.
func encodeLPM(e *enc, c *ipnet.Compiled[astopo.ASN]) {
	e.bool(c != nil)
	if c == nil {
		return
	}
	prefixes, values, starts, segIdx := c.Dump()
	e.u32(uint32(len(prefixes)))
	for i, p := range prefixes {
		e.u32(uint32(p.Addr))
		e.u8(byte(p.Bits))
		e.u32(uint32(values[i]))
	}
	e.u32(uint32(len(starts)))
	for k, start := range starts {
		e.u32(uint32(start))
		e.u32(uint32(segIdx[k]))
	}
}

// Read parses a snapshot from r, consuming it to EOF. Every failure
// mode returns a *FormatError wrapping one of the Err* sentinels:
// inputs that don't start with the format magic (ErrBadMagic), declare
// a version newer than Version (ErrVersion), end early (ErrTruncated),
// fail a section or whole-file CRC (ErrChecksum), or decode to
// structurally invalid data (ErrCorrupt). It never panics, whatever
// the input (fuzzed in fuzz_test.go).
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ReadFile reads a snapshot artifact from disk.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses a complete in-memory artifact (see Read).
func Decode(data []byte) (*Snapshot, error) {
	d := &dec{b: data}

	// Header: magic + version. A short input that matches the magic as
	// far as it goes is truncated, not foreign.
	if !bytes.HasPrefix(data, []byte(magic)) {
		n := len(data)
		if n > len(magic) {
			n = len(magic)
		}
		if n < len(magic) && bytes.Equal(data[:n], []byte(magic)[:n]) {
			return nil, &FormatError{Reason: ErrTruncated, Offset: n, Detail: "input ends inside the format magic"}
		}
		return nil, &FormatError{Reason: ErrBadMagic, Offset: 0, Detail: "input does not begin with \"eyeballas-snap/\""}
	}
	d.off = len(magic)
	version := d.u8("version")
	if d.err != nil {
		return nil, d.err
	}
	if version == 0 || version > Version {
		return nil, &FormatError{Reason: ErrVersion, Offset: len(magic),
			Detail: fmt.Sprintf("artifact version %d, reader understands up to %d", version, Version)}
	}

	// Whole-file checksum: the last 4 bytes cover everything before
	// them, including section headers the per-section CRCs don't.
	if len(data) < len(magic)+1+4 {
		return nil, &FormatError{Reason: ErrTruncated, Offset: len(data), Detail: "input ends before the file checksum"}
	}
	body := data[:len(data)-4]
	wantFile := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if got := crc32.Checksum(body, castagnoli); got != wantFile {
		return nil, &FormatError{Reason: ErrChecksum, Offset: len(body),
			Detail: fmt.Sprintf("file checksum %08x, computed %08x", wantFile, got)}
	}
	d.b = body // sections must end exactly at the file checksum

	snap := &Snapshot{}
	metaPayload := d.readSection(secMeta, "meta")
	dsPayload := d.readSection(secDataset, "dataset")
	lpmPayload := d.readSection(secLPM, "lpm")
	if d.err != nil {
		return nil, d.err
	}
	// End marker, then nothing.
	if tag := d.u8("end tag"); d.err == nil && tag != secEnd {
		d.off--
		d.fail(ErrCorrupt, "expected end marker 0xFF, found tag 0x%02x", tag)
	}
	if n := d.u64("end length"); d.err == nil && n != 0 {
		d.fail(ErrCorrupt, "end marker declares %d payload bytes, want 0", n)
	}
	if d.err == nil && d.off != len(d.b) {
		d.fail(ErrCorrupt, "%d trailing bytes after end marker", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}

	if err := decodeMeta(metaPayload, &snap.Meta); err != nil {
		return nil, err
	}
	ds, err := decodeDataset(dsPayload)
	if err != nil {
		return nil, err
	}
	snap.Dataset = ds
	origins, err := decodeLPM(lpmPayload)
	if err != nil {
		return nil, err
	}
	snap.Origins = origins
	return snap, nil
}

// readSection consumes one framed section, verifying the expected tag
// and the payload CRC, and returns the payload.
func (d *dec) readSection(wantTag byte, name string) []byte {
	if d.err != nil {
		return nil
	}
	tagOff := d.off
	tag := d.u8(name + " section tag")
	if d.err == nil && tag != wantTag {
		d.off = tagOff
		d.fail(ErrCorrupt, "expected %s section (tag 0x%02x), found tag 0x%02x", name, wantTag, tag)
	}
	n := d.u64(name + " section length")
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(ErrTruncated, "%s section declares %d payload bytes, %d remain", name, n, len(d.b)-d.off)
		return nil
	}
	payload := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	want := d.u32(name + " section checksum")
	if d.err != nil {
		return nil
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		d.off -= 4
		d.fail(ErrChecksum, "%s section checksum %08x, computed %08x", name, want, got)
		return nil
	}
	return payload
}

func decodeMeta(payload []byte, m *Meta) error {
	d := &dec{b: payload}
	m.Seed = d.u64("meta seed")
	m.Label = d.str("meta label")
	if d.err == nil && d.off != len(payload) {
		d.fail(ErrCorrupt, "%d trailing bytes in meta section", len(payload)-d.off)
	}
	if d.err != nil {
		return d.err
	}
	return nil
}

// maxCount rejects u64 counters that cannot be represented as a
// non-negative int (the in-memory types are ints).
const maxCount = uint64(math.MaxInt64)

func (d *dec) intCounter(what string) int {
	v := d.u64(what)
	if d.err == nil && v > maxCount {
		d.fail(ErrCorrupt, "%s count %d overflows", what, v)
	}
	return int(v)
}

func decodeDataset(payload []byte) (*pipeline.Dataset, error) {
	d := &dec{b: payload, intern: make(map[string]string), places: make(map[string]*core.Place)}
	ds := &pipeline.Dataset{ASes: make(map[astopo.ASN]*pipeline.ASRecord)}
	ds.CrawledPeers = d.intCounter("crawled peers")
	ds.TotalPeers = d.intCounter("total peers")
	ds.Degraded = d.bool("degraded flag")
	ds.DegradedReason = d.str("degraded reason")

	dr := &ds.Drops
	for _, p := range []*int{&dr.NoCityRecord, &dr.GarbageCoord, &dr.HighGeoErr, &dr.UnmappedIP, &dr.DupIP, &dr.SmallAS, &dr.HighErrAS} {
		*p = d.intCounter("drop counter")
	}

	if d.bool("stream-stats flag") {
		st := &pipeline.StreamStats{}
		for _, p := range []*int{&st.BatchSize, &st.Batches, &st.MaxBatch, &st.DedupEntries, &st.PeakLiveSamples} {
			*p = d.intCounter("stream counter")
		}
		ds.Stream = st
	}

	if d.bool("funnel flag") {
		ds.Funnel = decodeFunnel(d)
	}

	nAS := d.count(4+8+8+1+4+8+4+4+4, "AS record")
	ds.Order = make([]astopo.ASN, 0, nAS)
	var prev astopo.ASN = -1
	for i := 0; i < nAS && d.err == nil; i++ {
		rec := decodeRecord(d)
		if d.err != nil {
			break
		}
		if rec.ASN <= prev {
			d.fail(ErrCorrupt, "AS records out of order: AS%d after AS%d", rec.ASN, prev)
			break
		}
		prev = rec.ASN
		ds.Order = append(ds.Order, rec.ASN)
		ds.ASes[rec.ASN] = rec
	}
	if d.err == nil && d.off != len(payload) {
		d.fail(ErrCorrupt, "%d trailing bytes in dataset section", len(payload)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return ds, nil
}

// decodeFunnel rebuilds the ledger through the funnel's own public
// declaration API so stage and reason order survive a round trip.
func decodeFunnel(d *dec) *obs.Funnel {
	f := obs.NewFunnel(d.str("funnel name"))
	nStages := d.count(4+8+8+4, "funnel stage")
	for i := 0; i < nStages && d.err == nil; i++ {
		name := d.str("stage name")
		in := d.intCounter("stage in")
		out := d.intCounter("stage out")
		s := f.Stage(name)
		s.In(in)
		s.Out(out)
		nReasons := d.count(4+8, "drop reason")
		for j := 0; j < nReasons && d.err == nil; j++ {
			reason := d.str("drop reason")
			count := d.intCounter("drop count")
			s.DeclareReasons(reason)
			s.Drop(reason, count)
		}
	}
	return f
}

func decodeRecord(d *dec) *pipeline.ASRecord {
	rec := &pipeline.ASRecord{}
	rec.ASN = astopo.ASN(d.u32("ASN"))
	rec.Users = d.intCounter("users")
	rec.P90GeoErrKm = d.f64("p90 geo error")
	level := d.u8("class level")
	if d.err == nil && astopo.Level(level) > astopo.LevelGlobal {
		d.fail(ErrCorrupt, "class level %d out of range", level)
	}
	rec.Class.Level = astopo.Level(level)
	rec.Class.Place = d.label("class place")
	rec.Class.Share = d.f64("class share")
	rec.Region = gazetteer.Region(d.label("AS region"))

	nApps := d.count(1+8, "per-app counter")
	if nApps > 0 {
		rec.PeersByApp = make(map[p2p.App]int, nApps)
	}
	prevApp := -1
	for i := 0; i < nApps && d.err == nil; i++ {
		app := int(d.u8("app id"))
		n := d.intCounter("app peer count")
		if d.err != nil {
			break
		}
		if app >= len(p2p.Apps) {
			d.fail(ErrCorrupt, "unknown app id %d", app)
			break
		}
		if app <= prevApp {
			d.fail(ErrCorrupt, "per-app counters out of order at app %d", app)
			break
		}
		prevApp = app
		rec.PeersByApp[p2p.App(app)] = n
	}

	nSamples := d.count(8+8+4+4+4+4+8, "sample")
	rec.Samples = make([]core.Sample, 0, nSamples)
	for i := 0; i < nSamples && d.err == nil; i++ {
		var s core.Sample
		s.Loc = geo.Point{Lat: d.f64("sample lat"), Lon: d.f64("sample lon")}
		s.Place = d.place()
		s.GeoErrKm = d.f64("sample geo error")
		rec.Samples = append(rec.Samples, s)
	}
	return rec
}

// place reads a sample's four labels (city, state, country, region) as
// one *Place shared by every sample with the same labels. The labels sit
// side by side on the wire, so their raw bytes, length prefixes included,
// are the key: the prefixes keep distinct tuples apart, and a tuple seen
// before costs one map lookup and no allocation. Only a new tuple, or
// labels that run past the input, take the field-by-field reads, which
// report the failing field and its offset.
func (d *dec) place() *core.Place {
	start := d.off
	if end, ok := labelsEnd(d.b, start); ok && d.err == nil {
		if p, ok := d.places[string(d.b[start:end])]; ok {
			d.off = end
			return p
		}
	}
	p := &core.Place{
		City:    d.label("sample city"),
		State:   d.label("sample state"),
		Country: d.label("sample country"),
		Region:  gazetteer.Region(d.label("sample region")),
	}
	if d.err == nil {
		d.places[string(d.b[start:d.off])] = p
	}
	return p
}

// labelsEnd returns the offset just past the four length-prefixed
// strings that start at off in b, or false if they run past its end.
func labelsEnd(b []byte, off int) (int, bool) {
	for k := 0; k < 4; k++ {
		if len(b)-off < 4 {
			return 0, false
		}
		n := binary.LittleEndian.Uint32(b[off:])
		if uint64(n) > uint64(len(b)-off-4) {
			return 0, false
		}
		off += 4 + int(n)
	}
	return off, true
}

func decodeLPM(payload []byte) (*bgp.OriginTable, error) {
	d := &dec{b: payload}
	if !d.bool("lpm flag") {
		if d.err == nil && d.off != len(payload) {
			d.fail(ErrCorrupt, "%d trailing bytes in lpm section", len(payload)-d.off)
		}
		if d.err != nil {
			return nil, d.err
		}
		return nil, nil
	}
	nPrefixes := d.count(4+1+4, "lpm prefix")
	prefixes := make([]ipnet.Prefix, 0, nPrefixes)
	values := make([]astopo.ASN, 0, nPrefixes)
	for i := 0; i < nPrefixes && d.err == nil; i++ {
		addr := ipnet.Addr(d.u32("prefix address"))
		bits := int(d.u8("prefix length"))
		asn := astopo.ASN(d.u32("prefix origin"))
		prefixes = append(prefixes, ipnet.Prefix{Addr: addr, Bits: bits})
		values = append(values, asn)
	}
	nSegs := d.count(4+4, "lpm segment")
	starts := make([]ipnet.Addr, 0, nSegs)
	segIdx := make([]int32, 0, nSegs)
	for k := 0; k < nSegs && d.err == nil; k++ {
		starts = append(starts, ipnet.Addr(d.u32("segment start")))
		segIdx = append(segIdx, int32(d.u32("segment index")))
	}
	if d.err == nil && d.off != len(payload) {
		d.fail(ErrCorrupt, "%d trailing bytes in lpm section", len(payload)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	c, err := ipnet.CompiledFromDump(prefixes, values, starts, segIdx)
	if err != nil {
		return nil, &FormatError{Reason: ErrCorrupt, Offset: 0, Detail: err.Error()}
	}
	return bgp.NewOriginTableFromCompiled(c), nil
}
