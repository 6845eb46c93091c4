package bgp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/obs"
)

// Entry is one RIB row: a prefix and the AS path from the vantage point to
// its origin (last element).
type Entry struct {
	Prefix ipnet.Prefix
	Path   []astopo.ASN
}

// Origin returns the originating AS of the entry.
func (e Entry) Origin() astopo.ASN { return e.Path[len(e.Path)-1] }

// Resolver maps an IP address to its origin AS — the one capability the
// pipeline's per-peer stage needs from a BGP table. Both *RIB and
// *OriginTable implement it.
type Resolver interface {
	OriginOf(a ipnet.Addr) (astopo.ASN, bool)
}

// RIB is a routing table as observed from one vantage AS — the synthetic
// analogue of one RouteViews peer's table dump.
//
// The prefix→origin mapping lives in two forms: a mutable radix trie used
// while rows are being inserted, and an immutable compiled flat form
// (ipnet.Compiled) frozen once construction finishes. OriginOf serves
// from the compiled form, which is both faster (binary search over a
// flat array instead of pointer chasing) and safe for concurrent readers.
type RIB struct {
	Vantage astopo.ASN
	Entries []Entry

	table    *ipnet.Table[astopo.ASN]
	compiled *ipnet.Compiled[astopo.ASN]
}

// BuildRIB materializes the RIB seen from vantage. Destinations the
// vantage cannot reach (none exist in generated worlds, but defensively)
// are omitted.
func BuildRIB(w *astopo.World, r *Routing, vantage astopo.ASN) (*RIB, error) {
	return BuildRIBObs(w, r, vantage, nil)
}

// BuildRIBObs is BuildRIB with instrumentation: the compile-time
// histogram and entry/segment gauges. A nil registry disables all of it
// (BuildRIB delegates here with nil). The build's span is the caller's
// (pipeline's "bgp.ribs").
func BuildRIBObs(w *astopo.World, r *Routing, vantage astopo.ASN, reg *obs.Registry) (*RIB, error) {
	if w.AS(vantage) == nil {
		return nil, fmt.Errorf("bgp: unknown vantage AS %d", vantage)
	}
	rib := &RIB{Vantage: vantage, table: ipnet.NewTable[astopo.ASN]()}
	for _, dst := range r.ASNs() {
		path := r.Path(vantage, dst)
		if path == nil {
			continue
		}
		for _, p := range w.AS(dst).Prefixes {
			rib.Entries = append(rib.Entries, Entry{Prefix: p, Path: path})
			rib.table.Insert(p, dst)
		}
	}
	sort.Slice(rib.Entries, func(i, j int) bool {
		if rib.Entries[i].Prefix.Addr != rib.Entries[j].Prefix.Addr {
			return rib.Entries[i].Prefix.Addr < rib.Entries[j].Prefix.Addr
		}
		return rib.Entries[i].Prefix.Bits < rib.Entries[j].Prefix.Bits
	})
	rib.compiled = compileObs(reg, rib.table)
	if reg != nil {
		vantageLabel := strconv.Itoa(int(vantage))
		reg.Gauge("eyeball_bgp_rib_entries", "vantage", vantageLabel).Set(float64(len(rib.Entries)))
		reg.Gauge("eyeball_bgp_rib_segments", "vantage", vantageLabel).Set(float64(rib.compiled.Segments()))
	}
	return rib, nil
}

// compileObs freezes a trie into its compiled flat form, recording the
// compile wall-clock and counting compilations when a registry is live.
// The compile is a one-off per table — its cost is measured here so
// BENCH/metrics can attribute it, while the per-lookup hot path stays
// untouched (see the package comment on OriginTable).
func compileObs(reg *obs.Registry, t *ipnet.Table[astopo.ASN]) *ipnet.Compiled[astopo.ASN] {
	if reg == nil {
		return t.Compile()
	}
	start := time.Now()
	c := t.Compile()
	reg.Histogram("eyeball_bgp_compile_seconds", obs.LatencyBuckets()).Observe(time.Since(start).Seconds())
	reg.Counter("eyeball_bgp_compiles_total").Inc()
	return c
}

// OriginOf maps an address to its origin AS by longest-prefix match,
// using the compiled flat table.
func (rib *RIB) OriginOf(a ipnet.Addr) (astopo.ASN, bool) {
	if rib.compiled != nil {
		return rib.compiled.Lookup(a)
	}
	return rib.table.Lookup(a)
}

// Len returns the number of RIB rows.
func (rib *RIB) Len() int { return len(rib.Entries) }

// WriteTo serializes the RIB in a plain text format, one row per line:
//
//	PREFIX|ASN ASN ... ASN
//
// mirroring the show-ip-bgp dumps the RouteViews archive distributes.
func (rib *RIB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "# eyeballas RIB vantage=%d entries=%d\n", rib.Vantage, len(rib.Entries))
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, e := range rib.Entries {
		parts := make([]string, len(e.Path))
		for i, a := range e.Path {
			parts[i] = strconv.Itoa(int(a))
		}
		n, err := fmt.Fprintf(bw, "%s|%s\n", e.Prefix, strings.Join(parts, " "))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// ReadRIB parses the format written by WriteTo. If the header declares an
// entries= count (WriteTo always writes one), the parsed row count is
// validated against it, so truncated or corrupted dumps are rejected
// instead of silently yielding a partial table.
func ReadRIB(r io.Reader) (*RIB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rib := &RIB{table: ipnet.NewTable[astopo.ASN]()}
	lineNo := 0
	declared := -1 // entries= from the header, -1 = not declared
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if v := headerField(line, "vantage="); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("bgp: line %d: bad vantage: %v", lineNo, err)
				}
				rib.Vantage = astopo.ASN(n)
			}
			if v := headerField(line, "entries="); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("bgp: line %d: bad entries count %q", lineNo, v)
				}
				declared = n
			}
			continue
		}
		bar := strings.IndexByte(line, '|')
		if bar < 0 {
			return nil, fmt.Errorf("bgp: line %d: missing '|'", lineNo)
		}
		prefix, err := ipnet.ParsePrefix(line[:bar])
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: %v", lineNo, err)
		}
		var path []astopo.ASN
		for _, f := range strings.Fields(line[bar+1:]) {
			n, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("bgp: line %d: bad ASN %q", lineNo, f)
			}
			path = append(path, astopo.ASN(n))
		}
		if len(path) == 0 {
			return nil, fmt.Errorf("bgp: line %d: empty AS path", lineNo)
		}
		e := Entry{Prefix: prefix, Path: path}
		rib.Entries = append(rib.Entries, e)
		rib.table.Insert(prefix, e.Origin())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declared >= 0 && declared != len(rib.Entries) {
		return nil, fmt.Errorf("bgp: header declares %d entries but %d rows parsed (truncated or corrupt dump?)",
			declared, len(rib.Entries))
	}
	rib.compiled = rib.table.Compile()
	return rib, nil
}

func headerField(line, key string) string {
	idx := strings.Index(line, key)
	if idx < 0 {
		return ""
	}
	rest := line[idx+len(key):]
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	return rest
}

// OriginTable is the merged origin mapping across several vantages — the
// paper's "archived BGP tables from the routeviews database" (§2). When
// vantages disagree on an origin (they do not in generated worlds, but a
// parsed foreign table might), the first vantage wins.
//
// At the paper's scale OriginOf answers 89.1M lookups (one per crawled
// peer), making it the hottest scalar call in pipeline.Build — so the
// merged trie is frozen into its compiled flat form once at construction
// and every lookup runs allocation-free against that.
type OriginTable struct {
	table    *ipnet.Table[astopo.ASN]
	compiled *ipnet.Compiled[astopo.ASN]
	size     int
}

// NewOriginTable merges RIBs and compiles the merged table.
func NewOriginTable(ribs ...*RIB) *OriginTable {
	return NewOriginTableObs(nil, ribs...)
}

// NewOriginTableObs is NewOriginTable with instrumentation: the
// compile-time histogram and prefix/segment gauges. The merge's span is
// the caller's (pipeline's "bgp.origin_table").
//
// Lookup accounting is deliberately NOT done inside OriginOf: the
// compiled lookup runs in ~6 ns and even one uncontended atomic
// increment would roughly double it. Instead, callers count lookups at
// their aggregation points (the pipeline flushes block-local deltas
// into eyeball_bgp_origin_lookups_total — shard-aggregated counting
// where each work block is a shard), so the instrumented hot loop is
// instruction-identical to the bare one. BenchmarkOriginOfInstrumented
// against BenchmarkOriginOfCompiled reports the overhead.
func NewOriginTableObs(reg *obs.Registry, ribs ...*RIB) *OriginTable {
	ot := &OriginTable{table: ipnet.NewTable[astopo.ASN]()}
	for _, rib := range ribs {
		for _, e := range rib.Entries {
			if _, exists := ot.table.LookupPrefix(e.Prefix); !exists {
				ot.table.Insert(e.Prefix, e.Origin())
				ot.size++
			}
		}
	}
	ot.compiled = compileObs(reg, ot.table)
	if reg != nil {
		reg.Gauge("eyeball_bgp_origin_prefixes").Set(float64(ot.size))
		reg.Gauge("eyeball_bgp_origin_segments").Set(float64(ot.compiled.Segments()))
	}
	return ot
}

// NewOriginTableFromCompiled wraps an already-compiled flat LPM table —
// the shape a dataset snapshot deserializes — into an OriginTable. The
// mutable build-time trie is absent: OriginOf serves straight from the
// compiled form, and OriginOfUncompiled falls back to it too (there is
// no trie to reference).
func NewOriginTableFromCompiled(c *ipnet.Compiled[astopo.ASN]) *OriginTable {
	return &OriginTable{compiled: c, size: c.Len()}
}

// Compiled exposes the origin table's immutable flat LPM form (nil if
// the table was never compiled) — the serialization surface snapshots
// persist.
func (ot *OriginTable) Compiled() *ipnet.Compiled[astopo.ASN] { return ot.compiled }

// Segments exposes the compiled table's flat segment count (a capacity
// diagnostic; see ipnet.Compiled.Segments).
func (ot *OriginTable) Segments() int {
	if ot.compiled == nil {
		return 0
	}
	return ot.compiled.Segments()
}

// OriginOf maps an address to its origin AS via the compiled table.
func (ot *OriginTable) OriginOf(a ipnet.Addr) (astopo.ASN, bool) {
	if ot.compiled != nil {
		return ot.compiled.Lookup(a)
	}
	return ot.table.Lookup(a)
}

// OriginOfUncompiled answers the same query through the mutable radix
// trie. It is the reference path, retained for differential tests that
// prove the compiled wiring changes nothing (and benchmarks that measure
// what it buys). Tables reconstructed from a snapshot
// (NewOriginTableFromCompiled) have no trie and serve from the compiled
// form here too.
func (ot *OriginTable) OriginOfUncompiled(a ipnet.Addr) (astopo.ASN, bool) {
	if ot.table == nil {
		return ot.compiled.Lookup(a)
	}
	return ot.table.Lookup(a)
}

// Len returns the number of distinct prefixes.
func (ot *OriginTable) Len() int { return ot.size }
