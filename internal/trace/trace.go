// Package trace is the repository's one span API. On the serve path it
// gives one root span per request, child spans down through footprint
// rendering and KDE blocks, W3C traceparent interop, and a fixed-size
// flight recorder that keeps the last N completed traces (plus slow
// outliers) inspectable at /debug/requests. The batch CLIs open one root
// per run (CLIFlags), under which every pipeline and KDE stage nests.
//
// The package is dependency-free beyond the standard library and
// internal/obs (whose TreeNode encoder renders traces), and follows the
// repository's observability discipline:
//
//   - A nil *Tracer or *Span is a no-op: every method returns
//     immediately after one branch and allocates nothing, proven by
//     testing.AllocsPerRun. Instrumented code never checks whether
//     tracing is enabled.
//
//   - Tracing is a read-only side channel. Response and dataset bytes
//     are bit-identical with tracing on or off.
//
//   - IDs derive from a splitmix64 stream. Seeded tracers (tests, CI)
//     produce a deterministic ID sequence; unseeded tracers draw a
//     random initial state, so production IDs are unpredictable.
//
// Concurrency contract: a span's attributes and events are written only
// by the goroutine that created the span (the request goroutine for the
// root, the worker goroutine for a per-block child). Creating children
// is safe from concurrent goroutines. This keeps attribute writes
// lock-free on the request hot path; the recorder's publication of a
// finished root establishes the happens-before edge readers need.
package trace

import (
	"encoding/binary"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"

	"eyeballas/internal/obs"
)

// splitmix64 constants: the golden-gamma increment and the finalizer
// multipliers (Steele et al., "Fast splittable pseudorandom number
// generators") — the same mixer internal/rng uses for dataset
// derivation, reproduced here so trace stays free of non-obs imports.
const splitmixGamma = 0x9e3779b97f4a7c15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Options configure a Tracer.
type Options struct {
	// Seed fixes the ID stream: a nonzero seed yields the same sequence
	// of trace/span IDs on every run (tests, CI smokes). Zero — the
	// production default — draws a random initial state.
	Seed uint64
	// Recorder receives completed root spans; nil disables the flight
	// recorder (traces are still built and can be inspected by the
	// caller that holds the root).
	Recorder *Recorder
	// Clock overrides time.Now for events (tests). Span start/end times
	// are supplied by callers (StartAt/EndAt) so tracing adds no clock
	// reads on paths that already measure latency.
	Clock func() time.Time
	// MaxSpans bounds the spans allocated per trace (default 1024).
	// Past the budget Child returns nil — callers are nil-safe — and
	// the trace reports the dropped count.
	MaxSpans int
}

// Tracer mints traces. A nil *Tracer is the disabled state: Start
// returns a nil *Span and the whole span API degrades to branch-only
// no-ops.
type Tracer struct {
	state    atomic.Uint64
	slab     atomic.Pointer[spanSlab]
	rec      *Recorder
	clock    func() time.Time
	maxSpans int32
}

// slabSpans sizes the bump-allocation slabs spans are carved from: one
// heap allocation per slabSpans spans instead of one per span, which is
// what keeps the traced hot path inside the serve layer's ≤3% overhead
// budget. Spans are never reused — a slab position is handed out once —
// so the only cost of the scheme is retention granularity: a trace held
// by the flight recorder pins the (~18 KiB) slabs its spans live in
// until the trace itself is overwritten.
const slabSpans = 32

type spanSlab struct {
	next  atomic.Uint32
	spans [slabSpans]Span
}

// allocSpan hands out the next span slot, starting a fresh slab when
// the current one is exhausted. Lock-free: the fast path is one atomic
// add; slab turnover is a CAS race whose losers simply retry on the
// winner's slab.
func (t *Tracer) allocSpan() *Span {
	for {
		sl := t.slab.Load()
		if sl != nil {
			if i := sl.next.Add(1); i <= slabSpans {
				return &sl.spans[i-1]
			}
		}
		fresh := &spanSlab{}
		fresh.next.Store(1)
		if t.slab.CompareAndSwap(sl, fresh) {
			return &fresh.spans[0]
		}
	}
}

// New creates a Tracer. See Options for seeding and recording.
func New(o Options) *Tracer {
	t := &Tracer{rec: o.Recorder, clock: o.Clock}
	if t.clock == nil {
		t.clock = time.Now
	}
	seed := o.Seed
	if seed == 0 {
		seed = rand.Uint64()
	}
	t.state.Store(seed)
	if o.MaxSpans > 0 {
		t.maxSpans = int32(o.MaxSpans)
	} else {
		t.maxSpans = 1024
	}
	return t
}

// Recorder returns the tracer's flight recorder (nil on a nil tracer or
// when recording is disabled).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// nextID draws the next nonzero 64-bit ID from the splitmix64 stream.
func (t *Tracer) nextID() uint64 {
	for {
		if v := mix64(t.state.Add(splitmixGamma)); v != 0 {
			return v
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		putBE(id[0:8], t.nextID())
		putBE(id[8:16], t.nextID())
	}
	return id
}

// newRootIDs draws a trace ID and a span ID with a single atomic
// advance of the splitmix64 state — three stream values in one shared-
// cacheline operation, the same values three nextID calls would draw.
func (t *Tracer) newRootIDs() (TraceID, SpanID) {
	// Untyped-constant multiples of the gamma reduced mod 2^64, so the
	// wrap matches what repeated uint64 Adds would produce.
	const (
		gamma2 = splitmixGamma * 2 % (1 << 64)
		gamma3 = splitmixGamma * 3 % (1 << 64)
	)
	z := t.state.Add(gamma3)
	var tid TraceID
	var sid SpanID
	putBE(tid[0:8], mix64(z-gamma2))
	putBE(tid[8:16], mix64(z-splitmixGamma))
	putBE(sid[:], mix64(z))
	if tid.IsZero() {
		tid = t.newTraceID() // ~2^-128: both mixed words were zero
	}
	if sid.IsZero() {
		sid = t.newSpanID()
	}
	return tid, sid
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	putBE(id[:], t.nextID())
	return id
}

func putBE(dst []byte, v uint64) {
	binary.BigEndian.PutUint64(dst, v)
}

// Start opens a root span beginning now, with a fresh trace ID.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(name, t.clock(), "")
}

// StartAt opens a root span with an explicit start time (reuse the
// timestamp the caller already took for latency measurement) and an
// optional inbound traceparent header: a valid header continues the
// remote trace (its trace ID is inherited and the remote span becomes
// the parent); an empty or malformed header starts a fresh trace.
// Returns nil on a nil tracer.
func (t *Tracer) StartAt(name string, start time.Time, traceparent string) *Span {
	if t == nil {
		return nil
	}
	s := t.allocSpan()
	s.tracer = t
	s.name = name
	s.start = start
	s.root = s
	if traceparent != "" {
		if tid, parent, ok := ParseTraceparent(traceparent); ok {
			s.traceID = tid
			s.remote = parent
		}
	}
	if s.traceID.IsZero() {
		s.traceID, s.id = t.newRootIDs()
	} else {
		s.id = t.newSpanID()
	}
	return s
}

// Attr is one key/value attribute. Integer values in the span's inline
// buffer are kept raw (flagged in the span's intMask) and rendered at
// snapshot time, so SetInt never formats on the hot path.
type Attr struct {
	Key string
	Str string
	Int int64
}

// Event is a point-in-time marker on a span; At is the offset from the
// trace root's start.
type Event struct {
	Name string
	At   time.Duration
}

// Span is one timed operation within a trace. The zero value is not
// usable; spans come from Tracer.StartAt and Span.Child. A nil *Span is
// a no-op for every method.
type Span struct {
	tracer *Tracer
	root   *Span
	name   string
	start  time.Time
	// done holds duration+1 ns once ended, 0 while open — the zero
	// value means "open", so a fresh slab span needs no initializing
	// atomic store.
	done atomic.Int64

	traceID TraceID // root only
	id      SpanID
	remote  SpanID // root only: inbound traceparent parent
	seq     int32  // sibling sort key (deterministic under parallelism)

	// Root only: child spans allocated / dropped for the whole trace
	// (the root itself is uncounted, so a fresh zeroed span needs no
	// initializing store).
	nkids   atomic.Int32
	dropped atomic.Int32

	// Attributes are written only by the creating goroutine (see the
	// package concurrency contract). attrBuf is an inline count-indexed
	// buffer — no slice header to initialize — sized for the serve root
	// span's seven attributes (route, asn, generation, cache, status,
	// outcome, bytes); intMask flags which inline slots hold raw ints.
	// extra takes the rare overflow past eight attributes with values
	// pre-rendered to strings (formatting there is off the hot path).
	nattrs  uint8
	intMask uint8
	attrBuf [8]Attr
	extra   []Attr
	events  []Event

	kids spanList
}

// addAttr appends one attribute; isInt marks attrBuf ints for lazy
// formatting at snapshot time.
func (s *Span) addAttr(a Attr, isInt bool) {
	if n := s.nattrs; int(n) < len(s.attrBuf) {
		s.attrBuf[n] = a
		if isInt {
			s.intMask |= 1 << n
		}
		s.nattrs = n + 1
		return
	}
	if isInt {
		a.Str = strconv.FormatInt(a.Int, 10)
	}
	s.extra = append(s.extra, a)
}

// appendAttrs materializes the span's attributes in recorded order.
func (s *Span) appendAttrs(dst []obs.TreeAttr) []obs.TreeAttr {
	for i := uint8(0); i < s.nattrs; i++ {
		a := s.attrBuf[i]
		val := a.Str
		if s.intMask&(1<<i) != 0 {
			val = strconv.FormatInt(a.Int, 10)
		}
		dst = append(dst, obs.TreeAttr{Key: a.Key, Val: val})
	}
	for _, a := range s.extra {
		dst = append(dst, obs.TreeAttr{Key: a.Key, Val: a.Str})
	}
	return dst
}

// numAttrs returns the attribute count.
func (s *Span) numAttrs() int { return int(s.nattrs) + len(s.extra) }

// TraceID returns the trace's ID (zero on a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.root.traceID
}

// SpanID returns this span's ID (zero on a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Name returns the span's name ("" on a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Traceparent renders the trace's W3C traceparent header with this span
// as the parent ("" on a nil span).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.root.traceID, s.id)
}

// Child opens a nested span starting now. Returns nil on a nil
// receiver or once the trace's span budget is exhausted.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, -1, s.tracer.clock())
}

// ChildAt is Child with an explicit start time.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, -1, start)
}

// ChildSeq opens a nested span with an explicit sibling sequence key.
// Concurrent workers creating siblings should pass a schedule-
// independent key (e.g. the block's low index): snapshots sort siblings
// by it, so the rendered tree is deterministic no matter which worker
// finished first.
func (s *Span) ChildSeq(name string, seq int) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, int32(seq), s.tracer.clock())
}

func (s *Span) child(name string, seq int32, start time.Time) *Span {
	root := s.root
	if root.nkids.Add(1) > root.tracer.maxSpans-1 {
		root.nkids.Add(-1)
		root.dropped.Add(1)
		return nil
	}
	c := s.tracer.allocSpan()
	c.tracer = s.tracer
	c.root = root
	c.name = name
	c.start = start
	c.id = s.tracer.newSpanID()
	c.seq = s.kids.add(c, seq)
	return c
}

// SetStr records a string attribute. No-op on a nil receiver.
func (s *Span) SetStr(key, val string) {
	if s == nil {
		return
	}
	s.addAttr(Attr{Key: key, Str: val}, false)
}

// SetInt records an integer attribute; the value is formatted only at
// snapshot time. No-op on a nil receiver.
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.addAttr(Attr{Key: key, Int: val}, true)
}

// AddEvent records a named point-in-time event at the current clock,
// as an offset from the trace root's start. No-op on a nil receiver.
func (s *Span) AddEvent(name string) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{Name: name, At: s.tracer.clock().Sub(s.root.start)})
}

// End closes the span at the current clock. Ending twice keeps the
// first duration. Ending a root span hands the completed trace to the
// flight recorder. No-op on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tracer.clock())
}

// EndAt is End with an explicit end time (reuse the timestamp the
// caller already took).
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	d := t.Sub(s.start)
	if d < 0 {
		d = 0
	}
	if !s.done.CompareAndSwap(0, int64(d)+1) {
		return
	}
	if s == s.root && s.tracer.rec != nil {
		s.tracer.rec.record(s)
	}
}

// durNS returns the span duration in nanoseconds, -1 while open (the
// TreeNode convention).
func (s *Span) durNS() int64 {
	return s.done.Load() - 1
}

// Duration returns the recorded duration and whether the span ended.
func (s *Span) Duration() (time.Duration, bool) {
	if s == nil {
		return 0, false
	}
	ns := s.done.Load()
	if ns == 0 {
		return 0, false
	}
	return time.Duration(ns - 1), true
}

// SpanCount returns the number of spans allocated in this span's trace.
func (s *Span) SpanCount() int {
	if s == nil {
		return 0
	}
	return int(s.root.nkids.Load()) + 1
}

// DroppedSpans returns how many Child calls the trace's span budget
// rejected.
func (s *Span) DroppedSpans() int {
	if s == nil {
		return 0
	}
	return int(s.root.dropped.Load())
}

// ExemplarTraceID implements obs.ExemplarSource: the hex trace ID,
// materialized only when an exposition renders the exemplar.
func (s *Span) ExemplarTraceID() string { return s.TraceID().String() }

// ExemplarValue implements obs.ExemplarSource: the span's duration in
// seconds — the value the serve middleware observes into its latency
// histogram.
func (s *Span) ExemplarValue() float64 {
	d, _ := s.Duration()
	return d.Seconds()
}
