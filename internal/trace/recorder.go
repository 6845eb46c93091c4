package trace

import (
	"math"
	"sync/atomic"
	"time"
)

// RecorderOptions configure a flight recorder. Zero fields take the
// listed defaults.
type RecorderOptions struct {
	// Recent is the size of the main ring: the last Recent completed
	// traces are retained regardless of latency (default 128).
	Recent int
	// SlowThreshold routes a completed trace into the slow ring when
	// its duration reaches the threshold (default 250ms; negative
	// disables slow capture).
	SlowThreshold time.Duration
}

// slowRing is the size of the slow ring.
const slowRing int = 32

// Recorder is the flight recorder: two fixed-size rings of completed
// root spans. The recent ring answers "what has this server just
// done"; the slow ring keeps latency outliers that would otherwise be
// evicted by the request flood that follows them. Memory is strictly
// bounded: at most Recent+slowRing trace roots are referenced, each
// capped at the per-trace span budget.
//
// record is a single atomic slot store on the request path; readers
// (the /debug handlers) walk the rings lock-free and may observe a
// concurrent overwrite as a skipped slot — acceptable for a diagnostic
// surface, and the reason no lock sits on the hot path.
type Recorder struct {
	recent ring
	slow   ring
	slowNS int64
}

// NewRecorder creates a flight recorder; see RecorderOptions.
func NewRecorder(o RecorderOptions) *Recorder {
	if o.Recent <= 0 {
		o.Recent = 128
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 250 * time.Millisecond
	}
	r := &Recorder{
		recent: ring{slots: make([]atomic.Pointer[Span], o.Recent)},
		slow:   ring{slots: make([]atomic.Pointer[Span], slowRing)},
		slowNS: int64(o.SlowThreshold),
	}
	if o.SlowThreshold < 0 {
		r.slowNS = math.MaxInt64
	}
	return r
}

// record files a completed root span. Called by Span.EndAt exactly once
// per trace.
func (r *Recorder) record(root *Span) {
	r.recent.push(root)
	if root.durNS() >= r.slowNS {
		r.slow.push(root)
	}
}

// Recent returns the retained traces, newest first.
func (r *Recorder) Recent() []*Span {
	if r == nil {
		return nil
	}
	return r.recent.newestFirst()
}

// Slow returns the retained slow traces, newest first.
func (r *Recorder) Slow() []*Span {
	if r == nil {
		return nil
	}
	return r.slow.newestFirst()
}

// Find returns the retained trace with the given ID, searching the
// recent then the slow ring, or nil.
func (r *Recorder) Find(id TraceID) *Span {
	if r == nil || id.IsZero() {
		return nil
	}
	if s := r.recent.find(id); s != nil {
		return s
	}
	return r.slow.find(id)
}

// ring is a lock-free overwrite ring of completed trace roots.
type ring struct {
	next  atomic.Uint64
	slots []atomic.Pointer[Span]
}

func (g *ring) push(s *Span) {
	i := g.next.Add(1) - 1
	g.slots[i%uint64(len(g.slots))].Store(s)
}

func (g *ring) newestFirst() []*Span {
	n := g.next.Load()
	out := make([]*Span, 0, len(g.slots))
	for k := 0; k < len(g.slots); k++ {
		if uint64(k) >= n {
			break // ring never filled this far
		}
		i := (n - 1 - uint64(k)) % uint64(len(g.slots))
		if s := g.slots[i].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (g *ring) find(id TraceID) *Span {
	for i := range g.slots {
		if s := g.slots[i].Load(); s != nil && s.traceID == id {
			return s
		}
	}
	return nil
}
