package trace

import (
	"sync"
	"testing"
	"time"
)

// finish starts a root on tr, ends it with the given duration, and
// returns it; the recorder capture happens inside EndAt.
func finish(tr *Tracer, name string, dur time.Duration) *Span {
	s := tr.StartAt(name, testTime(), "")
	s.EndAt(testTime().Add(dur))
	return s
}

func TestRecorderRetainsNewestFirst(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Recent: 4})
	tr := New(Options{Seed: 1, Recorder: rec})
	var all []*Span
	for i := 0; i < 7; i++ {
		all = append(all, finish(tr, "r", time.Millisecond))
	}
	got := rec.Recent()
	if len(got) != 4 {
		t.Fatalf("Recent() holds %d traces, want ring capacity 4", len(got))
	}
	// Newest first: traces 6,5,4,3.
	for i, s := range got {
		want := all[6-i]
		if s.TraceID() != want.TraceID() {
			t.Fatalf("Recent()[%d] = %s, want %s (newest-first after overflow)",
				i, s.TraceID(), want.TraceID())
		}
	}
	// The overwritten traces 0..2 are gone from Find.
	if rec.Find(all[0].TraceID()) != nil {
		t.Fatal("overwritten trace still findable")
	}
}

func TestRecorderSlowRouting(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Recent: 8, SlowThreshold: 10 * time.Millisecond})
	tr := New(Options{Seed: 2, Recorder: rec})
	fast := finish(tr, "fast", 2*time.Millisecond)
	slow := finish(tr, "slow", 50*time.Millisecond)
	edge := finish(tr, "edge", 10*time.Millisecond) // at-threshold counts as slow

	if got := rec.Recent(); len(got) != 3 {
		t.Fatalf("Recent holds %d, want all 3 (slow traces appear in both rings)", len(got))
	}
	got := rec.Slow()
	if len(got) != 2 {
		t.Fatalf("Slow holds %d traces, want 2", len(got))
	}
	if got[0].TraceID() != edge.TraceID() || got[1].TraceID() != slow.TraceID() {
		t.Fatalf("Slow order = %s,%s; want newest-first edge,slow", got[0].TraceID(), got[1].TraceID())
	}
	if rec.Find(fast.TraceID()) == nil || rec.Find(slow.TraceID()) == nil {
		t.Fatal("Find missed a retained trace")
	}
}

func TestRecorderFindChecksBothRings(t *testing.T) {
	// Recent ring of 1: a slow trace followed by a fast one evicts the
	// slow trace from recent, but Find must still see it via the slow
	// ring.
	rec := NewRecorder(RecorderOptions{Recent: 1, SlowThreshold: 10 * time.Millisecond})
	tr := New(Options{Seed: 3, Recorder: rec})
	slow := finish(tr, "slow", 20*time.Millisecond)
	finish(tr, "fast", time.Millisecond)
	if rec.Find(slow.TraceID()) == nil {
		t.Fatal("slow trace evicted from recent ring not found via slow ring")
	}
}

func TestRecorderNegativeThresholdDisablesSlow(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Recent: 4, SlowThreshold: -1})
	tr := New(Options{Seed: 4, Recorder: rec})
	finish(tr, "r", time.Hour)
	if got := rec.Slow(); len(got) != 0 {
		t.Fatalf("Slow holds %d traces with capture disabled, want 0", len(got))
	}
	if got := rec.Recent(); len(got) != 1 {
		t.Fatalf("Recent holds %d, want 1", len(got))
	}
}

func TestRecorderDefaults(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	tr := New(Options{Seed: 5, Recorder: rec})
	for i := 0; i < 200; i++ {
		finish(tr, "r", time.Millisecond)
	}
	if got := rec.Recent(); len(got) != 128 {
		t.Fatalf("default recent capacity = %d, want 128", len(got))
	}
	// Default threshold 250ms: a 300ms trace lands in slow.
	finish(tr, "slow", 300*time.Millisecond)
	if got := rec.Slow(); len(got) != 1 {
		t.Fatalf("default slow capture missed a 300ms trace (got %d)", len(got))
	}
	// Past its capacity the slow ring keeps the newest slowRing traces.
	var last *Span
	for i := 0; i < slowRing+8; i++ {
		last = finish(tr, "slow", 300*time.Millisecond)
	}
	got := rec.Slow()
	if len(got) != slowRing {
		t.Fatalf("slow ring holds %d traces, want its capacity %d", len(got), slowRing)
	}
	if got[0].TraceID() != last.TraceID() {
		t.Fatal("slow ring does not lead with the newest trace")
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var rec *Recorder
	if rec.Recent() != nil || rec.Slow() != nil || rec.Find(TraceID{1}) != nil {
		t.Fatal("nil recorder reads must return nil")
	}
	// A tracer without a recorder still works end to end.
	tr := New(Options{Seed: 6})
	s := tr.Start("r")
	s.End()
	if s.TraceID().IsZero() {
		t.Fatal("recorderless tracer produced zero trace ID")
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Recent: 16, SlowThreshold: time.Nanosecond})
	tr := New(Options{Recorder: rec})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				finish(tr, "r", time.Millisecond)
				rec.Recent()
				rec.Slow()
			}
		}()
	}
	wg.Wait()
	if got := rec.Recent(); len(got) != 16 {
		t.Fatalf("Recent holds %d after concurrent churn, want full ring 16", len(got))
	}
	for _, s := range rec.Recent() {
		if s == nil {
			t.Fatal("nil slot surfaced from a full ring")
		}
	}
}
