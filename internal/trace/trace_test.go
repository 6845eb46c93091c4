package trace

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eyeballas/internal/obs"
)

// testTime returns a fixed base instant for explicit StartAt/EndAt
// calls.
func testTime() time.Time { return time.Unix(1000, 0) }

// pinnedClock advances 1ms per call, mirroring the obs test clock.
func pinnedClock() func() time.Time {
	base := testTime()
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestSpanTree(t *testing.T) {
	tr := New(Options{Seed: 3, Clock: pinnedClock()})
	root := tr.StartAt("serve.footprint", testTime(), "")
	root.SetStr("route", "footprint")
	root.SetInt("status", 200)
	kde := root.Child("kde.estimate")
	kde.SetInt("samples", 300)
	kde.AddEvent("cache_checked")
	blur := kde.Child("blur_horizontal")
	blur.End()
	kde.End()
	root.EndAt(testTime().Add(10 * time.Millisecond))

	n := root.Tree()
	if n.Name != "serve.footprint" || n.DurNS != int64(10*time.Millisecond) {
		t.Fatalf("root node = %+v", n)
	}
	if len(n.Attrs) != 2 || n.Attrs[0] != (obs.TreeAttr{Key: "route", Val: "footprint"}) ||
		n.Attrs[1] != (obs.TreeAttr{Key: "status", Val: "200"}) {
		t.Fatalf("root attrs = %+v", n.Attrs)
	}
	if len(n.Children) != 1 || n.Children[0].Name != "kde.estimate" {
		t.Fatalf("root children = %+v", n.Children)
	}
	k := n.Children[0]
	if len(k.Events) != 1 || k.Events[0].Name != "cache_checked" || k.Events[0].AtNS <= 0 {
		t.Fatalf("kde events = %+v", k.Events)
	}
	if len(k.Children) != 1 || k.Children[0].Name != "blur_horizontal" {
		t.Fatalf("kde children = %+v", k.Children)
	}
	if root.SpanCount() != 3 {
		t.Fatalf("SpanCount = %d, want 3", root.SpanCount())
	}
}

func TestChildSeqDeterministicUnderConcurrency(t *testing.T) {
	tr := New(Options{Seed: 5})
	root := tr.Start("root")
	var wg sync.WaitGroup
	for i := 16; i > 0; i-- {
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			c := root.ChildSeq("block", seq)
			c.SetInt("lo", int64(seq))
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	n := root.Tree()
	if len(n.Children) != 16 {
		t.Fatalf("children = %d, want 16", len(n.Children))
	}
	for i, c := range n.Children {
		if want := strconv.Itoa(i + 1); c.Attrs[0].Val != want {
			t.Fatalf("child %d has lo=%s, want %s (siblings not sorted by seq)", i, c.Attrs[0].Val, want)
		}
	}
}

func TestSpanBudget(t *testing.T) {
	tr := New(Options{Seed: 9})
	root := tr.Start("root")
	for i := int32(1); i < maxSpans; i++ {
		if root.Child("a") == nil {
			t.Fatalf("child %d within the %d-span budget was rejected", i, maxSpans)
		}
	}
	c := root.Child("c")
	if c != nil {
		t.Fatal("child past the span budget was allocated")
	}
	// Nil children compose: attribute and End calls are no-ops, and
	// grandchildren of a dropped span are dropped too.
	c.SetStr("k", "v")
	c.End()
	if g := c.Child("grandchild"); g != nil {
		t.Fatal("grandchild of dropped span allocated")
	}
	if root.DroppedSpans() != 1 {
		t.Fatalf("DroppedSpans = %d, want 1", root.DroppedSpans())
	}
	if root.SpanCount() != int(maxSpans) {
		t.Fatalf("SpanCount = %d, want %d", root.SpanCount(), maxSpans)
	}
}

func TestEndIdempotentAndRecordsOnce(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Recent: 4})
	tr := New(Options{Seed: 2, Recorder: rec})
	s := tr.StartAt("r", testTime(), "")
	s.EndAt(testTime().Add(5 * time.Millisecond))
	s.EndAt(testTime().Add(50 * time.Millisecond))
	if d, ok := s.Duration(); !ok || d != 5*time.Millisecond {
		t.Fatalf("Duration = %v %v, want first End to win", d, ok)
	}
	if got := len(rec.Recent()); got != 1 {
		t.Fatalf("recorder holds %d traces, want 1 (double End must not re-record)", got)
	}
}

func TestNilTracerAllocationFree(t *testing.T) {
	var tr *Tracer
	var sp *Span
	ctx := context.Background()
	checks := map[string]func(){
		"Start":       func() { tr.Start("x") },
		"StartAt":     func() { tr.StartAt("x", time.Time{}, "") },
		"Recorder":    func() { tr.Recorder() },
		"Child":       func() { sp.Child("x") },
		"ChildSeq":    func() { sp.ChildSeq("x", 1) },
		"SetStr":      func() { sp.SetStr("k", "v") },
		"SetInt":      func() { sp.SetInt("k", 12345) },
		"AddEvent":    func() { sp.AddEvent("e") },
		"End":         func() { sp.End() },
		"EndAt":       func() { sp.EndAt(time.Time{}) },
		"Duration":    func() { sp.Duration() },
		"TraceID":     func() { sp.TraceID() },
		"SpanID":      func() { sp.SpanID() },
		"Traceparent": func() { sp.Traceparent() },
		"NewContext":  func() { NewContext(ctx, sp) },
		"FromContext": func() { FromContext(ctx) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s on nil receiver allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(Options{Seed: 4})
	s := tr.Start("root")
	ctx := NewContext(context.Background(), s)
	if got := FromContext(ctx); got != s {
		t.Fatalf("FromContext = %v, want the stored span", got)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext of bare context not nil")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) not nil")
	}
	// A nil span leaves the context untouched (no allocation, no key).
	base := context.Background()
	if NewContext(base, nil) != base {
		t.Fatal("NewContext with nil span rewrapped the context")
	}
}

func TestExemplarSource(t *testing.T) {
	tr := New(Options{Seed: 6})
	s := tr.StartAt("r", testTime(), "")
	s.EndAt(testTime().Add(42 * time.Millisecond))
	var ex obs.ExemplarSource = s
	if got := ex.ExemplarTraceID(); got != s.TraceID().String() {
		t.Fatalf("ExemplarTraceID = %q", got)
	}
	if got := ex.ExemplarValue(); got != 0.042 {
		t.Fatalf("ExemplarValue = %v, want 0.042", got)
	}
}

func TestWriteJSONDetail(t *testing.T) {
	tr := New(Options{Seed: 12, Clock: pinnedClock()})
	root := tr.StartAt("serve.footprint", testTime(), "")
	root.SetStr("route", "footprint")
	c := root.Child("kde.estimate")
	c.End()
	root.EndAt(testTime().Add(8 * time.Millisecond))

	var sb strings.Builder
	if err := WriteJSON(&sb, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"trace_id": "` + root.TraceID().String() + `"`,
		`"traceparent": "00-` + root.TraceID().String() + `-` + root.SpanID().String() + `-01"`,
		`"duration_ns": 8000000`,
		`"spans": 2`,
		`"name": "kde.estimate"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteJSON output missing %q:\n%s", want, out)
		}
	}
	// Determinism: rendering the same finished trace twice is
	// byte-identical.
	var sb2 strings.Builder
	WriteJSON(&sb2, root)
	if sb2.String() != out {
		t.Fatal("WriteJSON is not deterministic for a finished trace")
	}
}
