package trace

import (
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, ok := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if !ok {
		t.Fatal("ParseTraceID rejected valid id")
	}
	sid, ok := ParseSpanID("b7ad6b7169203331")
	if !ok {
		t.Fatal("ParseSpanID rejected valid id")
	}
	h := FormatTraceparent(tid, sid)
	want := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("ParseTraceparent(%q) = %v %v %v", h, gotT, gotS, ok)
	}
	if tid.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("TraceID.String = %q", tid.String())
	}
	if sid.String() != "b7ad6b7169203331" {
		t.Fatalf("SpanID.String = %q", sid.String())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	bad := []string{
		"",
		"00",
		valid[:54],             // truncated
		valid + "0",            // too long
		"ff" + valid[2:],       // reserved version
		"0x" + valid[2:],       // non-hex version
		strings.ToUpper(valid), // uppercase hex (W3C requires lower)
		strings.Replace(valid, "-", "_", 3),
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex digit
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", // non-hex flags
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
}

func TestSeededIDsDeterministic(t *testing.T) {
	a := New(Options{Seed: 7})
	b := New(Options{Seed: 7})
	for i := 0; i < 16; i++ {
		sa := a.Start("x")
		sb := b.Start("x")
		if sa.TraceID() != sb.TraceID() || sa.SpanID() != sb.SpanID() {
			t.Fatalf("seeded tracers diverged at trace %d: %s/%s vs %s/%s",
				i, sa.TraceID(), sa.SpanID(), sb.TraceID(), sb.SpanID())
		}
		if sa.TraceID().IsZero() || sa.SpanID().IsZero() {
			t.Fatal("seeded tracer produced a zero ID")
		}
	}
	c := New(Options{Seed: 8})
	if a.Start("x").TraceID() == c.Start("x").TraceID() {
		t.Fatal("different seeds produced the same trace ID")
	}
}

func TestUnseededIDsRandom(t *testing.T) {
	// Two unseeded tracers draw independent random states; a collision
	// on the first 128-bit trace ID would be astronomically unlikely.
	a := New(Options{}).Start("x")
	b := New(Options{}).Start("x")
	if a.TraceID() == b.TraceID() {
		t.Fatal("two unseeded tracers produced identical trace IDs")
	}
}

func TestStartAtInheritsTraceparent(t *testing.T) {
	tr := New(Options{Seed: 1})
	h := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	s := tr.StartAt("serve.footprint", testTime(), h)
	if got := s.TraceID().String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("inbound trace ID not inherited: %s", got)
	}
	if s.SpanID().String() == "b7ad6b7169203331" {
		t.Fatal("root span reused the remote parent's span ID")
	}
	// Malformed headers must not leak into the trace identity.
	s2 := tr.StartAt("serve.footprint", testTime(), "garbage")
	if s2.TraceID().IsZero() || s2.TraceID() == s.TraceID() {
		t.Fatalf("malformed traceparent handled wrong: %s", s2.TraceID())
	}
}
