package trace

import "encoding/hex"

// TraceID is a W3C trace-context trace ID: 16 bytes, rendered as 32
// lowercase hex digits. The all-zero value is invalid and doubles as
// "absent".
type TraceID [16]byte

// SpanID is a W3C trace-context parent/span ID: 8 bytes, 16 hex digits.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var dst [32]byte
	hex.Encode(dst[:], id[:])
	return string(dst[:])
}

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var dst [16]byte
	hex.Encode(dst[:], id[:])
	return string(dst[:])
}

// ParseTraceID parses 32 lowercase hex digits. ok is false for any
// other length, non-hex input, or the all-zero ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 || !decodeLowerHex(id[:], s) || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// ParseSpanID parses 16 lowercase hex digits, rejecting the all-zero ID.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 || !decodeLowerHex(id[:], s) || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// decodeLowerHex decodes exactly len(dst)*2 lowercase hex digits —
// uppercase is rejected, per the W3C trace-context ABNF.
func decodeLowerHex(dst []byte, s string) bool {
	for i := range dst {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-parentid-flags, e.g.
// "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").
// It accepts version 00 exactly; ok is false for malformed input,
// uppercase hex, the reserved version ff, or all-zero IDs.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, ok bool) {
	// 2 (version) + 1 + 32 (trace-id) + 1 + 16 (parent-id) + 1 + 2 (flags)
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if h[0] != '0' || h[1] != '0' {
		return TraceID{}, SpanID{}, false
	}
	tid, ok = ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	parent, ok = ParseSpanID(h[36:52])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	if _, ok := hexVal(h[53]); !ok {
		return TraceID{}, SpanID{}, false
	}
	if _, ok := hexVal(h[54]); !ok {
		return TraceID{}, SpanID{}, false
	}
	return tid, parent, true
}

// FormatTraceparent renders a version-00 traceparent header with the
// sampled flag set — the form Span.Traceparent returns and the serve
// smoke sends.
func FormatTraceparent(tid TraceID, sid SpanID) string {
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], tid[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], sid[:])
	buf[52], buf[53], buf[54] = '-', '0', '1'
	return string(buf[:])
}
