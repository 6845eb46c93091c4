package trace

import (
	"io"
	"sort"
	"sync"

	"eyeballas/internal/obs"
)

// spanList holds a span's children. Appends may come from concurrent
// worker goroutines; reads happen only after the owning trace finishes.
type spanList struct {
	mu   sync.Mutex
	list []*Span
}

// add appends c and returns its sibling sequence key: the explicit seq
// when >= 0, otherwise the arrival index (deterministic for serial
// callers).
func (l *spanList) add(c *Span, seq int32) int32 {
	l.mu.Lock()
	if seq < 0 {
		seq = int32(len(l.list))
	}
	l.list = append(l.list, c)
	l.mu.Unlock()
	return seq
}

func (l *spanList) snapshot() []*Span {
	l.mu.Lock()
	out := make([]*Span, len(l.list))
	copy(out, l.list)
	l.mu.Unlock()
	return out
}

// Tree converts the span subtree into the shared obs.TreeNode form, so
// the flight recorder, /debug/trace/{id}, and the batch CLIs' -trace
// and -trace-out all emit one canonical text/JSON shape. Siblings are ordered by their
// sequence key, making the tree deterministic under parallel span
// creation. Returns the zero node on a nil receiver.
func (s *Span) Tree() obs.TreeNode {
	if s == nil {
		return obs.TreeNode{}
	}
	n := obs.TreeNode{Name: s.name, DurNS: s.durNS()}
	if na := s.numAttrs(); na > 0 {
		n.Attrs = s.appendAttrs(make([]obs.TreeAttr, 0, na))
	}
	for _, e := range s.events {
		n.Events = append(n.Events, obs.TreeEvent{Name: e.Name, AtNS: int64(e.At)})
	}
	kids := s.kids.snapshot()
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].seq < kids[j].seq })
	for _, c := range kids {
		n.Children = append(n.Children, c.Tree())
	}
	return n
}

// Detail is the canonical JSON envelope of one full trace — the shape
// served by /debug/trace/{id} and written by eyeballpipe -trace-out.
type Detail struct {
	TraceID      string       `json:"trace_id"`
	Traceparent  string       `json:"traceparent"`
	DurationNS   int64        `json:"duration_ns"`
	Spans        int          `json:"spans"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Root         obs.TreeNode `json:"root"`
}

// DetailOf materializes a root span's Detail envelope.
func DetailOf(root *Span) Detail {
	return Detail{
		TraceID:      root.TraceID().String(),
		Traceparent:  root.Traceparent(),
		DurationNS:   root.durNS(),
		Spans:        root.SpanCount(),
		DroppedSpans: root.DroppedSpans(),
		Root:         root.Tree(),
	}
}

// WriteJSON writes one trace's Detail as deterministic indented JSON
// through the shared obs tree encoder. This is the single JSON encoding
// of a trace in the repository: the flight-recorder endpoints and the
// offline -trace-out export call exactly this.
func WriteJSON(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	return obs.EncodeJSON(w, DetailOf(root))
}

// WriteText writes one trace as the shared indented text tree (the
// batch CLIs' -trace form, see CLIFlags).
func WriteText(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	return obs.WriteTree(w, []obs.TreeNode{root.Tree()})
}

// Summary is the one-line listing form used by /debug/requests: enough
// to pick a trace out of the ring without materializing its whole tree.
type Summary struct {
	TraceID    string         `json:"trace_id"`
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Spans      int            `json:"spans"`
	Attrs      []obs.TreeAttr `json:"attrs,omitempty"`
}

// SummaryOf materializes a root span's Summary (root attributes only).
func SummaryOf(root *Span) Summary {
	sum := Summary{
		TraceID:    root.TraceID().String(),
		Name:       root.name,
		DurationNS: root.durNS(),
		Spans:      root.SpanCount(),
	}
	if na := root.numAttrs(); na > 0 {
		sum.Attrs = root.appendAttrs(make([]obs.TreeAttr, 0, na))
	}
	return sum
}
