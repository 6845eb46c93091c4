package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// TreeNode is the neutral span-tree node internal/trace — the one trace
// producer in the repository — renders every trace through: the flight
// recorder, /debug/trace/{id}, and the batch CLIs' -trace and -trace-out
// output. Keeping the encoders here defines the text and JSON forms of a
// span tree exactly once.
//
// Both encoders are deterministic: fields encode in declaration order,
// attributes and events in recorded order, children in the order the
// producer supplies them (the producer sorts siblings by a
// schedule-independent key). No timestamps are emitted — only durations
// and offsets — so trees built under a pinned clock are byte-stable and
// golden-file friendly.
type TreeNode struct {
	Name string `json:"name"`
	// DurNS is the span duration in nanoseconds, -1 while open.
	DurNS    int64       `json:"duration_ns"`
	Attrs    []TreeAttr  `json:"attrs,omitempty"`
	Events   []TreeEvent `json:"events,omitempty"`
	Children []TreeNode  `json:"children,omitempty"`
}

// TreeAttr is one key/value attribute on a span, in recorded order.
type TreeAttr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// TreeEvent is one point-in-time event on a span; AtNS is the offset
// from the tree's root start in nanoseconds.
type TreeEvent struct {
	Name string `json:"name"`
	AtNS int64  `json:"at_ns"`
}

// treeNameCol is the column durations are padded to in the text form —
// wide enough for two levels of nesting under typical span names.
const treeNameCol = 32

// WriteTree renders a span forest as the indented text tree the CLIs
// print for -trace: one line per span (name padded, duration), "(open)"
// for unfinished spans, attributes appended as [k=v ...], and events as
// "@ name +offset" lines under their span.
func WriteTree(w io.Writer, roots []TreeNode) error {
	for i := range roots {
		if err := writeTreeNode(w, &roots[i], 0); err != nil {
			return err
		}
	}
	return nil
}

func writeTreeNode(w io.Writer, n *TreeNode, depth int) error {
	dur := "(open)"
	if n.DurNS >= 0 {
		dur = time.Duration(n.DurNS).Round(time.Microsecond).String()
	}
	pad := treeNameCol - 2*depth - len(n.Name)
	if pad < 1 {
		pad = 1
	}
	if _, err := fmt.Fprintf(w, "%*s%s%*s%s", 2*depth, "", n.Name, pad, "", dur); err != nil {
		return err
	}
	if len(n.Attrs) > 0 {
		if _, err := io.WriteString(w, " ["); err != nil {
			return err
		}
		for i, a := range n.Attrs {
			sep := ""
			if i > 0 {
				sep = " "
			}
			if _, err := fmt.Fprintf(w, "%s%s=%s", sep, a.Key, a.Val); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "]"); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, e := range n.Events {
		if _, err := fmt.Fprintf(w, "%*s@ %s%*s+%s\n", 2*(depth+1), "", e.Name,
			max(1, treeNameCol-2*(depth+1)-2-len(e.Name)), "",
			time.Duration(e.AtNS).Round(time.Microsecond)); err != nil {
			return err
		}
	}
	for i := range n.Children {
		if err := writeTreeNode(w, &n.Children[i], depth+1); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON writes v in the repository's canonical JSON form: indented
// two spaces, trailing newline, map keys sorted by encoding/json. Every
// trace/debug JSON producer funnels through here so their formatting
// can never drift apart.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
