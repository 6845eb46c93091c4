package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// traceDetail mirrors trace.Detail's JSON envelope closely enough to
// assert on -trace-out output without importing internal packages.
type traceDetail struct {
	TraceID     string    `json:"trace_id"`
	Traceparent string    `json:"traceparent"`
	DurationNS  int64     `json:"duration_ns"`
	Spans       int       `json:"spans"`
	Root        traceNode `json:"root"`
}

type traceNode struct {
	Name  string `json:"name"`
	Attrs []struct {
		Key string `json:"key"`
		Val string `json:"val"`
	} `json:"attrs"`
	Children []traceNode `json:"children"`
}

// attr returns the value of the span attribute key, or "".
func (n traceNode) attr(key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// buildTree is the stage tree one offline build traces: one span per
// stage, nested as the pipeline runs them. The crawl is streamed into
// the build, so it has no stage of its own: its time is locate's
// source_ns attribute.
const buildTree = "eyeballpipe.build(pipeline.run(bgp.origin_table(bgp.routing,bgp.ribs),pipeline.build(locate,aggregate,condition)))"

// shape renders a trace tree's names and nesting as "a(b,c(d))".
func (n traceNode) shape() string {
	if len(n.Children) == 0 {
		return n.Name
	}
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = c.shape()
	}
	return n.Name + "(" + strings.Join(kids, ",") + ")"
}

// parseTextTree rebuilds the span tree -trace printed: each line is one
// span, indented two spaces per level, name first. Lines that are not
// indented tree lines under the single root (other stderr output) end
// the tree.
func parseTextTree(t *testing.T, text string) traceNode {
	t.Helper()
	var root traceNode
	var stack []*traceNode
	for i, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			break
		}
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		if i == 0 {
			root.Name = fields[0]
			stack = []*traceNode{&root}
			continue
		}
		if depth == 0 || depth > len(stack) {
			break
		}
		parent := stack[depth-1]
		parent.Children = append(parent.Children, traceNode{Name: fields[0]})
		stack = append(stack[:depth], &parent.Children[len(parent.Children)-1])
	}
	return root
}

// TestTraceOut: one offline build emits a parseable canonical trace —
// the eyeballpipe.build root over pipeline.run with origin-table and
// build stages, locate carrying the crawl's source time — and the trace
// ID derives from -seed. -trace prints the same one tree the JSON holds.
func TestTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "build-trace.json")
	var stderr bytes.Buffer
	if err := run(context.Background(),
		[]string{"-small", "-seed", "5", "-quiet", "-trace", "-trace-out", out},
		io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var d traceDetail
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("trace-out is not valid JSON: %v\n%s", err, raw)
	}
	if d.Root.Name != "eyeballpipe.build" {
		t.Errorf("root span = %q, want eyeballpipe.build", d.Root.Name)
	}
	if len(d.TraceID) != 32 {
		t.Errorf("trace_id = %q, want 32 hex digits", d.TraceID)
	}
	if !strings.Contains(d.Traceparent, d.TraceID) {
		t.Errorf("traceparent %q does not embed trace_id %q", d.Traceparent, d.TraceID)
	}
	if d.Spans < 5 {
		t.Errorf("spans = %d, want the stage tree (>= 5)", d.Spans)
	}
	if d.DurationNS <= 0 {
		t.Errorf("duration_ns = %d, want positive", d.DurationNS)
	}
	if got := d.Root.shape(); got != buildTree {
		t.Fatalf("-trace-out tree\n got %s\nwant %s", got, buildTree)
	}
	locate := d.Root.Children[0].Children[1].Children[0]
	if ns, err := strconv.ParseInt(locate.attr("source_ns"), 10, 64); err != nil || ns <= 0 {
		t.Errorf("-trace-out locate source_ns = %q, want a positive duration", locate.attr("source_ns"))
	}
	if got := parseTextTree(t, stderr.String()).shape(); got != d.Root.shape() {
		t.Errorf("-trace and -trace-out disagree\n-trace     %s\n-trace-out %s\nstderr:\n%s", got, d.Root.shape(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "wrote build trace") {
		t.Errorf("stderr lacks trace summary: %q", stderr.String())
	}

	// Same seed, second run: the trace's identity (IDs and shape,
	// not timings) reproduces.
	out2 := filepath.Join(t.TempDir(), "build-trace-2.json")
	if err := run(context.Background(),
		[]string{"-small", "-seed", "5", "-trace-out", out2},
		io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	var d2 traceDetail
	if err := json.Unmarshal(raw2, &d2); err != nil {
		t.Fatal(err)
	}
	if d2.TraceID != d.TraceID {
		t.Errorf("seeded trace IDs differ across runs: %s vs %s", d.TraceID, d2.TraceID)
	}
	if d2.Spans != d.Spans {
		t.Errorf("span counts differ across runs: %d vs %d", d.Spans, d2.Spans)
	}
}

// TestTraceStream: the build streams the crawl and never materializes
// it, so the -trace tree has no crawl stage, and the locate line carries
// the crawl's source time instead.
func TestTraceStream(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(),
		[]string{"-small", "-seed", "5", "-quiet", "-trace"},
		io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := parseTextTree(t, stderr.String()).shape(); got != buildTree {
		t.Errorf("-trace tree\n got %s\nwant %s\nstderr:\n%s", got, buildTree, stderr.String())
	}
	if !regexp.MustCompile(`(?m)^ +locate .*\bsource_ns=[1-9]`).MatchString(stderr.String()) {
		t.Errorf("-trace locate line lacks source_ns:\n%s", stderr.String())
	}
}
