package pipeline

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"eyeballas/internal/geodb"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/trace"
)

// traceCrawl returns a small prefix of the shared fixture crawl — big
// enough to survive conditioning, small enough to keep the trace tests
// out of the differential harness's runtime class.
func traceCrawl(t *testing.T) (*p2p.Crawl, *Dataset, func(context.Context) (*Dataset, error)) {
	t.Helper()
	w, _, full := setup(t)
	crawl := full
	if len(crawl.Peers) > 10000 {
		crawl = &p2p.Crawl{Peers: full.Peers[:10000]}
	}
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	build := func(ctx context.Context) (*Dataset, error) {
		return Build(ctx, crawl, dbA, dbB, origins, DefaultConfig())
	}
	ref, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return crawl, ref, build
}

// TestBuildTraceTree pins the stage-span shape a traced build hangs
// under a request trace: pipeline.build with locate (crawled attr),
// aggregate, and condition (ases attr) children, in stage order.
func TestBuildTraceTree(t *testing.T) {
	_, ref, build := traceCrawl(t)
	tracer := trace.New(trace.Options{Seed: 7})
	root := tracer.Start("test.build")
	ctx := trace.NewContext(context.Background(), root)
	ds, err := build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := root.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "pipeline.build" {
		t.Fatalf("root children = %+v, want one pipeline.build", tree.Children)
	}
	b := tree.Children[0]
	var names []string
	for _, c := range b.Children {
		names = append(names, c.Name)
	}
	want := []string{"locate", "aggregate", "condition"}
	if len(names) != len(want) {
		t.Fatalf("stage spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stage spans = %v, want %v", names, want)
		}
	}
	if got := attrValue(t, b.Children[0], "crawled"); got != "10000" {
		t.Errorf("locate crawled attr = %q, want 10000", got)
	}
	if got := attrValue(t, b.Children[2], "ases"); got == "" {
		t.Error("condition span lacks ases attr")
	}
	// The traced build's output is the reference output: tracing is
	// observation only.
	assertDatasetsIdentical(t, ref, ds)
	assertFunnelsIdentical(t, "traced", ref, ds)
}

// treeShape renders a span tree's names and nesting as "a(b,c(d))" —
// the timing-free part of a trace that a test can pin exactly.
func treeShape(n obs.TreeNode) string {
	if len(n.Children) == 0 {
		return n.Name
	}
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = treeShape(c)
	}
	return n.Name + "(" + strings.Join(kids, ",") + ")"
}

// TestRunStageSpans pins the one-span-per-stage tree both whole-run
// entry points hang under the trace in their context — the tree the
// batch CLIs' -trace prints — and the time the locate pass spent inside
// its peer source: Run streams the crawl into locate, so that attribute
// is where crawl generation time shows up.
func TestRunStageSpans(t *testing.T) {
	w, _, _ := setup(t)
	const want = "test.run(pipeline.run(bgp.origin_table(bgp.routing,bgp.ribs),pipeline.build(locate,aggregate,condition)))"
	cases := []struct {
		name string
		run  func(context.Context) error
	}{
		{"Run", func(ctx context.Context) error {
			_, _, err := Run(ctx, w, p2p.DefaultConfig(), DefaultConfig(), 71)
			return err
		}},
		{"RunExport", func(ctx context.Context) error {
			_, _, _, err := RunExport(ctx, w, p2p.DefaultConfig(), DefaultConfig(), 71)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := trace.New(trace.Options{Seed: 7}).Start("test.run")
			if err := tc.run(trace.NewContext(context.Background(), root)); err != nil {
				t.Fatal(err)
			}
			root.End()
			tree := root.Tree()
			if got := treeShape(tree); got != want {
				t.Fatalf("trace tree\n got %s\nwant %s", got, want)
			}
			locate := tree.Children[0].Children[1].Children[0]
			ns, err := strconv.ParseInt(attrValue(t, locate, "source_ns"), 10, 64)
			if err != nil || ns <= 0 {
				t.Errorf("locate source_ns = %q, want a positive duration", attrValue(t, locate, "source_ns"))
			}
		})
	}
}

func attrValue(t *testing.T, n obs.TreeNode, key string) string {
	t.Helper()
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestBuildStreamTraceMatchesBatchShape: the streaming entry point hangs
// the same stage spans as Build (which routes through it), and a build
// with no trace in the context produces a bit-identical dataset — the
// nil-span fast path cannot influence results.
func TestBuildUntracedIdentical(t *testing.T) {
	_, ref, build := traceCrawl(t)
	ds, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsIdentical(t, ref, ds)
}
