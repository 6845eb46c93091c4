package kde

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"eyeballas/internal/geo"
	"eyeballas/internal/obs"
	"eyeballas/internal/trace"
)

func traceSamples() []geo.XY {
	samples := make([]geo.XY, 0, 300)
	for i := 0; i < 300; i++ {
		samples = append(samples, geo.XY{
			X: 5 * math.Sin(float64(i)),
			Y: 5 * math.Cos(float64(3*i+1)),
		})
	}
	return samples
}

// estimateTraced runs one Estimate under a fresh request trace and
// returns the finished root's tree.
func estimateTraced(t *testing.T, workers int) (*trace.Span, obs.TreeNode) {
	t.Helper()
	tracer := trace.New(trace.Options{Seed: 11})
	root := tracer.Start("test.estimate")
	ctx := trace.NewContext(context.Background(), root)
	opts := Options{BandwidthKm: 40, Workers: workers}
	if _, err := Estimate(ctx, traceSamples(), opts); err != nil {
		t.Fatal(err)
	}
	root.End()
	return root, root.Tree()
}

// TestEstimateTraceTree pins the block-granularity span shape one
// traced estimate hangs under a request: kde.estimate (samples/points/
// cells/support_cells attrs) → bin, blur_horizontal (rows blocks),
// blur_vertical (cols blocks), with every block span carrying its lo/hi
// range.
func TestEstimateTraceTree(t *testing.T) {
	_, tree := estimateTraced(t, 4)
	if len(tree.Children) != 1 || tree.Children[0].Name != "kde.estimate" {
		t.Fatalf("root children = %+v, want one kde.estimate", tree.Children)
	}
	est := tree.Children[0]
	var attrs []string
	for _, a := range est.Attrs {
		attrs = append(attrs, a.Key)
	}
	if strings.Join(attrs, ",") != "samples,points,cells,support_cells" {
		t.Fatalf("kde.estimate attrs = %v, want [samples points cells support_cells]", attrs)
	}
	if est.Attrs[0].Val != "300" || est.Attrs[1].Val != "300" {
		t.Errorf("samples, points attrs = %q, %q, want 300, 300", est.Attrs[0].Val, est.Attrs[1].Val)
	}
	// The support is the cells the blur visits: every cell the surface
	// holds above zero, and no more than the grid.
	g, err := Estimate(context.Background(), traceSamples(), Options{BandwidthKm: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range g.Data {
		if v != 0 {
			nonzero++
		}
	}
	cells, _ := strconv.Atoi(est.Attrs[2].Val)
	support, _ := strconv.Atoi(est.Attrs[3].Val)
	if support < nonzero || support > cells {
		t.Errorf("support_cells = %d, want between the %d nonzero cells and the %d cells", support, nonzero, cells)
	}
	var names []string
	for _, c := range est.Children {
		names = append(names, c.Name)
	}
	want := []string{"bin", "blur_horizontal", "blur_vertical"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("kde.estimate children = %v, want %v", names, want)
	}
	for i, pass := range est.Children[1:] {
		blockName := []string{"rows", "cols"}[i]
		if len(pass.Children) == 0 {
			t.Fatalf("%s has no block spans", pass.Name)
		}
		for _, b := range pass.Children {
			if b.Name != blockName {
				t.Errorf("%s block named %q, want %q", pass.Name, b.Name, blockName)
			}
			if attrKeyVal(b, "lo") == "" || attrKeyVal(b, "hi") == "" {
				t.Errorf("%s block %v lacks lo/hi attrs", pass.Name, b.Attrs)
			}
		}
	}
}

func attrKeyVal(n obs.TreeNode, key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// stripDurations zeroes every duration in a tree so two runs can be
// compared structurally.
func stripDurations(n obs.TreeNode) obs.TreeNode {
	n.DurNS = 0
	for i := range n.Children {
		n.Children[i] = stripDurations(n.Children[i])
	}
	for i := range n.Events {
		n.Events[i].AtNS = 0
	}
	return n
}

// TestEstimateTraceScheduleIndependent: ChildSeq keys block spans by
// their starting row/column, so the rendered tree is byte-identical no
// matter how the worker pool interleaves — serial and 8-way runs agree.
func TestEstimateTraceScheduleIndependent(t *testing.T) {
	_, serial := estimateTraced(t, 1)
	var a, b strings.Builder
	if err := obs.WriteTree(&a, []obs.TreeNode{stripDurations(serial)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, wide := estimateTraced(t, 8)
		b.Reset()
		if err := obs.WriteTree(&b, []obs.TreeNode{stripDurations(wide)}); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("workers=8 run %d tree differs from serial:\n%s\nvs\n%s", i, b.String(), a.String())
		}
	}
}

// TestEstimateOutputIdenticalTraced: the traced surface is bit-for-bit
// the untraced surface — tracing observes the convolution, it cannot
// perturb it.
func TestEstimateOutputIdenticalTraced(t *testing.T) {
	opts := Options{BandwidthKm: 40, Workers: 4}
	plain, err := Estimate(context.Background(), traceSamples(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.Options{Seed: 11})
	root := tracer.Start("test.estimate")
	traced, err := Estimate(trace.NewContext(context.Background(), root), traceSamples(), opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(plain.Data) != len(traced.Data) {
		t.Fatalf("grid sizes differ: %d vs %d", len(plain.Data), len(traced.Data))
	}
	for i := range plain.Data {
		if math.Float64bits(plain.Data[i]) != math.Float64bits(traced.Data[i]) {
			t.Fatalf("cell %d differs bitwise: %v vs %v", i, plain.Data[i], traced.Data[i])
		}
	}
}
