package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/snapshot"
)

// runSmall runs one workload on the test-scale world and returns the
// report text and the parsed result line.
func runSmall(t *testing.T, name string, traced bool, seconds string) (string, result) {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	var out, errOut bytes.Buffer
	args := []string{"--workload", name, "--seed", "3", "--seconds", seconds, "--trace", trace, "--small", "--workdir", t.TempDir()}
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstderr: %s\nstdout: %s", name, trace, code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	return out.String(), res
}

// benchUnits returns the units BENCHMARK.json declares, by metric name.
func benchUnits(t *testing.T) map[string]string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	units := benchUnits(t)
	for _, name := range []string{"serve_point", "serve_footprint"} {
		for _, traced := range []bool{false, true} {
			report, res := runSmall(t, name, traced, "2")
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 100 || res.Failed != 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v (present %t)", name, traced, m, v, ok)
				}
				if u, declared := units[m]; declared && u != v.Unit {
					t.Errorf("%s traced=%t: metric %s in %s, BENCHMARK.json says %s", name, traced, m, v.Unit, u)
				}
			}
			for _, s := range []string{"run gomaxprocs=", "nproc=", "commit=", "seed=3", "rate=", "phase open_loop attempted=", "phase capacity  attempted=", "build artifact sha256=", "metric error_frac"} {
				if !strings.Contains(report, s) {
					t.Errorf("%s traced=%t: report lacks %q", name, traced, s)
				}
			}
			if name == "serve_footprint" && !strings.Contains(report, "metric bulk_p99_ms") {
				t.Errorf("serve_footprint report lacks bulk_p99_ms")
			}
		}
	}
}

// TestBuildMatchesPipelineRunExport pins the benchmark's layer-by-layer
// build to the pipeline's one-call entry point: same artifact bytes.
func TestBuildMatchesPipelineRunExport(t *testing.T) {
	ctx := context.Background()
	o := options{workload: workloads["serve_point"], seed: 3, small: true, workdir: t.TempDir()}
	b, err := prepare(ctx, o, newReport(io.Discard), nil, &spanLog{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	w, err := astopo.Generate(astopo.SmallConfig(worldSeed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	ds, _, origins, err := pipeline.RunExport(ctx, w, p2p.DefaultConfig(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := snapshot.Encode(&snapshot.Snapshot{Meta: snapshot.Meta{Seed: 3, Label: "perfbench"}, Dataset: ds, Origins: origins})
	if sha256.Sum256(data) != b.sum {
		t.Fatalf("layer-by-layer build differs from pipeline.RunExport")
	}
}

// TestOpenLoopCountsStalls drives a real HTTP handler that stalls once:
// the requests queued behind the stall must carry the wait in their
// latency, because latency runs from the due time, not the send time.
func TestOpenLoopCountsStalls(t *testing.T) {
	const (
		stallAt = 50
		stall   = 60 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := srv.Client()
	send := func(ctx context.Context, i int, due, sent time.Time) reply {
		resp, err := c.Get(srv.URL)
		if err != nil {
			return reply{oc: failedOutcome}
		}
		resp.Body.Close()
		return reply{}
	}
	start := time.Now().Add(5 * time.Millisecond)
	ss, err := openLoop(context.Background(), start, 1000, 200, 1, send)
	if err != nil {
		t.Fatal(err)
	}
	if got := ss[stallAt].lat; got < stall {
		t.Errorf("stalled request latency %v, want >= %v", got, stall)
	}
	// Request stallAt+k was due k ms after the stalled one and could not
	// be sent before it finished.
	for _, k := range []int{1, 10, 30} {
		want := stall - time.Duration(k)*time.Millisecond
		if s := ss[stallAt+k]; s.lat < want || s.lag < want-5*time.Millisecond {
			t.Errorf("request %d behind the stall: latency %v lag %v, want latency >= %v", k, s.lat, s.lag, want)
		}
	}
	if s := ss[stallAt-10]; s.lat > 20*time.Millisecond {
		t.Errorf("request before the stall: latency %v", s.lat)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the program emits in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end: BENCHMARK.json %s, program %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer: BENCHMARK.json %s, program %s", got, want)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
}
