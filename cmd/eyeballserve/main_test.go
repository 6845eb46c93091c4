package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/serve"
	"eyeballas/internal/snapshot"
)

// writeTestSnapshot builds a one-AS snapshot on disk for CLI tests.
func writeTestSnapshot(t *testing.T) string {
	t.Helper()
	return writeSnapshot(t, 64500)
}

// writeSnapshot builds a snapshot on disk whose ASes, the given ones,
// each hold the same 120 users around Milan.
func writeSnapshot(t *testing.T, asns ...astopo.ASN) string {
	t.Helper()
	milan, ok := gazetteer.Default().Find("Milan", "IT")
	if !ok {
		t.Fatal("gazetteer lost Milan")
	}
	samples := make([]core.Sample, 0, 120)
	for i := 0; i < 120; i++ {
		samples = append(samples, core.Sample{
			Loc: geo.Point{
				Lat: milan.Loc.Lat + 0.02*float64(i%7) - 0.06,
				Lon: milan.Loc.Lon + 0.02*float64(i%5) - 0.04,
			},
			Place: &core.Place{City: "Milan", Country: "IT"}, GeoErrKm: float64(i % 25),
		})
	}
	ds := &pipeline.Dataset{
		ASes:       map[astopo.ASN]*pipeline.ASRecord{},
		Order:      asns,
		TotalPeers: 120 * len(asns),
		Funnel:     obs.NewFunnel("cli-test"),
	}
	for _, asn := range asns {
		ds.ASes[asn] = &pipeline.ASRecord{
			ASN: asn, Users: 120, Samples: samples,
			PeersByApp: map[p2p.App]int{p2p.Kad: 120},
			Class:      core.Classification{Level: astopo.LevelCity, Place: "Milan/IT", Share: 1},
			Region:     gazetteer.EU,
		}
	}
	snap := &snapshot.Snapshot{Meta: snapshot.Meta{Seed: 42, Label: "cli-test"}, Dataset: ds}
	path := t.TempDir() + "/cli.snap"
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestRunRequiresSnapFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), nil, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-snap is required") {
		t.Fatalf("err = %v, want -snap is required", err)
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"-snap", t.TempDir() + "/absent.snap"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "loading") {
		t.Fatalf("err = %v, want loading error", err)
	}
}

// TestRunRejectsBadBandwidth: a -bw outside (0, 5000] km is refused
// before the snapshot loads, so the server never listens and answers
// no request at a bandwidth it cannot render.
func TestRunRejectsBadBandwidth(t *testing.T) {
	path := writeTestSnapshot(t)
	for _, bw := range []string{"NaN", "-5", "6000"} {
		t.Run(bw, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			var out, errOut bytes.Buffer
			err := run(ctx, []string{"-snap", path, "-addr", "127.0.0.1:0", "-bw", bw}, &out, &errOut)
			if err == nil || !strings.Contains(err.Error(), "-bw") {
				t.Fatalf("err = %v, want a -bw error", err)
			}
			if strings.Contains(errOut.String(), "listening") {
				t.Fatalf("server listened with -bw %s: %s", bw, errOut.String())
			}
		})
	}
}

// TestPrintFootprintMatchesRender drives the offline -print-footprint
// mode and checks the bytes against serve.RenderFootprint — the same
// equivalence CI proves against eyeballpipe -footprint.
func TestPrintFootprintMatchesRender(t *testing.T) {
	path := writeTestSnapshot(t)
	var out, errOut bytes.Buffer
	err := run(context.Background(),
		[]string{"-snap", path, "-print-footprint", "64500", "-bw", "40"},
		&out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.RenderFootprint(context.Background(),
		gazetteer.Default(), snap.Dataset.AS(64500), 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-print-footprint bytes differ from RenderFootprint:\n%s\nvs\n%s", out.Bytes(), want)
	}
	if !strings.Contains(errOut.String(), "loaded ") {
		t.Errorf("missing load summary on stderr: %q", errOut.String())
	}
}

// TestWarmLogReportsWarmSet pins the "warming footprint cache" line to
// the warm set, min(-cache, ASes), which eyeball_serve_warm_total
// reports too, not to the dataset's AS count.
func TestWarmLogReportsWarmSet(t *testing.T) {
	path := writeSnapshot(t, 64500, 64501, 64502)
	for _, tc := range []struct {
		cache string
		want  int
	}{{"2", 2}, {"10", 3}, {"-1", 0}} {
		t.Run("cache"+tc.cache, func(t *testing.T) {
			metrics := t.TempDir() + "/metrics.json"
			var out, errOut bytes.Buffer
			err := run(context.Background(),
				[]string{"-snap", path, "-warm", "-cache", tc.cache, "-print-footprint", "64500", "-metrics", metrics},
				&out, &errOut)
			if err != nil {
				t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
			}
			logged := -1
			for _, line := range strings.Split(strings.TrimSpace(errOut.String()), "\n") {
				var rec struct {
					Msg  string `json:"msg"`
					ASes int    `json:"ases"`
				}
				if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "warming footprint cache" {
					logged = rec.ASes
				}
			}
			if logged != tc.want {
				t.Errorf("warming line ases = %d, want %d (stderr: %s)", logged, tc.want, errOut.String())
			}
			raw, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var snap struct {
				Gauges map[string]float64 `json:"gauges"`
			}
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			if got := snap.Gauges["eyeball_serve_warm_total"]; got != float64(tc.want) {
				t.Errorf("eyeball_serve_warm_total = %v, want %d", got, tc.want)
			}
		})
	}
}

func TestPrintFootprintUnknownAS(t *testing.T) {
	path := writeTestSnapshot(t)
	var out, errOut bytes.Buffer
	err := run(context.Background(),
		[]string{"-snap", path, "-print-footprint", "7"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
}
